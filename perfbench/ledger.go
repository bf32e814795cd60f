package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/pegasus-idp/pegasus/internal/pisa"
)

// coverageTol is how far the traced spans may fall short of the traced
// wall time: the driver loop's own bookkeeping between spans is the
// only uncovered time.
const coverageTol = 0.05

// span is one interval the driver spent inside a layer, relative to the
// recorder's origin. Spans of one batch share the batch number.
type span struct {
	batch      int
	name       string
	start, end time.Duration
}

// batchDelta is the scheduler counter delta one batch produced, summed
// over every session.
type batchDelta struct {
	tasks, items, fires, rmws uint64
	busy, wait                time.Duration
}

// recorder keeps the traced batches' spans and counter deltas in memory.
// Spans wrap the benchmark's own calls into each layer: gen.fill around
// the generator, serve.call around RunPackets (or serve.submit and
// serve.wait around Submit and Wait), and trace.stats around the
// Scheduler().Stats() read that yields the per-batch counter delta.
type recorder struct {
	sched   *pisa.Scheduler
	jobs    bool
	origin  time.Time
	prev    []pisa.EngineStats
	spans   []span
	deltas  []batchDelta
	calls   []time.Duration // serve call (submit + wait) per batch
	submits []time.Duration // Submit alone per batch (job workloads)
	sum     map[string]time.Duration
	wall    time.Duration // Σ traced chunk walls
}

func newRecorder(sched *pisa.Scheduler, jobs bool) *recorder {
	return &recorder{sched: sched, jobs: jobs, origin: time.Now(), sum: map[string]time.Duration{}}
}

// begin snapshots the counters at the start of a traced chunk.
func (r *recorder) begin() {
	r.prev = r.sched.Stats()
}

// batch records one closed-loop batch: fill in [t0,t1), submit in
// [t1,t2), wait in [t2,t3), then the counter read.
func (r *recorder) batch(t0, t1, t2, t3 time.Time) {
	b := len(r.calls)
	r.add(b, "gen.fill", t0, t1)
	if r.jobs {
		r.add(b, "serve.submit", t1, t2)
		r.add(b, "serve.wait", t2, t3)
		r.submits = append(r.submits, t2.Sub(t1))
	} else {
		r.add(b, "serve.call", t1, t3)
	}
	r.calls = append(r.calls, t3.Sub(t1))
	ts := time.Now()
	cur := r.sched.Stats()
	var d batchDelta
	for i := range cur {
		d.tasks += cur[i].Tasks - r.prev[i].Tasks
		d.items += cur[i].Packets - r.prev[i].Packets
		d.fires += cur[i].Fires - r.prev[i].Fires
		d.rmws += cur[i].RegRMWs - r.prev[i].RegRMWs
		d.busy += cur[i].Busy - r.prev[i].Busy
		d.wait += cur[i].Wait - r.prev[i].Wait
	}
	r.deltas = append(r.deltas, d)
	r.prev = cur
	r.add(b, "trace.stats", ts, time.Now())
}

func (r *recorder) add(b int, name string, a, z time.Time) {
	r.spans = append(r.spans, span{batch: b, name: name, start: a.Sub(r.origin), end: z.Sub(r.origin)})
	r.sum[name] += z.Sub(a)
}

// covered is the traced wall time the spans account for.
func (r *recorder) covered() time.Duration {
	var t time.Duration
	for _, d := range r.sum {
		t += d
	}
	return t
}

// write dumps every span and counter delta as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		enc.Encode(map[string]any{"batch": s.batch, "span": s.name, "start_ns": s.start.Nanoseconds(), "end_ns": s.end.Nanoseconds()})
	}
	for b, d := range r.deltas {
		enc.Encode(map[string]any{"batch": b, "counters": "pisa", "tasks": d.tasks, "items": d.items,
			"fires": d.fires, "rmws": d.rmws, "busy_ns": d.busy.Nanoseconds(), "wait_ns": d.wait.Nanoseconds()})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sessionTotals folds scheduler stats deltas by role: every session,
// the shared extraction machine alone, and the classifier sessions
// (subscribers, or the windowed model). A fused private-prelude session
// is neither machine nor classifier.
type sessionTotals struct {
	all, ext, cls pisa.EngineStats
}

func rolesOf(k kind, before, after []pisa.EngineStats) sessionTotals {
	var t sessionTotals
	for i := range after {
		d := after[i]
		if i < len(before) {
			b := before[i]
			d.Tasks -= b.Tasks
			d.Packets -= b.Packets
			d.Fires -= b.Fires
			d.RegRMWs -= b.RegRMWs
			d.Shed -= b.Shed
			d.ShedBatches -= b.ShedBatches
			d.Busy -= b.Busy
			d.Wait -= b.Wait
			for j := range d.WaitHist {
				d.WaitHist[j] -= b.WaitHist[j]
				d.QueueHist[j] -= b.QueueHist[j]
			}
		}
		t.all.Add(d)
		switch {
		case strings.HasPrefix(d.Name, "extract:"):
			t.ext.Add(d)
		case k != kindSolo:
			t.cls.Add(d)
		}
	}
	return t
}

// waitP99 returns the upper bound of the wait-histogram bucket holding
// the 99th percentile task (the last bucket reports its lower bound).
func waitP99(h [pisa.StatBuckets]uint64) time.Duration {
	var total uint64
	for _, c := range h {
		total += c
	}
	if total == 0 {
		return 0
	}
	var cum uint64
	for i, c := range h {
		cum += c
		if float64(cum) >= 0.99*float64(total) {
			if i < len(pisa.WaitBuckets) {
				return pisa.WaitBuckets[i]
			}
			break
		}
	}
	return pisa.WaitBuckets[len(pisa.WaitBuckets)-1]
}

// queueDepthMean is the mean of the queue-depth histogram.
func queueDepthMean(h [pisa.StatBuckets]uint64) float64 {
	var n, s uint64
	for d, c := range h {
		n += c
		s += uint64(d) * c
	}
	if n == 0 {
		return 0
	}
	return float64(s) / float64(n)
}

// rtSample is the Go runtime's allocation and GC CPU counters.
type rtSample struct {
	mallocs      uint64
	gcCPU, avail float64 // seconds; avail is GOMAXPROCS × wall
}

var rtNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() rtSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{mallocs: ms.Mallocs, gcCPU: s[0].Value.Float64(), avail: s[1].Value.Float64()}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{mallocs: a.mallocs - b.mallocs, gcCPU: a.gcCPU - b.gcCPU, avail: a.avail - b.avail}
}

func (a rtSample) add(b rtSample) rtSample {
	return rtSample{mallocs: a.mallocs + b.mallocs, gcCPU: a.gcCPU + b.gcCPU, avail: a.avail + b.avail}
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// liveHeapMB is the Go heap still reachable after a full collection:
// the served deployment's models, registers and engine buffers, without
// the garbage a collection would reclaim.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// stealSample is the host's CPU steal and total time from /proc/stat,
// in clock ticks.
type stealSample struct{ steal, total uint64 }

func readSteal() stealSample {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var s stealSample
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i >= 8 { // guest time is already counted in user time
			break
		}
		s.total += v
		if i == 7 {
			s.steal = v
		}
	}
	return s
}

func (a stealSample) sub(b stealSample) stealSample {
	return stealSample{steal: a.steal - b.steal, total: a.total - b.total}
}

func (a stealSample) add(b stealSample) stealSample {
	return stealSample{steal: a.steal + b.steal, total: a.total + b.total}
}

func (a stealSample) frac() float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.steal) / float64(a.total)
}

// machine describes the host a result was measured on.
type machine struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu_model"`
	Go         string  `json:"go_version"`
	Budget     int     `json:"worker_budget"`
	Rate       float64 `json:"offered_rate_per_s"`
	CPUShare   float64 `json:"rt_cpu_share"`
	StealTicks uint64  `json:"steal_ticks"`
	StealFrac  float64 `json:"steal_frac"`
	// The open loop's latency samples and its validity: windows that
	// fell behind the offered rate, items due but unsent at the end, and
	// how late the driver dispatched (99th percentile).
	OpenSamples   int     `json:"open_samples"`
	OpenUnstable  int     `json:"open_unstable_windows"`
	OpenBacklog   int     `json:"open_backlog_end"`
	OpenLateP99us float64 `json:"open_late_us_p99"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sortedNanos returns v sorted ascending as nanosecond counts.
func sortedNanos(v []time.Duration) []int64 {
	s := make([]int64, len(v))
	for i, d := range v {
		s[i] = int64(d)
	}
	return sortInt64(s)
}

// describe renders a one-line summary of an open-loop phase.
func (r openResult) describe() string {
	return fmt.Sprintf("open loop @ %.0f/s: %d samples in %d windows (%d fell behind), p50 %.1fµs, p99 %.1fµs, driver late p99 %.1fµs, backlog at end %d",
		r.rate, r.samples, len(r.windows), r.unstable(), r.p50(), r.p99, r.lateP99, r.backlog())
}
