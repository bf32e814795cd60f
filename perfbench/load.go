package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/pegasus-idp/pegasus/internal/pisa"
	"github.com/pegasus-idp/pegasus/internal/serve"
	"github.com/pegasus-idp/pegasus/internal/trafficgen"
)

// feeder is one workload's client side: it generates the next inputs
// into its batch buffer and hands them to the public serve calls.
type feeder interface {
	fill(n int)   // generate the next n inputs (trafficgen Fill)
	submit(n int) // hand the first n inputs to serve
	wait() bool   // collect the batch; false if serve reported an error
}

// packetFeeder drives raw packets through Model.RunPackets. With
// several served models it rotates the calling model per batch; on a
// shared machine every call runs all subscribers anyway.
type packetFeeder struct {
	gen    *trafficgen.PacketGen
	buf    []pisa.PacketIn
	served []*serve.Model
	next   int
}

func (f *packetFeeder) fill(n int) { f.gen.Fill(f.buf[:n]) }

func (f *packetFeeder) submit(n int) {
	f.served[f.next].RunPackets(f.buf[:n])
	f.next = (f.next + 1) % len(f.served)
}

func (f *packetFeeder) wait() bool { return true }

// jobFeeder drives feature-window jobs through Model.Submit and
// Ticket.Wait.
type jobFeeder struct {
	gen *trafficgen.JobGen
	buf []pisa.Job
	m   *serve.Model
	t   *serve.Ticket
}

func (f *jobFeeder) fill(n int) { f.gen.Fill(f.buf[:n]) }

func (f *jobFeeder) submit(n int) { f.t = f.m.Submit(f.buf[:n]) }

func (f *jobFeeder) wait() bool {
	f.t.Wait()
	return f.t.Err() == nil
}

// auditor checks what the serving layers report having done against
// what the driver sent. A plan panic poisons its session and leaves the
// panicked shard's results empty without any error from RunPackets, and
// the shared machine's fan-out drops its subscribers' errors, so the
// driver cannot see such failures in the calls' return values.
type auditor struct {
	sched  *pisa.Scheduler
	kind   kind
	served []*serve.Model
	prev   []pisa.EngineStats
}

func newAuditor(d *deployment, k kind) *auditor {
	return &auditor{sched: d.srv.Scheduler(), kind: k, served: d.served}
}

// mark starts a new audited interval.
func (a *auditor) mark() { a.prev = a.sched.Stats() }

// failed returns how many of the n items sent since the last mark serve
// did not fully serve, and starts the next interval. While any served
// model's session is poisoned, all n failed. Otherwise the shortfall is
// the items the sessions did not process (shed ones included) plus, on
// a shared machine, the fired windows a subscriber did not classify.
// A poisoned shared machine session is not visible through serve; its
// effect on verdicts shows only in the verdict gate.
func (a *auditor) failed(n int) int {
	cur := a.sched.Stats()
	t := rolesOf(a.kind, a.prev, cur)
	a.prev = cur
	for _, m := range a.served {
		if poisoned(m) {
			return n
		}
	}
	done := t.all.Packets
	if a.kind == kindShared {
		done = t.ext.Packets
	}
	short := max(0, n-int(done))
	if a.kind == kindShared {
		short += max(0, int(t.ext.Fires)*len(a.served)-int(t.cls.Packets))
	}
	return min(n, short)
}

// poisoned probes m's live session with an empty submission: serve
// rejects submissions to a session a plan panic has poisoned.
func poisoned(m *serve.Model) bool {
	t, err := m.SubmitCtx(context.Background(), nil)
	if err != nil {
		return true
	}
	t.Wait()
	return t.Err() != nil
}

// chunk is one closed-loop measurement interval.
type chunk struct {
	items  int           // packets or jobs served
	failed int           // items in calls serve reported as failed
	wall   time.Duration // interval wall time
	fill   time.Duration // Σ generator Fill time
	cpu    time.Duration // process user+sys CPU over the interval
	rt     rtSample      // runtime counters at the interval's ends
	steal  stealSample
}

// pps is the chunk's served rate per second of wall time the generator
// did not use.
func (c chunk) pps() float64 {
	return float64(c.items) / (c.wall - c.fill).Seconds()
}

// cpuPerItem is the chunk's process CPU per item with the generator's
// own time taken out (Fill runs on the driver goroutine alone, so its
// wall time is its CPU time).
func (c chunk) cpuPerItem() float64 {
	return float64(c.cpu-c.fill) / float64(c.items)
}

// closedChunk runs the closed loop — one outstanding batch, the next
// filled only after the previous returned — for dur. A non-nil rec
// records every batch's spans and counter deltas.
func closedChunk(f feeder, batch int, dur time.Duration, rec *recorder) chunk {
	var c chunk
	r0, s0 := readRuntime(), readSteal()
	cpu0 := processCPU()
	start := time.Now()
	for {
		t0 := time.Now()
		if t0.Sub(start) >= dur {
			break
		}
		f.fill(batch)
		t1 := time.Now()
		f.submit(batch)
		t2 := time.Now()
		ok := f.wait()
		t3 := time.Now()
		c.fill += t1.Sub(t0)
		c.items += batch
		if !ok {
			c.failed += batch
		}
		if rec != nil {
			rec.batch(t0, t1, t2, t3)
		}
	}
	c.wall = time.Since(start)
	c.cpu = processCPU() - cpu0
	c.rt = readRuntime().sub(r0)
	c.steal = readSteal().sub(s0)
	return c
}

// openResult is one open-loop phase: latency of every item from its
// due time to the return of its batch, summarised per window, and how
// well the driver kept to the schedule.
type openResult struct {
	rate      float64
	samples   int     // items sent, each one latency sample
	p99       float64 // µs, over every sample of the phase
	lateP99   float64 // µs the driver was behind schedule, 99th percentile over dispatches
	windows   []openWindow
	due, sent int // items due by the end of the phase, and items sent
	failed    int
}

// openWindow is one sub-interval of the open loop.
type openWindow struct {
	samples  int
	p50, p99 float64 // µs
	unstable bool    // the backlog grew past what one stall explains
}

// openLoop offers items at a fixed rate for dur: item i is due at
// i/rate. The driver sends every item already due, up to maxBatch, in
// one call; between calls it spins (yielding its processor) until the
// next item is due, so it occupies one of GOMAXPROCS while it waits.
// The phase is split into nwin windows by due time. A window that ends
// with more than 20 ms of arrivals still unsent fell behind the offered
// rate: it is flagged unstable and its latencies are left out of the
// reported medians.
func openLoop(f feeder, rate float64, maxBatch int, dur time.Duration, nwin int) openResult {
	period := float64(time.Second) / rate
	total := int(dur.Seconds() * rate)
	res := openResult{rate: rate}
	lat := make([]int64, 0, total)
	var late []int64
	dueAt := func(i int) int64 { return int64(float64(i) * period) }
	winLen := int64(dur) / int64(nwin)
	var backlogs []int
	start := time.Now()
	for {
		now := int64(time.Since(start))
		for len(backlogs) < nwin && int64(len(backlogs)+1)*winLen <= now {
			dueBy := int(float64(int64(len(backlogs)+1)*winLen)/period) + 1
			backlogs = append(backlogs, max(0, min(dueBy, total)-res.sent))
		}
		if now >= int64(dur) || res.sent >= total {
			break
		}
		due := min(int(float64(now)/period)+1, total)
		if due <= res.sent {
			runtime.Gosched()
			continue
		}
		n := min(due-res.sent, maxBatch)
		late = append(late, now-dueAt(res.sent))
		f.fill(n)
		f.submit(n)
		ok := f.wait()
		ret := int64(time.Since(start))
		for k := 0; k < n; k++ {
			lat = append(lat, ret-dueAt(res.sent+k))
		}
		if !ok {
			res.failed += n
		}
		res.sent += n
	}
	res.due = min(int(float64(dur)/period)+1, total)
	for len(backlogs) < nwin {
		backlogs = append(backlogs, res.due-res.sent)
	}
	limit := max(1, int(rate*0.020))
	// Window w holds the items due in [w, w+1)·dur/nwin.
	lo := 0
	for w := 0; w < nwin; w++ {
		hi := min(int(float64(int64(w+1)*winLen)/period), len(lat))
		win := openWindow{unstable: backlogs[w] > limit}
		if hi > lo {
			s := sortInt64(lat[lo:hi])
			win.samples = len(s)
			win.p50 = float64(quantile(s, 0.50)) / 1e3
			win.p99 = float64(quantile(s, 0.99)) / 1e3
		}
		res.windows = append(res.windows, win)
		lo = max(lo, hi)
	}
	res.samples = len(lat)
	res.p99 = float64(quantile(sortInt64(lat), 0.99)) / 1e3
	res.lateP99 = float64(quantile(sortInt64(late), 0.99)) / 1e3
	return res
}

// stable returns the windows that kept up with the offered rate.
func (r openResult) stable() []openWindow {
	var ws []openWindow
	for _, w := range r.windows {
		if !w.unstable && w.samples > 0 {
			ws = append(ws, w)
		}
	}
	return ws
}

// valid reports an error when no window kept up with the offered rate:
// the backlog grew throughout, so the latency measured the queue, not
// the server, and the phase must not be reported.
func (r openResult) valid() error {
	if len(r.stable()) == 0 {
		return fmt.Errorf("open loop at %.0f/s fell behind in all %d windows (backlog at end %d): no latency to report",
			r.rate, len(r.windows), r.backlog())
	}
	return nil
}

// backlog is the items due by the end of the phase but never sent.
func (r openResult) backlog() int { return r.due - r.sent }

// unstable counts the windows that fell behind the offered rate.
func (r openResult) unstable() int {
	n := 0
	for _, w := range r.windows {
		if w.unstable {
			n++
		}
	}
	return n
}

// p50 returns the median over stable windows of the window median
// latency, in µs.
func (r openResult) p50() float64 {
	ws := r.stable()
	v := make([]float64, len(ws))
	for i, w := range ws {
		v[i] = w.p50
	}
	return median(v)
}

// sortInt64 sorts s in place and returns it.
func sortInt64(s []int64) []int64 {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile returns the q-quantile of sorted s (nearest rank).
func quantile(s []int64, q float64) int64 {
	if len(s) == 0 {
		return 0
	}
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median returns the median of v (0 for an empty slice).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
