// Command perfbench is the serve-path benchmark: seeded trafficgen load
// driven from one goroutine into the public serve calls (RunPackets,
// Submit/Wait) of models trained, compiled, emitted and registered at
// start-up, with every verdict of a seeded prefix checked against the
// reference interpreter first. See README.md for the workloads and the
// metrics.
//
//	go run . --workload pkt-solo-seq --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics of a traced run with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/pegasus-idp/pegasus/internal/pisa"
	"github.com/pegasus-idp/pegasus/internal/trafficgen"
)

// logw receives progress and diagnostic lines.
var logw io.Writer = os.Stderr

type kind int

const (
	kindSolo    kind = iota // one model with its fused private prelude
	kindShared              // classifiers subscribed to one shared machine
	kindWindows             // pre-extracted windows on the job path
)

// workload is one traffic mix and the models that serve it.
type workload struct {
	name   string
	kind   kind
	models []string
	flows  int     // live flow population of the generator
	slots  int     // per-flow register slots of the emission
	batch  int     // closed-loop batch, and the open loop's largest batch
	rate   float64 // open-loop offered rate (items per second)
	gate   int     // items in the verdict-checked prefix
}

// Flow count and batch size are those of the repository's sustained-load
// experiment (experiments.ScalingBench: 1<<14 live flows, batches of
// 8192). Register slots are four times the live flows, so hash
// collisions between live flows stay rare. The gate prefix is sized from
// the flow count: 16 items per live flow, so most flows reach their
// first fired window (at their eighth packet) inside it.
const (
	liveFlows  = 1 << 14
	batchItems = 8192
	gateItems  = 16 * liveFlows
)

var workloads = []workload{
	{name: "pkt-solo-seq", kind: kindSolo, models: []string{"CNN-M"},
		flows: liveFlows, slots: 4 * liveFlows, batch: batchItems, rate: 200e3, gate: gateItems},
	{name: "pkt-shared3-seq", kind: kindShared, models: []string{"CNN-M", "CNN-B", "RNN-B"},
		flows: liveFlows, slots: 4 * liveFlows, batch: batchItems, rate: 50e3, gate: gateItems},
	{name: "win-batch-cnnm", kind: kindWindows, models: []string{"CNN-M"},
		flows: liveFlows, slots: 4 * liveFlows, batch: batchItems, rate: 200e3, gate: gateItems},
}

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "load seed (the traffic; the models' training seed is fixed)")
	seconds := fs.Float64("seconds", 10, "measured seconds: half closed loop, half open loop")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "perfbench-traces"), "where the traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(logw, "perfbench: unknown workload %q; have:", *name)
		for _, w := range workloads {
			fmt.Fprintf(logw, " %s", w.name)
		}
		fmt.Fprintln(logw)
		return 2
	}
	res, mach, err := bench(wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *traceDir)
	if err != nil {
		fmt.Fprintf(logw, "perfbench: %v\n", err)
		return 1
	}
	m, err := json.Marshal(map[string]any{"workload": wl.name, "seed": *seed, "machine": mach})
	if err != nil {
		fmt.Fprintf(logw, "perfbench: encode machine: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(logw, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(m))
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		fmt.Fprintf(logw, "perfbench: %d of %d items failed or mismatched the reference\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// bench runs one workload end to end: set-up (timed, several times),
// the verdict gate, then the closed and open loops.
func bench(wl *workload, seed int64, dur time.Duration, traced bool, traceDir string) (result, machine, error) {
	budget := runtime.NumCPU()
	mach := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
		Go: runtime.Version(), Budget: budget, Rate: wl.rate}

	var d *deployment
	var setups []setupTimes
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.Close()
		}
		var err error
		if d, err = deploy(wl, budget); err != nil {
			return result{}, mach, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.times)
		fmt.Fprintf(logw, "set-up %d: %.3fs (train %.3fs, compile %.3fs, emit %.3fs, register %.1fms)\n", i+1,
			d.times.total.Seconds(), d.times.train.Seconds(), d.times.compile.Seconds(),
			d.times.emit.Seconds(), float64(d.times.register)/1e6)
	}
	defer d.Close()

	f, attempted, failed, err := startLoad(d, wl, seed)
	if err != nil {
		return result{}, mach, err
	}
	fmt.Fprintf(logw, "gate: %d items checked against the reference interpreter, %d mismatched\n", attempted, failed)

	sched := d.srv.Scheduler()
	aud := newAuditor(d, wl.kind)
	aud.mark()
	warm := closedChunk(f, wl.batch, 300*time.Millisecond, nil) // warm-up, not timed
	attempted += warm.items
	failed += max(warm.failed, aud.failed(warm.items))

	const chunkDur = 250 * time.Millisecond
	closedDur, openDur := dur/2, dur-dur/2
	var plain, tracedChunks []chunk
	var rec *recorder
	var roles sessionTotals
	if traced {
		rec = newRecorder(sched, wl.kind == kindWindows)
	}
	for t, i := time.Duration(0), 0; t < closedDur; i++ {
		aud.mark()
		if traced && i%2 == 1 {
			rec.begin()
			before := rec.prev
			c := closedChunk(f, wl.batch, chunkDur, rec)
			c.failed = max(c.failed, aud.failed(c.items))
			tracedChunks = append(tracedChunks, c)
			roles = addRoles(roles, rolesOf(wl.kind, before, rec.prev))
			rec.wall += c.wall
			t += c.wall
			continue
		}
		c := closedChunk(f, wl.batch, chunkDur, nil)
		c.failed = max(c.failed, aud.failed(c.items))
		plain = append(plain, c)
		t += c.wall
	}
	nwin := max(1, int(openDur/(500*time.Millisecond)))
	aud.mark()
	open := openLoop(f, wl.rate, wl.batch, openDur, nwin)
	open.failed = max(open.failed, aud.failed(open.sent))
	fmt.Fprintln(logw, open.describe())

	for _, c := range append(plain, tracedChunks...) {
		attempted += c.items
		failed += c.failed
	}
	attempted += open.sent
	failed += open.failed

	var sum chunk
	for _, c := range plain {
		sum.cpu += c.cpu
		sum.wall += c.wall
		sum.steal = sum.steal.add(c.steal)
	}
	mach.CPUShare = sum.cpu.Seconds() / (sum.wall.Seconds() * float64(mach.NProc))
	mach.StealTicks = sum.steal.steal
	mach.StealFrac = sum.steal.frac()
	mach.OpenSamples, mach.OpenUnstable = open.samples, open.unstable()
	mach.OpenBacklog, mach.OpenLateP99us = open.backlog(), open.lateP99
	if err := open.valid(); err != nil {
		return result{}, mach, err
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if !traced {
		endToEnd(res.Metrics, wl, setups, plain, open, attempted, failed)
		return res, mach, nil
	}
	perLayer(res.Metrics, wl, setups, plain, tracedChunks, rec, roles, open, mach)
	if err := rec.write(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", wl.name, seed))); err != nil {
		return result{}, mach, fmt.Errorf("write spans: %w", err)
	}
	if cov := res.Metrics["trace.coverage"].Value; cov < 1-coverageTol || cov > 1+coverageTol {
		return result{}, mach, fmt.Errorf("traced spans cover %.4f of the traced wall time, outside 1±%.2f", cov, coverageTol)
	}
	return res, mach, nil
}

// startLoad builds the workload's seeded generator and client over d
// and replays the stream's prefix through the verdict gate; the load
// then continues the same stream.
func startLoad(d *deployment, wl *workload, seed int64) (f feeder, attempted, bad int, err error) {
	cfg := trafficgen.Config{Seed: seed, Flows: wl.flows}
	if wl.kind == kindWindows {
		jg := trafficgen.NewJobGen(cfg, windowTemplates(d.test))
		attempted, bad, err = gateJobs(d, wl, jg)
		return &jobFeeder{gen: jg, buf: make([]pisa.Job, wl.batch), m: d.served[0]}, attempted, bad, err
	}
	pg := trafficgen.NewPacketGen(cfg, trafficgen.LayoutSeq, 0)
	attempted, bad, err = gatePackets(d, wl, pg)
	return &packetFeeder{gen: pg, buf: make([]pisa.PacketIn, wl.batch), served: d.served}, attempted, bad, err
}

// firesPerItem is the classifier inferences per input: fired windows
// per packet on the packet workloads, and one per job on the job path.
func firesPerItem(k kind, t sessionTotals, items float64) float64 {
	if k == kindWindows {
		return float64(t.cls.Packets) / items
	}
	return float64(t.all.Fires) / items
}

func addRoles(a, b sessionTotals) sessionTotals {
	a.all.Add(b.all)
	a.ext.Add(b.ext)
	a.cls.Add(b.cls)
	return a
}

// gatePackets replays a seeded prefix of the packet stream through
// serve and through the reference, batch by batch. Each batch is served
// by the next model in turn, and that model's verdicts are compared.
func gatePackets(d *deployment, wl *workload, pg *trafficgen.PacketGen) (attempted, bad int, err error) {
	prefix := pg.Packets(wl.gate)
	// The models' references are independent: compute them concurrently.
	refs := make([][]verdict, len(d.zoo))
	errs := make([]error, len(d.zoo))
	var wg sync.WaitGroup
	for i, m := range d.zoo {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refs[i], errs[i] = packetReference(m, wl.slots, prefix)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return 0, 0, fmt.Errorf("reference %s: %w", wl.models[i], err)
		}
	}
	cur := make([]int, len(refs))
	for off, b := 0, 0; off < len(prefix); off, b = off+wl.batch, b+1 {
		end := min(off+wl.batch, len(prefix))
		mi := b % len(d.served)
		var got []verdict
		for _, r := range d.served[mi].RunPackets(prefix[off:end]) {
			got = append(got, verdict{idx: off + r.Pkt, class: r.Class, outs: r.Outs})
		}
		ref := refs[mi]
		for cur[mi] < len(ref) && ref[cur[mi]].idx < off {
			cur[mi]++
		}
		lo := cur[mi]
		for cur[mi] < len(ref) && ref[cur[mi]].idx < end {
			cur[mi]++
		}
		bad += mismatches(got, ref[lo:cur[mi]])
	}
	return len(prefix), bad, nil
}

// gateJobs submits a seeded prefix of the job stream through serve and
// compares every result with RunSwitch on the reference interpreter.
func gateJobs(d *deployment, wl *workload, jg *trafficgen.JobGen) (attempted, bad int, err error) {
	prefix := jg.Jobs(wl.gate)
	ref, err := windowReference(d.zoo[0], wl.slots, prefix)
	if err != nil {
		return 0, 0, fmt.Errorf("reference: %w", err)
	}
	for off := 0; off < len(prefix); off += wl.batch {
		end := min(off+wl.batch, len(prefix))
		t := d.served[0].Submit(prefix[off:end])
		res := t.Wait()
		if t.Err() != nil {
			bad += end - off
			continue
		}
		got := make([]verdict, len(res))
		for i, r := range res {
			got[i] = verdict{idx: off + i, class: r.Class, outs: r.Outs}
		}
		bad += mismatches(got, ref[off:end])
	}
	return len(prefix), bad, nil
}

// endToEnd fills the untraced run's metrics.
func endToEnd(m map[string]metric, wl *workload, setups []setupTimes, plain []chunk, open openResult, attempted, failed int) {
	var setup, pps, cpu []float64
	for _, s := range setups {
		setup = append(setup, s.total.Seconds())
	}
	for _, c := range plain {
		pps = append(pps, c.pps())
		cpu = append(cpu, c.cpuPerItem())
	}
	m["setup_s"] = metric{median(setup), "s"}
	m["pkts_per_s"] = metric{median(pps), "1/s"}
	m["cpu_ns_per_pkt"] = metric{median(cpu), "ns"}
	m["lat_p50_us"] = metric{open.p50(), "us"}
	m["ok_frac"] = metric{1 - float64(failed)/float64(attempted), "frac"}
	m["mem_mb"] = metric{liveHeapMB(), "MB"}
}

// perLayer fills the traced run's metrics.
func perLayer(m map[string]metric, wl *workload, setups []setupTimes, plain, traced []chunk,
	rec *recorder, roles sessionTotals, open openResult, mach machine) {
	med := func(f func(setupTimes) time.Duration) float64 {
		v := make([]float64, len(setups))
		for i, s := range setups {
			v[i] = f(s).Seconds()
		}
		return median(v)
	}
	m["models.train_s"] = metric{med(func(s setupTimes) time.Duration { return s.train }), "s"}
	m["core.compile_s"] = metric{med(func(s setupTimes) time.Duration { return s.compile }), "s"}
	m["core.compile_passes_s"] = metric{med(func(s setupTimes) time.Duration { return s.passes }), "s"}
	m["core.emit_s"] = metric{med(func(s setupTimes) time.Duration { return s.emit }), "s"}
	m["serve.register_ms"] = metric{1e3 * med(func(s setupTimes) time.Duration { return s.register }), "ms"}

	var tc, pc chunk
	var rtPlain rtSample
	for _, c := range traced {
		tc.items += c.items
		tc.wall += c.wall
		tc.fill += c.fill
	}
	for _, c := range plain {
		pc.items += c.items
		pc.wall += c.wall
		pc.fill += c.fill
		rtPlain = rtPlain.add(c.rt)
	}
	items := float64(tc.items)
	calls := sortedNanos(rec.calls)
	var callSum time.Duration
	for _, c := range rec.calls {
		callSum += c
	}
	m["gen.fill_ns_per_pkt"] = metric{float64(tc.fill) / items, "ns"}
	m["serve.call_us_p50"] = metric{float64(quantile(calls, 0.50)) / 1e3, "us"}
	m["serve.call_us_p99"] = metric{float64(quantile(calls, 0.99)) / 1e3, "us"}
	m["serve.submit_us_p50"] = metric{float64(quantile(sortedNanos(rec.submits), 0.50)) / 1e3, "us"}

	all := roles.all
	m["pisa.busy_ns_per_pkt"] = metric{float64(all.Busy) / items, "ns"}
	m["pisa.ext_busy_ns_per_pkt"] = metric{float64(roles.ext.Busy) / items, "ns"}
	clsJobs := 0.0
	if roles.cls.Packets > 0 {
		clsJobs = float64(roles.cls.Busy) / float64(roles.cls.Packets)
	}
	m["pisa.cls_busy_ns_per_job"] = metric{clsJobs, "ns"}
	m["pisa.parallelism"] = metric{float64(all.Busy) / float64(callSum), "x"}
	m["pisa.pool_idle_frac"] = metric{1 - float64(all.Busy)/(float64(callSum)*float64(mach.Budget)), "frac"}
	meanWait := 0.0
	if all.Tasks > 0 {
		meanWait = float64(all.Wait) / float64(all.Tasks) / 1e3
	}
	m["pisa.wait_us_mean"] = metric{meanWait, "us"}
	m["pisa.wait_p99_us"] = metric{float64(waitP99(all.WaitHist)) / 1e3, "us"}
	m["pisa.tasks_per_batch"] = metric{float64(all.Tasks) / float64(len(rec.calls)), "count"}
	m["pisa.queue_depth_mean"] = metric{queueDepthMean(all.QueueHist), "count"}
	m["pisa.rmws_per_pkt"] = metric{float64(all.RegRMWs) / items, "count"}
	m["pisa.fires_per_pkt"] = metric{firesPerItem(wl.kind, roles, items), "count"}
	m["pisa.shed_frac"] = metric{float64(all.Shed) / (items + float64(all.Shed)), "frac"}

	m["rt.allocs_per_pkt"] = metric{float64(rtPlain.mallocs) / float64(pc.items), "count"}
	gc := 0.0
	if rtPlain.avail > 0 {
		gc = rtPlain.gcCPU / rtPlain.avail
	}
	m["rt.gc_cpu_frac"] = metric{gc, "frac"}
	m["rt.cpu_share"] = metric{mach.CPUShare, "frac"}
	m["host.steal_frac"] = metric{mach.StealFrac, "frac"}

	wall := float64(rec.wall)
	m["trace.coverage"] = metric{float64(rec.covered()) / wall, "frac"}
	tracedPPS := items / (tc.wall - tc.fill).Seconds()
	plainPPS := float64(pc.items) / (pc.wall - pc.fill).Seconds()
	m["trace.overhead_frac"] = metric{1 - tracedPPS/plainPPS, "frac"}
	frac := func(name string) float64 { return float64(rec.sum[name]) / wall }
	m["span.gen_fill_frac"] = metric{frac("gen.fill"), "frac"}
	m["span.serve_call_frac"] = metric{frac("serve.call"), "frac"}
	m["span.serve_submit_frac"] = metric{frac("serve.submit"), "frac"}
	m["span.serve_wait_frac"] = metric{frac("serve.wait"), "frac"}
	m["span.trace_stats_frac"] = metric{frac("trace.stats"), "frac"}
	m["span.loop_self_frac"] = metric{1 - float64(rec.covered())/wall, "frac"}

	m["open.lat_p99_us"] = metric{open.p99, "us"}
	m["open.late_us_p99"] = metric{open.lateP99, "us"}
	m["open.backlog_end"] = metric{float64(open.backlog()), "count"}
	m["open.unstable_windows"] = metric{float64(open.unstable()), "count"}
	m["open.samples"] = metric{float64(open.samples), "count"}
	m["rt.peak_rss_mb"] = metric{peakRSSMB(), "MB"}
}
