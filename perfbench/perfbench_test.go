package main

import (
	"runtime"
	"testing"
	"time"

	"github.com/pegasus-idp/pegasus/internal/faultinject"
)

// workloadByName returns the named workload of the benchmark's table.
func workloadByName(t *testing.T, name string) *workload {
	t.Helper()
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	t.Fatalf("no workload %q", name)
	return nil
}

// testGate is the verdict-checked prefix the self-test replays: one item
// per live flow, shorter than the benchmark's so the tests stay quick.
const testGate = liveFlows

// deployed deploys the named workload, replays a testGate-item prefix
// through the verdict gate, and returns the deployment and its load.
func deployed(t *testing.T, name string, seed int64) (*workload, *deployment, feeder) {
	t.Helper()
	wl := *workloadByName(t, name)
	wl.gate = testGate
	d, err := deploy(&wl, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	f, _, bad, err := startLoad(d, &wl, seed)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("%s: %d verdicts differ from the reference", name, bad)
	}
	return &wl, d, f
}

// perItem drives a fixed number of closed-loop batches after the gate
// and returns the exact per-item fire and register-RMW counts the traced
// run reports as pisa.fires_per_pkt and pisa.rmws_per_pkt.
func perItem(t *testing.T, name string, seed int64, batches int) (fires, rmws float64) {
	t.Helper()
	wl, d, f := deployed(t, name, seed)
	sched := d.srv.Scheduler()
	before := sched.Stats()
	for i := 0; i < batches; i++ {
		f.fill(wl.batch)
		f.submit(wl.batch)
		if !f.wait() {
			t.Fatalf("%s: batch %d failed", name, i)
		}
	}
	tot := rolesOf(wl.kind, before, sched.Stats())
	items := float64(batches * wl.batch)
	return firesPerItem(wl.kind, tot, items), float64(tot.all.RegRMWs) / items
}

// TestCountsRepeat pins that one seed yields identical fire and RMW
// counts on every run, so a change in them is a change in the program.
func TestCountsRepeat(t *testing.T) {
	for _, name := range []string{"pkt-solo-seq", "pkt-shared3-seq"} {
		f1, r1 := perItem(t, name, 7, 4)
		f2, r2 := perItem(t, name, 7, 4)
		if f1 != f2 || r1 != r2 {
			t.Errorf("%s: seed 7 gave fires/pkt %v then %v, rmws/pkt %v then %v", name, f1, f2, r1, r2)
		}
		if f1 <= 0 || r1 <= 0 {
			t.Errorf("%s: fires/pkt %v, rmws/pkt %v; want both positive", name, f1, r1)
		}
	}
}

// TestWindowsPayNoRMWs pins that the job path runs the classifier
// tables only: no register RMWs, one inference per job.
func TestWindowsPayNoRMWs(t *testing.T) {
	fires, rmws := perItem(t, "win-batch-cnnm", 3, 4)
	if rmws != 0 || fires != 1 {
		t.Fatalf("win-batch-cnnm: rmws/job %v, fires/job %v; want 0 and 1", rmws, fires)
	}
}

// TestSharedPaysOnePrelude pins physical sharing: three subscribers on
// one machine pay exactly the register RMWs of one private prelude, and
// fire on exactly the same packets, on the same stream.
func TestSharedPaysOnePrelude(t *testing.T) {
	soloF, soloR := perItem(t, "pkt-solo-seq", 11, 4)
	sharedF, sharedR := perItem(t, "pkt-shared3-seq", 11, 4)
	if sharedR != soloR || sharedF != soloF {
		t.Fatalf("shared3 rmws/pkt %v fires/pkt %v, solo %v and %v; want equal", sharedR, sharedF, soloR, soloF)
	}
}

// TestOpenLoopFlagsBacklog pins the open-loop validity rule: a client
// far slower than the offered rate falls behind in every window, and
// the phase is refused instead of averaged in.
func TestOpenLoopFlagsBacklog(t *testing.T) {
	res := openLoop(slowFeeder{}, 1e6, 4, 200*time.Millisecond, 4)
	if res.valid() == nil || res.unstable() != len(res.windows) {
		t.Fatalf("overloaded open loop not refused: %+v", res.windows)
	}
	if res.backlog() <= 0 {
		t.Fatalf("overloaded open loop reports no backlog (due %d, sent %d)", res.due, res.sent)
	}
}

// TestPoisonedSessionFails pins the failure audit: a healthy interval
// reports no failures, and once a plan panic poisons a served session —
// the fused private prelude, a shared machine's subscriber, or the
// windowed model — every item sent counts as failed.
func TestPoisonedSessionFails(t *testing.T) {
	defer faultinject.Reset()
	for _, c := range []struct{ workload, session string }{
		{"pkt-solo-seq", "CNN-M@v1"},
		{"pkt-shared3-seq", "CNN-B@v1"},
		{"win-batch-cnnm", "CNN-M@v1"},
	} {
		wl, d, f := deployed(t, c.workload, 5)
		aud := newAuditor(d, wl.kind)
		aud.mark()
		ok := closedChunk(f, wl.batch, 50*time.Millisecond, nil)
		if n := aud.failed(ok.items); n != 0 || ok.failed != 0 {
			t.Errorf("%s: healthy chunk reports %d (audit) and %d (calls) of %d items failed", c.workload, n, ok.failed, ok.items)
		}
		faultinject.Arm(faultinject.PanicSession, c.session, 0, 1)
		bad := closedChunk(f, wl.batch, 50*time.Millisecond, nil)
		faultinject.Reset()
		if n := aud.failed(bad.items); n != bad.items {
			t.Errorf("%s: after poisoning %s the audit counts %d of %d items failed", c.workload, c.session, n, bad.items)
		}
	}
}

// slowFeeder serves at most a few items per millisecond.
type slowFeeder struct{}

func (slowFeeder) fill(int) {}

func (slowFeeder) submit(int) { time.Sleep(time.Millisecond) }

func (slowFeeder) wait() bool { return true }
