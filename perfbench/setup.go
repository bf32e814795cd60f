package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/pegasus-idp/pegasus/internal/core"
	"github.com/pegasus-idp/pegasus/internal/datasets"
	"github.com/pegasus-idp/pegasus/internal/models"
	"github.com/pegasus-idp/pegasus/internal/netsim"
	"github.com/pegasus-idp/pegasus/internal/pisa"
	"github.com/pegasus-idp/pegasus/internal/serve"
)

// trainSeed fixes the dataset and every model's weights: the load seed
// varies the traffic only, never the programs under test.
const trainSeed = 1

// seqModel is the part of models.Feedforward and models.RNNB the
// benchmark drives: the three emission forms plus pass diagnostics.
type seqModel interface {
	Emit(flows int) (*core.Emitted, error)
	EmitPackets(flows int) (*core.Emitted, error)
	EmitShared(shared *core.SharedExtraction) (*core.Emitted, error)
	Diagnostics() []core.PassDiag
}

// setupTimes splits one set-up into the layers it passes through.
type setupTimes struct {
	total    time.Duration
	train    time.Duration // models: Train
	compile  time.Duration // core: Compile (lower, fuse, build tables)
	emit     time.Duration // core: emission of the served programs
	register time.Duration // serve: Register of every model
	passes   time.Duration // Σ per-pass walls from Pipeline diagnostics
}

// deployment is one workload's models served through one serve.Server.
type deployment struct {
	srv    *serve.Server
	served []*serve.Model // registration order
	zoo    []seqModel     // trained models, aligned with served
	test   []netsim.Flow  // held-out flows (window templates)
	times  setupTimes
}

// Close stops the server and its worker pool.
func (d *deployment) Close() {
	if err := d.srv.Close(); err != nil {
		fmt.Fprintf(logw, "perfbench: close server: %v\n", err)
	}
}

// trainModel builds, trains and compiles one model of the zoo. The
// dataset and the training budgets are those of the experiment suite's
// default configuration (experiments.Suite.Bundle: PeerRush with 60
// flows per class of 28 packets; CNN-M 60 epochs, CNN-B 80, RNN-B 60 at
// learning rate 0.02).
func trainModel(name string, train []netsim.Flow, k int, st *setupTimes) (seqModel, error) {
	rng := rand.New(rand.NewSource(trainSeed))
	opts := models.TrainOpts{Epochs: 60, Seed: trainSeed}
	t0 := time.Now()
	var m seqModel
	var compile func([]netsim.Flow) error
	switch name {
	case "CNN-M":
		f := models.NewCNNM(k, rng)
		f.Train(train, opts)
		m, compile = f, f.Compile
	case "CNN-B":
		f := models.NewCNNB(k, rng)
		opts.Epochs = 80
		f.Train(train, opts)
		m, compile = f, f.Compile
	case "RNN-B":
		r := models.NewRNNB(k, rng)
		opts.LR = 0.02
		r.Train(train, opts)
		m, compile = r, r.Compile
	default:
		return nil, fmt.Errorf("unknown model %q", name)
	}
	t1 := time.Now()
	if err := compile(train); err != nil {
		return nil, fmt.Errorf("compile %s: %w", name, err)
	}
	st.train += t1.Sub(t0)
	st.compile += time.Since(t1)
	for _, d := range m.Diagnostics() {
		st.passes += d.Wall
	}
	return m, nil
}

// deploy runs one complete set-up for the workload: dataset, training,
// compilation, emission and registration through serve.Server. The
// whole call is what setup_s times.
func deploy(wl *workload, budget int) (*deployment, error) {
	start := time.Now()
	d := &deployment{}
	ds := datasets.PeerRush(datasets.Config{FlowsPerClass: 60, PacketsPerFlow: 28, Seed: trainSeed})
	train, _, test := ds.Split(trainSeed)
	d.test = test
	for _, name := range wl.models {
		m, err := trainModel(name, train, ds.NumClasses(), &d.times)
		if err != nil {
			return nil, err
		}
		d.zoo = append(d.zoo, m)
	}

	t0 := time.Now()
	ems := make([]*core.Emitted, len(d.zoo))
	var err error
	switch wl.kind {
	case kindSolo:
		ems[0], err = d.zoo[0].EmitPackets(wl.slots)
	case kindShared:
		var mach *core.SharedExtraction
		mach, err = sharedMachine(wl.slots)
		for i := 0; err == nil && i < len(d.zoo); i++ {
			ems[i], err = d.zoo[i].EmitShared(mach)
		}
	case kindWindows:
		ems[0], err = d.zoo[0].Emit(wl.slots)
	}
	if err != nil {
		return nil, fmt.Errorf("emit: %w", err)
	}
	d.times.emit = time.Since(t0)

	t0 = time.Now()
	d.srv = serve.NewServer(serve.Options{Name: wl.name, Cap: pisa.Tofino2.Pipes(4), Budget: budget})
	for i, em := range ems {
		m, err := d.srv.Register(wl.models[i], em, 1, serve.SLO{})
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("register %s: %w", wl.models[i], err)
		}
		d.served = append(d.served, m)
	}
	d.times.register = time.Since(t0)
	d.times.total = time.Since(start)
	return d, nil
}

// sharedMachine emits the physically shared sequence-window extraction
// machine the shared workload's classifiers subscribe to.
func sharedMachine(slots int) (*core.SharedExtraction, error) {
	return core.EmitSharedExtraction("px-shared-seq", pisa.Tofino2, models.SharedWindowSpec(core.ExtractSeq), slots)
}

// verdict is one classification: the packet (or job) index it belongs
// to, its class and its output vector.
type verdict struct {
	idx   int
	class int
	outs  []int32
}

// packetReference computes one model's verdicts on a packet prefix
// with the reference interpreter. A model whose fused private prelude
// fits one pipe replays a fresh emission of it on a private
// ExecInterpret packet engine; otherwise (RNN-B) an interpreted private
// extraction machine fires the windows and the model's register-free
// emission classifies each one with RunSwitch. Fresh emissions own
// their registers, so the reference never shares state with serve.
func packetReference(m seqModel, slots int, prefix []pisa.PacketIn) ([]verdict, error) {
	var out []verdict
	if em, err := m.EmitPackets(slots); err == nil {
		eng := em.NewPacketEngine(1, pisa.ExecInterpret)
		defer eng.Close()
		eng.ResetState()
		for _, r := range eng.RunPackets(prefix) {
			out = append(out, verdict{idx: r.Pkt, class: r.Class, outs: append([]int32(nil), r.Outs...)})
		}
		return out, nil
	}
	mach, err := sharedMachine(slots)
	if err != nil {
		return nil, err
	}
	sub, err := m.EmitShared(mach)
	if err != nil {
		return nil, err
	}
	eng := mach.Em.NewPacketEngine(1, pisa.ExecInterpret)
	defer eng.Close()
	eng.ResetState()
	for _, r := range eng.RunPackets(prefix) {
		class, outs := sub.RunSwitch(r.Outs)
		out = append(out, verdict{idx: r.Pkt, class: class, outs: outs})
	}
	return out, nil
}

// windowReference computes the verdicts of the windowed emission on
// each job with RunSwitch, over a fresh emission.
func windowReference(m seqModel, slots int, jobs []pisa.Job) ([]verdict, error) {
	em, err := m.Emit(slots)
	if err != nil {
		return nil, err
	}
	out := make([]verdict, len(jobs))
	for i, j := range jobs {
		class, outs := em.RunSwitch(j.In)
		out[i] = verdict{idx: i, class: class, outs: outs}
	}
	return out, nil
}

// mismatches counts the positions where got and want disagree in
// index, class or outputs, plus any surplus on either side.
func mismatches(got, want []verdict) int {
	n := len(got)
	if len(want) > n {
		n = len(want)
	}
	bad := 0
	for i := 0; i < n; i++ {
		if i >= len(got) || i >= len(want) || !sameVerdict(got[i], want[i]) {
			bad++
		}
	}
	return bad
}

func sameVerdict(a, b verdict) bool {
	if a.idx != b.idx || a.class != b.class || len(a.outs) != len(b.outs) {
		return false
	}
	for i := range a.outs {
		if a.outs[i] != b.outs[i] {
			return false
		}
	}
	return true
}

// windowTemplates returns the held-out flows' sequence windows as the
// integer input vectors the windowed emission consumes.
func windowTemplates(test []netsim.Flow) [][]int32 {
	xs, _ := models.ExtractSeq(test)
	out := make([][]int32, len(xs))
	for i, x := range xs {
		v := make([]int32, len(x))
		for j, f := range x {
			v[j] = int32(math.RoundToEven(f))
		}
		out[i] = v
	}
	return out
}
