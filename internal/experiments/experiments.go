// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) on the synthetic substrate: Table 2 (headline), Table
// 5 (accuracy), Table 6 (hardware resources), Figure 7 (per-flow
// storage), Figure 8 (ROC/AUC), and Figure 9 (fuzzy vs full precision,
// throughput). Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/pegasus-idp/pegasus/internal/baselines/bos"
	"github.com/pegasus-idp/pegasus/internal/baselines/leo"
	"github.com/pegasus-idp/pegasus/internal/baselines/n3ic"
	"github.com/pegasus-idp/pegasus/internal/core"
	"github.com/pegasus-idp/pegasus/internal/datasets"
	"github.com/pegasus-idp/pegasus/internal/metrics"
	"github.com/pegasus-idp/pegasus/internal/models"
	"github.com/pegasus-idp/pegasus/internal/netsim"
	"github.com/pegasus-idp/pegasus/internal/pisa"
	"github.com/pegasus-idp/pegasus/internal/tensor"
	"github.com/pegasus-idp/pegasus/internal/trafficgen"
)

// Config scales the experiment suite.
type Config struct {
	// FlowsPerClass controls dataset size (default 60; the quick preset
	// used by benchmarks).
	FlowsPerClass int
	// Epochs scales every model's training budget (1.0 = default).
	Epochs float64
	Seed   int64
	// MeasureMS is the wall-time window per throughput measurement
	// (default 300; CI smoke mode shrinks it).
	MeasureMS int
	// EngineJSON, when set, is where the "engine" experiment writes its
	// machine-readable report (BENCH_engine.json).
	EngineJSON string
}

func (c *Config) defaults() {
	if c.FlowsPerClass == 0 {
		c.FlowsPerClass = 60
	}
	if c.Epochs == 0 {
		c.Epochs = 1
	}
	if c.MeasureMS == 0 {
		c.MeasureMS = 300
	}
}

func (c *Config) ep(base int) int {
	n := int(float64(base) * c.Epochs)
	if n < 2 {
		n = 2
	}
	return n
}

// bundle holds everything trained on one dataset.
type bundle struct {
	ds          *datasets.Dataset
	train, test []netsim.Flow
	k           int
	leo         *leo.Model
	n3ic        *n3ic.Model
	bosM        *bos.Model
	mlp         *models.Feedforward
	cnnb        *models.Feedforward
	cnnm        *models.Feedforward
	rnnb        *models.RNNB
	cnnl        *models.CNNL
	ae          *models.AutoEncoder
}

// Suite trains the full model zoo once per dataset and serves every
// experiment from the shared bundles.
type Suite struct {
	Cfg     Config
	bundles map[string]*bundle
}

// NewSuite prepares an empty suite.
func NewSuite(cfg Config) *Suite {
	cfg.defaults()
	return &Suite{Cfg: cfg, bundles: map[string]*bundle{}}
}

// Bundle trains (once) and returns the bundle for a dataset.
func (s *Suite) Bundle(name string) (*bundle, error) {
	if b, ok := s.bundles[name]; ok {
		return b, nil
	}
	ds, ok := datasets.ByName(name, datasets.Config{
		FlowsPerClass: s.Cfg.FlowsPerClass, PacketsPerFlow: 28, Seed: s.Cfg.Seed + 101,
	})
	if !ok {
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
	train, _, test := ds.Split(s.Cfg.Seed + 7)
	b := &bundle{ds: ds, train: train, test: test, k: ds.NumClasses()}
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 13))
	c := &s.Cfg

	b.leo = leo.New(b.k, 256, rng)
	if err := b.leo.Train(train); err != nil {
		return nil, err
	}
	b.n3ic = n3ic.New(b.k, rng)
	b.n3ic.Train(train, c.ep(60), s.Cfg.Seed)
	b.bosM = bos.New(b.k, rng)
	b.bosM.Train(train, c.ep(60), s.Cfg.Seed)
	b.bosM.Compile()

	b.mlp = models.NewMLPB(b.k, rng)
	b.mlp.Train(train, models.TrainOpts{Epochs: c.ep(60), Seed: s.Cfg.Seed})
	if err := b.mlp.Compile(train); err != nil {
		return nil, err
	}
	b.cnnb = models.NewCNNB(b.k, rng)
	b.cnnb.Train(train, models.TrainOpts{Epochs: c.ep(80), Seed: s.Cfg.Seed})
	if err := b.cnnb.Compile(train); err != nil {
		return nil, err
	}
	b.cnnm = models.NewCNNM(b.k, rng)
	b.cnnm.Train(train, models.TrainOpts{Epochs: c.ep(60), Seed: s.Cfg.Seed})
	if err := b.cnnm.Compile(train); err != nil {
		return nil, err
	}
	if _, err := b.cnnm.Refine(train, core.RefineConfig{Epochs: 6, LR: 0.05}); err != nil {
		return nil, err
	}
	b.rnnb = models.NewRNNB(b.k, rng)
	b.rnnb.Train(train, models.TrainOpts{Epochs: c.ep(60), LR: 0.02, Seed: s.Cfg.Seed})
	if err := b.rnnb.Compile(train); err != nil {
		return nil, err
	}
	b.cnnl = models.NewCNNL(b.k, true, 4, rng)
	b.cnnl.Train(train, models.TrainOpts{Epochs: c.ep(10), LR: 0.01, Seed: s.Cfg.Seed})
	if err := b.cnnl.Compile(train, 2000); err != nil {
		return nil, err
	}
	b.cnnl.Refine(train, 4, 0.05)

	b.ae = models.NewAutoEncoder(b.rnnb.Emb, rng)
	b.ae.Train(train, models.TrainOpts{Epochs: c.ep(60), LR: 0.005, Seed: s.Cfg.Seed})
	if err := b.ae.Compile(train); err != nil {
		return nil, err
	}
	s.bundles[name] = b
	return b, nil
}

// Row is one Table 5 line for one dataset.
type Row struct {
	Method    string
	InputBits int
	ModelKb   float64
	Reports   map[string]metrics.Report
}

// Table5 regenerates the accuracy comparison across all methods and
// datasets.
func (s *Suite) Table5(w io.Writer) error {
	rows := []Row{}
	order := []string{"Leo", "N3IC", "MLP-B", "BoS", "RNN-B", "CNN-B", "CNN-M", "CNN-L"}
	for _, m := range order {
		rows = append(rows, Row{Method: m, Reports: map[string]metrics.Report{}})
	}
	for _, dsName := range datasets.Names {
		b, err := s.Bundle(dsName)
		if err != nil {
			return err
		}
		evals := map[string]func() (metrics.Report, error){
			"Leo":   func() (metrics.Report, error) { return b.leo.Evaluate(b.test, b.k) },
			"N3IC":  func() (metrics.Report, error) { return b.n3ic.Evaluate(b.test, b.k) },
			"BoS":   func() (metrics.Report, error) { return b.bosM.Evaluate(b.test, b.k) },
			"MLP-B": func() (metrics.Report, error) { return b.mlp.EvalPegasus(b.test, b.k) },
			"RNN-B": func() (metrics.Report, error) { return b.rnnb.EvalPegasus(b.test, b.k) },
			"CNN-B": func() (metrics.Report, error) { return b.cnnb.EvalPegasus(b.test, b.k) },
			"CNN-M": func() (metrics.Report, error) { return b.cnnm.EvalPegasus(b.test, b.k) },
			"CNN-L": func() (metrics.Report, error) { return b.cnnl.EvalPegasus(b.test, b.k) },
		}
		for i := range rows {
			rep, err := evals[rows[i].Method]()
			if err != nil {
				return err
			}
			rows[i].Reports[dsName] = rep
		}
	}
	// Metadata columns.
	meta := map[string][2]float64{ // input bits, model Kb
		"Leo":   {128, 0},
		"N3IC":  {128, kb(mustBundle(s).n3ic.ModelSizeBits())},
		"MLP-B": {128, kb(mustBundle(s).mlp.ModelSizeBits())},
		"BoS":   {18, kb(mustBundle(s).bosM.ModelSizeBits())},
		"RNN-B": {128, kb(mustBundle(s).rnnb.ModelSizeBits())},
		"CNN-B": {128, kb(mustBundle(s).cnnb.ModelSizeBits())},
		"CNN-M": {128, kb(mustBundle(s).cnnm.ModelSizeBits())},
		"CNN-L": {3840, kb(mustBundle(s).cnnl.ModelSizeBits())},
	}
	fmt.Fprintf(w, "Table 5: classification accuracy (PR/RC/F1 per dataset)\n")
	fmt.Fprintf(w, "%-7s %9s %9s", "Method", "Input(b)", "Size(Kb)")
	for _, d := range datasets.Names {
		fmt.Fprintf(w, " | %-23s", d)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		m := meta[r.Method]
		fmt.Fprintf(w, "%-7s %9.0f %9.1f", r.Method, m[0], m[1])
		for _, d := range datasets.Names {
			rep := r.Reports[d]
			fmt.Fprintf(w, " | %.4f %.4f %.4f", rep.Precision, rep.Recall, rep.F1)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func kb(bits int) float64 { return float64(bits) / 1024 }

// mustBundle returns any already-trained bundle (Table5 metadata is
// dataset independent).
func mustBundle(s *Suite) *bundle {
	for _, b := range s.bundles {
		return b
	}
	panic("experiments: no bundle trained")
}

// Table2 derives the headline comparison (average F1 improvement, model
// size and input-scale ratios of CNN-L vs each prior work).
func (s *Suite) Table2(w io.Writer) error {
	if err := s.Table5(io.Discard); err != nil {
		return err
	}
	avg := func(name string) float64 {
		t := 0.0
		for _, d := range datasets.Names {
			b := s.bundles[d]
			var rep metrics.Report
			switch name {
			case "Leo":
				rep, _ = b.leo.Evaluate(b.test, b.k)
			case "N3IC":
				rep, _ = b.n3ic.Evaluate(b.test, b.k)
			case "BoS":
				rep, _ = b.bosM.Evaluate(b.test, b.k)
			case "CNN-L":
				rep, _ = b.cnnl.EvalPegasus(b.test, b.k)
			}
			t += rep.F1
		}
		return t / float64(len(datasets.Names))
	}
	b := mustBundle(s)
	cl := avg("CNN-L")
	fmt.Fprintf(w, "Table 2: Pegasus (CNN-L) vs prior works\n")
	fmt.Fprintf(w, "%-18s %10s %10s %10s\n", "Prior work", "Acc. ↑", "Size ×", "Input ×")
	fmt.Fprintf(w, "%-18s %9.1f%% %10s %10s\n", "Leo (tree)", 100*(cl-avg("Leo")), "-", "-")
	fmt.Fprintf(w, "%-18s %9.1f%% %9.1fx %9.1fx\n", "N3IC (bin MLP)",
		100*(cl-avg("N3IC")),
		float64(b.cnnl.ModelSizeBits())/float64(b.n3ic.ModelSizeBits()),
		float64(b.cnnl.InputScaleBits())/float64(b.n3ic.InputScaleBits()))
	fmt.Fprintf(w, "%-18s %9.1f%% %9.1fx %9.1fx\n", "BoS (bin RNN)",
		100*(cl-avg("BoS")),
		float64(b.cnnl.ModelSizeBits())/float64(b.bosM.ModelSizeBits()),
		float64(b.cnnl.InputScaleBits())/float64(b.bosM.InputScaleBits()))
	return nil
}

// Table6 regenerates the hardware resource comparison.
func (s *Suite) Table6(w io.Writer) error {
	b, err := s.Bundle("PeerRush")
	if err != nil {
		return err
	}
	const flows = 1 << 16
	type rowT struct {
		name string
		bits int
		res  pisa.Resources
		cap  pisa.Capacity // the emitting program's own capacity
	}
	var rows []rowT
	if prog, err := b.leo.Emit(flows); err == nil {
		rows = append(rows, rowT{"Leo", b.leo.FlowStateBits(), prog.Resources(), prog.Cap})
	} else {
		return fmt.Errorf("leo emit: %v", err)
	}
	// BoS: exhaustive tables, SRAM only (no TCAM). There is no emitted
	// program, so utilisation is reported against the default target.
	bosSRAM := b.bosM.TableEntries() * (11 + 8) // key+state bits per entry
	rows = append(rows, rowT{"BoS", b.bosM.FlowStateBits(),
		pisa.Resources{SRAMBits: bosSRAM, RegBits: b.bosM.FlowStateBits() * flows, PeakBusBits: 8},
		core.DefaultTarget().Capacity()})
	emit := func(name string, em *core.Emitted, errE error, bits int) error {
		if errE != nil {
			return fmt.Errorf("%s emit: %v", name, errE)
		}
		rows = append(rows, rowT{name, bits, em.Resources(), em.Capacity()})
		return nil
	}
	em, errE := b.mlp.Emit(flows)
	if err := emit("MLP-B", em, errE, b.mlp.FlowStateBits); err != nil {
		return err
	}
	em, errE = b.rnnb.Emit(flows)
	if err := emit("RNN-B", em, errE, b.rnnb.FlowStateBits()); err != nil {
		return err
	}
	em, errE = b.cnnb.Emit(flows)
	if err := emit("CNN-B", em, errE, b.cnnb.FlowStateBits); err != nil {
		return err
	}
	em, errE = b.cnnm.Emit(flows)
	if err := emit("CNN-M", em, errE, b.cnnm.FlowStateBits); err != nil {
		return err
	}
	em, errE = b.cnnl.Emit(flows)
	if err := emit("CNN-L", em, errE, b.cnnl.FlowStateBits()); err != nil {
		return err
	}
	em, errE = b.ae.Emit(flows)
	if err := emit("AutoEncoder", em, errE, b.ae.FlowStateBits()); err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 6: hardware resource utilisation (%d concurrent flows)\n", flows)
	fmt.Fprintf(w, "%-12s %14s %8s %8s %8s\n", "Model", "Stateful b/flow", "SRAM%", "TCAM%", "Bus%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %14d %7.2f%% %7.2f%% %7.2f%%\n", r.name, r.bits,
			100*r.res.SRAMFrac(r.cap), 100*r.res.TCAMFrac(r.cap),
			100*r.res.BusFrac(r.cap))
	}
	return nil
}

// Figure7 regenerates the per-flow storage sweep: the three CNN-L
// variants' F1 per dataset plus the SRAM needed for 1M flows.
func (s *Suite) Figure7(w io.Writer) error {
	variants := []struct {
		useIPD  bool
		idxBits int
	}{
		{false, 4}, // 28 bits/flow
		{true, 4},  // 44 bits/flow
		{true, 8},  // 72 bits/flow
	}
	fmt.Fprintf(w, "Figure 7: per-flow storage vs accuracy (1M flows)\n")
	fmt.Fprintf(w, "%-10s %10s", "bits/flow", "SRAM(1M)")
	for _, d := range datasets.Names {
		fmt.Fprintf(w, " %10s", d)
	}
	fmt.Fprintln(w)
	for _, v := range variants {
		var bitsPerFlow int
		var f1s []float64
		for _, dsName := range datasets.Names {
			b, err := s.Bundle(dsName)
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(s.Cfg.Seed + 31))
			m := models.NewCNNL(b.k, v.useIPD, v.idxBits, rng)
			m.Train(b.train, models.TrainOpts{Epochs: s.Cfg.ep(10), LR: 0.01, Seed: s.Cfg.Seed})
			if err := m.Compile(b.train, 2000); err != nil {
				return err
			}
			m.Refine(b.train, 4, 0.05)
			rep, err := m.EvalPegasus(b.test, b.k)
			if err != nil {
				return err
			}
			f1s = append(f1s, rep.F1)
			bitsPerFlow = m.FlowStateBits()
		}
		// Register bytes for 1M flows: bits padded to 8-bit registers,
		// reported against the default emission target's SRAM budget.
		cap := core.DefaultTarget().Capacity()
		sramPct := 100 * float64(((bitsPerFlow+7)/8)*8*1_000_000) /
			float64(cap.SRAMBitsPerStage*cap.Stages)
		fmt.Fprintf(w, "%-10d %9.1f%%", bitsPerFlow, sramPct)
		for _, f1 := range f1s {
			fmt.Fprintf(w, " %10.4f", f1)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Figure8 regenerates the ROC/AUC matrix: AutoEncoder vs six attack
// families across the three datasets.
func (s *Suite) Figure8(w io.Writer) error {
	fmt.Fprintf(w, "Figure 8: AutoEncoder AUC per attack family\n")
	fmt.Fprintf(w, "%-8s", "Attack")
	for _, d := range datasets.Names {
		fmt.Fprintf(w, " %10s", d)
	}
	fmt.Fprintln(w)
	for _, atk := range datasets.AllAttacks {
		fmt.Fprintf(w, "%-8s", atk)
		for _, dsName := range datasets.Names {
			b, err := s.Bundle(dsName)
			if err != nil {
				return err
			}
			mixed := datasets.MixAttack(b.test, atk, s.Cfg.Seed+41)
			scores, anom, err := b.ae.ScorePegasus(mixed)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %10.4f", metrics.AUCFromScores(scores, anom))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Figure9Accuracy compares Pegasus (fuzzy fixed-point) against the
// full-precision CPU/GPU implementation for every model and dataset.
func (s *Suite) Figure9Accuracy(w io.Writer) error {
	fmt.Fprintf(w, "Figure 9a-c: Pegasus vs full-precision macro-F1\n")
	fmt.Fprintf(w, "%-8s %-10s %10s %10s %8s\n", "Dataset", "Model", "Pegasus", "CPU/GPU", "Δ")
	for _, dsName := range datasets.Names {
		b, err := s.Bundle(dsName)
		if err != nil {
			return err
		}
		type pair struct {
			name string
			peg  func() (metrics.Report, error)
			full func() (metrics.Report, error)
		}
		pairs := []pair{
			{"MLP-B", func() (metrics.Report, error) { return b.mlp.EvalPegasus(b.test, b.k) },
				func() (metrics.Report, error) { return b.mlp.EvalFull(b.test, b.k) }},
			{"RNN-B", func() (metrics.Report, error) { return b.rnnb.EvalPegasus(b.test, b.k) },
				func() (metrics.Report, error) { return b.rnnb.EvalFull(b.test, b.k) }},
			{"CNN-B", func() (metrics.Report, error) { return b.cnnb.EvalPegasus(b.test, b.k) },
				func() (metrics.Report, error) { return b.cnnb.EvalFull(b.test, b.k) }},
			{"CNN-M", func() (metrics.Report, error) { return b.cnnm.EvalPegasus(b.test, b.k) },
				func() (metrics.Report, error) { return b.cnnm.EvalFull(b.test, b.k) }},
			{"CNN-L", func() (metrics.Report, error) { return b.cnnl.EvalPegasus(b.test, b.k) },
				func() (metrics.Report, error) { return b.cnnl.EvalFull(b.test, b.k) }},
		}
		for _, p := range pairs {
			pr, err := p.peg()
			if err != nil {
				return err
			}
			fr, err := p.full()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-8s %-10s %10.4f %10.4f %+7.4f\n", dsName, p.name, pr.F1, fr.F1, pr.F1-fr.F1)
		}
	}
	return nil
}

// Figure9Throughput compares inference throughput: the simulated switch
// at line rate versus measured CPU full-precision inference and a
// modelled multi-GPU deployment (DESIGN.md documents the substitution).
// It also measures the switch *simulator* itself — sequential RunSwitch
// versus the batched flow-sharded pisa.Engine — so the replay harness's
// own scaling is visible.
func (s *Suite) Figure9Throughput(w io.Writer) error {
	b, err := s.Bundle("PeerRush")
	if err != nil {
		return err
	}
	xs, _ := models.ExtractSeq(b.test)
	mat := tensor.New(len(xs), models.Window*2)
	for i, x := range xs {
		copy(mat.Row(i), x)
	}
	mat.Scale(1.0 / 32)
	window := time.Duration(s.Cfg.MeasureMS) * time.Millisecond
	// Measure single-thread CPU samples/s on CNN-B full precision.
	start := time.Now()
	iters := 0
	for time.Since(start) < window {
		b.cnnb.Net.Predict(mat)
		iters++
	}
	cpu1 := float64(iters*mat.R) / time.Since(start).Seconds()
	cores := float64(runtime.NumCPU())
	cpu := cpu1 * cores // multi-threaded upper bound (paper pre-loads all cores)
	// GPU model: four V100s at a documented batched-speedup factor over
	// the full CPU socket (survey-calibrated 6×/GPU for small MLP/CNN
	// inference).
	gpu := cpu * 6 * 4
	sw := pisa.LineRatePPS

	// Simulator throughput: replay the test windows through the emitted
	// CNN-B program — the table interpreter at 1 worker (the historical
	// baseline), the compiled execution plan at 1 worker and at all
	// cores, and the streaming entry point feeding the same pool.
	em, err := b.cnnb.Emit(1 << 10)
	if err != nil {
		return err
	}
	jobs := core.BatchJobsFromFloats(xs)
	measure := func(workers int, mode pisa.ExecMode) (float64, int) {
		eng := em.NewEngineMode(workers, mode)
		defer eng.Close()
		start := time.Now()
		n := 0
		for time.Since(start) < window {
			eng.RunBatch(jobs)
			n += len(jobs)
		}
		return float64(n) / time.Since(start).Seconds(), eng.Workers()
	}
	measureStream := func(workers int) float64 {
		eng := em.NewEngine(workers)
		defer eng.Close()
		in := make(chan pisa.Job, 1024)
		out := make(chan pisa.Result, 1024)
		start := time.Now()
		go func() {
			for time.Since(start) < window {
				for _, j := range jobs {
					in <- j
				}
			}
			close(in)
		}()
		go eng.RunStream(in, out)
		n := 0
		for range out {
			n++
		}
		return float64(n) / time.Since(start).Seconds()
	}
	interp1, _ := measure(1, pisa.ExecInterpret)
	sim1, _ := measure(1, pisa.ExecCompiled)
	simN, workersN := measure(runtime.NumCPU(), pisa.ExecCompiled)
	streamN := measureStream(runtime.NumCPU())

	fmt.Fprintf(w, "Figure 9d: throughput (samples/s)\n")
	fmt.Fprintf(w, "%-22s %14.3g\n", "Pegasus (switch)", sw)
	fmt.Fprintf(w, "%-22s %14.3g (modelled: %d cores × 24)\n", "GPU (4x, modelled)", gpu, runtime.NumCPU())
	fmt.Fprintf(w, "%-22s %14.3g (measured, %d cores)\n", "CPU", cpu, runtime.NumCPU())
	fmt.Fprintf(w, "switch/CPU = %.0fx   switch/GPU = %.0fx\n", sw/cpu, sw/gpu)
	fmt.Fprintf(w, "%-22s %14.3g (measured, 1 worker)\n", "sim replay (interp)", interp1)
	fmt.Fprintf(w, "%-22s %14.3g (measured, 1 worker, %.1fx over interp)\n",
		"sim replay (compiled)", sim1, sim1/interp1)
	fmt.Fprintf(w, "%-22s %14.3g (measured, %d workers, %.1fx)\n",
		"sim replay (engine)", simN, workersN, simN/sim1)
	fmt.Fprintf(w, "%-22s %14.3g (measured, %d workers, streaming)\n",
		"sim replay (stream)", streamN, workersN)
	return nil
}

// EngineBenchPoint is one (mode, worker count) cell's measured replay
// throughput. Speedup is relative to the interpreted 1-worker baseline,
// so the compiled-plan gain and the sharding gain are both visible in
// one trend.
type EngineBenchPoint struct {
	Mode          string  `json:"mode"` // "interpreted" or "compiled"
	Workers       int     `json:"workers"`
	PacketsPerSec float64 `json:"packets_per_sec"`
	Speedup       float64 `json:"speedup"` // vs interpreted, 1 worker
}

// EngineBenchReport is the machine-readable BENCH_engine.json payload:
// batched switch-replay throughput of pisa.Engine per execution mode
// and worker count (the before/after evidence for the compile-to-plan
// optimisation).
type EngineBenchReport struct {
	Model     string             `json:"model"`
	Target    string             `json:"target"`
	BatchSize int                `json:"batch_size"`
	MeasureMS int                `json:"measure_ms"`
	Points    []EngineBenchPoint `json:"points"`
	// PacketPoints measures the raw-trace per-packet path: the merged
	// packet trace replayed through the extraction emission
	// (RunPackets, compiled plans), in raw packets/s — every packet
	// pays the flow-state register RMWs, and inference fires only on
	// window boundaries. Speedup is relative to the 1-worker packet
	// baseline.
	PacketPoints []EngineBenchPoint `json:"packet_points,omitempty"`
	// PacketMachine is the host PacketPoints were measured on.
	PacketMachine *machineInfo `json:"packet_machine,omitempty"`
	// TracePackets is the raw trace length behind PacketPoints.
	TracePackets int `json:"trace_packets,omitempty"`
	// MultiModelPoints measures concurrent multi-model serving: every
	// model replayed solo on its own pool, then all models co-resident
	// on one shared-budget pisa.Scheduler (the "multimodel"
	// experiment). Share is shared/solo throughput; Occupancy the
	// model's fraction of the shared pool's worker time.
	MultiModelPoints []MultiModelPoint `json:"multimodel_points,omitempty"`
	// MultiModelBudget is the shared scheduler's worker budget behind
	// MultiModelPoints.
	MultiModelBudget int `json:"multimodel_budget,omitempty"`
	// ScalingPoints measures steady-state worker scaling under
	// sustained synthetic load (the "scaling" experiment): the traffic
	// generator refills a fixed batch between replays, so the pool
	// never drains and each point is a true steady-state throughput,
	// not batch-overhead amortisation. Modes: "compiled" feature-window
	// jobs, "packets" raw per-packet replay. Speedup is relative to
	// each mode's own 1-worker point.
	ScalingPoints []EngineBenchPoint `json:"scaling_points,omitempty"`
	// ScalingMeta records the measurement conditions behind
	// ScalingPoints; CI gates its scaling assertion on GoMaxProcs so a
	// 1-CPU box cannot fail (or trivially pass) the multi-worker floor.
	ScalingMeta *ScalingMeta `json:"scaling_meta,omitempty"`
	// ServingPoints measures the serving control plane (the "serving"
	// experiment): admission latency, live-swap downtime with the
	// co-resident throughput dip, and SLO occupancy convergence.
	ServingPoints *ServingReport `json:"serving_points,omitempty"`
	// ResiliencePoints measures overload protection and failure
	// recovery (the "resilience" experiment): shed rate vs offered
	// load with the admitted-work wait bound, and the poisoned-canary
	// rollback detection latency with its post-rollback equivalence
	// check.
	ResiliencePoints *ResilienceReport `json:"resilience_points,omitempty"`
	// SharedExtractionPoints measures physically shared extraction (the
	// "sharedext" experiment): N co-resident packet models replaying the
	// same raw trace with private per-model preludes versus one shared
	// extraction machine fanning fired windows out to N pure-
	// combinational subscribers. PacketsPerSec counts trace packets
	// served to ALL N models per second; RMWsPerPacket is the register
	// read-modify-writes each trace packet costs across every session.
	SharedExtractionPoints []SharedExtractionPoint `json:"shared_extraction_points,omitempty"`
	// SharedExtractionMachine is the host SharedExtractionPoints were
	// measured on.
	SharedExtractionMachine *machineInfo `json:"shared_extraction_machine,omitempty"`
}

// machineInfo records the host a series was measured on: a worker-count
// axis means nothing without the cores behind it.
type machineInfo struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
}

// hostMachine describes the current host; the CPU model comes from
// /proc/cpuinfo where it exists.
func hostMachine() *machineInfo {
	m := &machineInfo{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), CPU: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// SharedExtractionPoint is one (co-resident model count, sharing mode)
// cell of the shared-extraction experiment.
type SharedExtractionPoint struct {
	Models  int    `json:"models"`
	Mode    string `json:"mode"` // "private" or "shared"
	Workers int    `json:"workers"`
	// PacketsPerSec is trace packets fully served (reaching all N
	// models) per second — private mode divides the pool's aggregate by
	// N, shared mode counts the machine's packets directly.
	PacketsPerSec float64 `json:"packets_per_sec"`
	// RMWsPerPacket is total register RMWs across all sessions divided
	// by fully-served packets: ~N preludes' worth in private mode, ~one
	// prelude's worth in shared mode (subscribers execute none).
	RMWsPerPacket float64 `json:"rmws_per_packet"`
	// Speedup is shared/private pkt/s at the same model count (set on
	// shared points only).
	Speedup float64 `json:"speedup,omitempty"`
}

// ScalingMeta describes how the scaling experiment measured its points.
type ScalingMeta struct {
	BatchSize  int `json:"batch_size"`
	WarmupMS   int `json:"warmup_ms"`
	MeasureMS  int `json:"measure_ms"`
	Flows      int `json:"flows"` // live-flow population in the generator
	GoMaxProcs int `json:"gomaxprocs"`
	// Points carries per-point measurement evidence: the achieved
	// parallelism (worker busy-share summed over the pool during the
	// window — ~1.0 means the point ran effectively single-core no
	// matter the worker count) and the heap allocations per replay op.
	// A flat worker axis with parallelism pinned at ~1 is a 1-CPU box,
	// not a scaling regression; that distinction is recorded here so
	// committed tables are self-explaining.
	Points []ScalingPointMeta `json:"points,omitempty"`
}

// ScalingPointMeta is the measurement evidence behind one scaling point.
type ScalingPointMeta struct {
	Mode    string `json:"mode"`
	Workers int    `json:"workers"`
	// Parallelism is Σ worker-busy time / wall time over the measure
	// window: the cores the point actually used, bounded by GOMAXPROCS.
	Parallelism float64 `json:"parallelism"`
	// AllocsPerOp is heap allocations per replay op (one generated
	// batch) during the window — the scheduler/result-path overhead
	// that must not grow with worker count.
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// MultiModelPoint is one model's throughput in one serving mode of the
// multimodel experiment.
type MultiModelPoint struct {
	Model         string  `json:"model"`
	Mode          string  `json:"mode"` // "solo" or "shared"
	Workers       int     `json:"workers"`
	PacketsPerSec float64 `json:"packets_per_sec"`
	Share         float64 `json:"share,omitempty"`     // shared pps / solo pps
	Occupancy     float64 `json:"occupancy,omitempty"` // busy / (wall × budget)
}

// engineModel returns a compiled CNN-M and test flows for the engine
// benchmark — the same model BenchmarkEngineBatch replays, so the JSON
// report and the Go benchmark track the same trajectory. It reuses an
// already-trained bundle when one exists (the "all" run), but when the
// experiment runs standalone it trains only CNN-M instead of paying
// for the whole zoo.
func (s *Suite) engineModel() (*models.Feedforward, []netsim.Flow, error) {
	if b, ok := s.bundles["PeerRush"]; ok {
		return b.cnnm, b.test, nil
	}
	ds, ok := datasets.ByName("PeerRush", datasets.Config{
		FlowsPerClass: s.Cfg.FlowsPerClass, PacketsPerFlow: 28, Seed: s.Cfg.Seed + 101,
	})
	if !ok {
		return nil, nil, fmt.Errorf("experiments: unknown dataset %q", "PeerRush")
	}
	train, _, test := ds.Split(s.Cfg.Seed + 7)
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 13))
	m := models.NewCNNM(ds.NumClasses(), rng)
	m.Train(train, models.TrainOpts{Epochs: s.Cfg.ep(80), Seed: s.Cfg.Seed})
	if err := m.Compile(train); err != nil {
		return nil, nil, err
	}
	return m, test, nil
}

// EngineBench measures pisa.Engine batch-replay throughput over the
// emitted CNN-B program for a sweep of worker counts, printing a table
// and (when Config.EngineJSON is set) writing the JSON report CI
// tracks across commits.
func (s *Suite) EngineBench(w io.Writer) error {
	cnnb, test, err := s.engineModel()
	if err != nil {
		return err
	}
	em, err := cnnb.Emit(1 << 10)
	if err != nil {
		return err
	}
	xs, _ := models.ExtractSeq(test)
	jobs := core.BatchJobsFromFloats(xs)
	window := time.Duration(s.Cfg.MeasureMS) * time.Millisecond

	// Powers of two up to at least 4 workers (goroutine shards are
	// meaningful even on small runners), plus the full core count.
	limit := runtime.NumCPU()
	if limit < 4 {
		limit = 4
	}
	var counts []int
	for c := 1; c <= limit; c *= 2 {
		counts = append(counts, c)
	}
	if counts[len(counts)-1] < runtime.NumCPU() {
		counts = append(counts, runtime.NumCPU())
	}

	rep := EngineBenchReport{Model: cnnb.Name, Target: em.Target,
		BatchSize: len(jobs), MeasureMS: s.Cfg.MeasureMS}
	fmt.Fprintf(w, "Engine bench: batched replay throughput (%s, batch %d, %v/point)\n",
		cnnb.Name, len(jobs), window)
	fmt.Fprintf(w, "%12s %8s %14s %8s %9s %10s\n", "mode", "workers", "pkt/s", "speedup", "parallel", "allocs/op")
	// sweep measures one replay mode across the worker counts. Register
	// -size clamping can map distinct requested counts to the same
	// effective pool, so duplicates are skipped to keep the JSON trend
	// one point per worker count. base seeds (on the first point) and
	// scales the speedup column, shared across sweeps that compare
	// against one baseline.
	sweep := func(modeName string, base *float64, perRep int,
		mk func(c int) *pisa.Engine, replay func(*pisa.Engine)) []EngineBenchPoint {
		var pts []EngineBenchPoint
		measured := map[int]bool{}
		for _, c := range counts {
			eng := mk(c)
			if measured[eng.Workers()] {
				eng.Close()
				continue
			}
			measured[eng.Workers()] = true
			start := time.Now()
			n := 0
			for time.Since(start) < window {
				replay(eng)
				n += perRep
			}
			pps := float64(n) / time.Since(start).Seconds()
			eng.Close()
			if *base == 0 {
				*base = pps
			}
			p := EngineBenchPoint{Mode: modeName, Workers: eng.Workers(),
				PacketsPerSec: pps, Speedup: pps / *base}
			pts = append(pts, p)
			fmt.Fprintf(w, "%12s %8d %14.3g %7.2fx\n", p.Mode, p.Workers, p.PacketsPerSec, p.Speedup)
		}
		return pts
	}

	base := 0.0 // interpreted 1-worker baseline
	for _, mode := range []pisa.ExecMode{pisa.ExecInterpret, pisa.ExecCompiled} {
		rep.Points = append(rep.Points, sweep(mode.String(), &base, len(jobs),
			func(c int) *pisa.Engine { return em.NewEngineMode(c, mode) },
			func(e *pisa.Engine) { e.RunBatch(jobs) })...)
	}

	// Per-packet smoke point: the same model emitted with its
	// extraction machine, fed the raw merged trace. Raw packets/s is
	// the dataplane-facing figure — every packet performs its register
	// RMWs and only window boundaries run inference.
	emp, err := cnnb.EmitPackets(1 << 10)
	if err != nil {
		return err
	}
	pjobs := models.PacketJobs(emp, netsim.Merge(test))
	rep.TracePackets = len(pjobs)
	fmt.Fprintf(w, "Per-packet replay (raw trace, %d packets, compiled plans):\n", len(pjobs))
	pbase := 0.0
	rep.PacketPoints = sweep("packets", &pbase, len(pjobs),
		func(c int) *pisa.Engine {
			eng := emp.NewPacketEngine(c, pisa.ExecCompiled)
			eng.ResetState()
			return eng
		},
		func(e *pisa.Engine) { e.RunPackets(pjobs) })
	rep.PacketMachine = hostMachine()
	if s.Cfg.EngineJSON != "" {
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(s.Cfg.EngineJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", s.Cfg.EngineJSON)
	}
	return nil
}

// multiModels returns several compiled window classifiers and their
// test flows for the multimodel experiment, reusing an already-trained
// bundle when one exists.
func (s *Suite) multiModels() ([]*models.Feedforward, []netsim.Flow, error) {
	if b, ok := s.bundles["PeerRush"]; ok {
		return []*models.Feedforward{b.mlp, b.cnnb, b.cnnm}, b.test, nil
	}
	ds, ok := datasets.ByName("PeerRush", datasets.Config{
		FlowsPerClass: s.Cfg.FlowsPerClass, PacketsPerFlow: 28, Seed: s.Cfg.Seed + 101,
	})
	if !ok {
		return nil, nil, fmt.Errorf("experiments: unknown dataset %q", "PeerRush")
	}
	train, _, test := ds.Split(s.Cfg.Seed + 7)
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 13))
	ms := []*models.Feedforward{
		models.NewMLPB(ds.NumClasses(), rng),
		models.NewCNNB(ds.NumClasses(), rng),
		models.NewCNNM(ds.NumClasses(), rng),
	}
	for _, m := range ms {
		m.Train(train, models.TrainOpts{Epochs: s.Cfg.ep(20), Seed: s.Cfg.Seed})
		if err := m.Compile(train); err != nil {
			return nil, nil, err
		}
	}
	return ms, test, nil
}

// MultiModelBench measures concurrent multi-model serving: each model
// replayed solo on its own engine pool, then all models registered on
// one shared-budget pisa.Scheduler and replayed concurrently, with
// per-model throughput, shared/solo ratio and pool occupancy. The
// points land in BENCH_engine.json (merged with the engine
// experiment's report) when Config.EngineJSON is set.
func (s *Suite) MultiModelBench(w io.Writer) error {
	ms, test, err := s.multiModels()
	if err != nil {
		return err
	}
	budget := runtime.NumCPU()
	window := time.Duration(s.Cfg.MeasureMS) * time.Millisecond

	type served struct {
		m    *models.Feedforward
		em   *core.Emitted
		jobs []pisa.Job
		solo float64
	}
	var sv []served
	for _, m := range ms {
		em, err := m.Emit(1 << 10)
		if err != nil {
			return fmt.Errorf("%s emit: %w", m.Name, err)
		}
		xs, _ := m.Extract(test)
		sv = append(sv, served{m: m, em: em, jobs: core.BatchJobsFromFloats(xs)})
	}

	fmt.Fprintf(w, "Multi-model bench: %d models on one %d-worker budget (%v/point)\n",
		len(sv), budget, window)
	fmt.Fprintf(w, "%-8s %-8s %8s %14s %8s %8s\n", "model", "mode", "workers", "pkt/s", "share", "occ")
	rep := EngineBenchReport{MultiModelBudget: budget}

	// Solo baselines: each model alone on a full-budget pool.
	for i := range sv {
		eng := sv[i].em.NewEngine(budget)
		start := time.Now()
		n := 0
		for time.Since(start) < window {
			eng.RunBatch(sv[i].jobs)
			n += len(sv[i].jobs)
		}
		sv[i].solo = float64(n) / time.Since(start).Seconds()
		eng.Close()
		p := MultiModelPoint{Model: sv[i].m.Name, Mode: "solo", Workers: budget, PacketsPerSec: sv[i].solo}
		rep.MultiModelPoints = append(rep.MultiModelPoints, p)
		fmt.Fprintf(w, "%-8s %-8s %8d %14.3g %8s %8s\n", p.Model, p.Mode, p.Workers, p.PacketsPerSec, "-", "-")
	}

	// Shared: all models co-resident on one scheduler, replaying
	// concurrently for the measurement window.
	sched := pisa.NewScheduler(budget)
	engines := make([]*pisa.Engine, len(sv))
	for i := range sv {
		engines[i] = sv[i].em.NewEngineOn(sched, sv[i].m.Name, 1, pisa.ExecCompiled)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range sv {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Since(start) < window {
				engines[i].RunBatch(sv[i].jobs)
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	// Key solo baselines by model name: sched.Stats() happens to list
	// engines in registration order today, but pairing by position would
	// silently mis-attribute shares if that ever changed (or if two
	// models swapped registration order). Note the shared pkt/s columns
	// for equal-weight models are expected to be near-identical — the
	// scheduler's stride fairness serves equal-weight sessions equal
	// packet counts over the window, so CNN-B and CNN-M reporting the
	// same shared throughput is fair queueing working, not a pairing bug.
	solo := make(map[string]float64, len(sv))
	for i := range sv {
		solo[sv[i].m.Name] = sv[i].solo
	}
	for _, st := range sched.Stats() {
		pps := float64(st.Packets) / wall.Seconds()
		p := MultiModelPoint{Model: st.Name, Mode: "shared", Workers: budget,
			PacketsPerSec: pps, Share: pps / solo[st.Name],
			Occupancy: st.Busy.Seconds() / (wall.Seconds() * float64(budget))}
		rep.MultiModelPoints = append(rep.MultiModelPoints, p)
		fmt.Fprintf(w, "%-8s %-8s %8d %14.3g %7.2fx %7.1f%%\n",
			p.Model, p.Mode, p.Workers, p.PacketsPerSec, p.Share, 100*p.Occupancy)
	}
	for _, e := range engines {
		e.Close()
	}
	sched.Close()

	if s.Cfg.EngineJSON != "" {
		// Merge into the engine experiment's report when one exists.
		full := EngineBenchReport{}
		if data, err := os.ReadFile(s.Cfg.EngineJSON); err == nil {
			_ = json.Unmarshal(data, &full)
		}
		full.MultiModelPoints = rep.MultiModelPoints
		full.MultiModelBudget = rep.MultiModelBudget
		data, err := json.MarshalIndent(&full, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(s.Cfg.EngineJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", s.Cfg.EngineJSON)
	}
	return nil
}

// SharedExtractionBench measures physically shared extraction: N
// co-resident packet models (cycling the zoo's sequence classifiers)
// replay the same merged raw trace, first each with its own fused
// private-prelude engine on one shared-budget scheduler, then as
// pure-combinational subscribers of ONE standalone extraction machine
// via pisa.Fanout. The machine executes each packet's register RMWs
// exactly once regardless of N, so the shared points should show both
// higher fully-served pkt/s and a flat ~one-prelude RMW cost where the
// private points pay N preludes. Points merge into BENCH_engine.json.
func (s *Suite) SharedExtractionBench(w io.Writer) error {
	ms, test, err := s.multiModels()
	if err != nil {
		return err
	}
	// Sequence-window classifiers only: co-residents must resolve the
	// SAME extraction spec to bind one physical machine.
	seqs := []*models.Feedforward{}
	for _, m := range ms {
		if m.PacketExtract == core.ExtractSeq {
			seqs = append(seqs, m)
		}
	}
	if len(seqs) == 0 {
		return fmt.Errorf("experiments: no sequence-window models for sharedext")
	}
	stream := netsim.Merge(test)
	budget := runtime.NumCPU()
	window := time.Duration(s.Cfg.MeasureMS) * time.Millisecond
	const flows = 1 << 10

	fmt.Fprintf(w, "Shared-extraction bench: private preludes vs one physical machine (%d packets/replay, %d-worker budget, %v/point)\n",
		len(stream), budget, window)
	fmt.Fprintf(w, "%7s %-8s %8s %14s %10s %8s\n", "models", "mode", "workers", "pkt/s", "rmws/pkt", "speedup")
	var rep EngineBenchReport

	for _, n := range []int{2, 3, 4} {
		// Co-resident instance i reuses compiled model seqs[i%len] under
		// its own session name — emissions are independent programs, so
		// two instances of one model are two genuine co-residents.
		names := make([]string, n)
		for i := range names {
			names[i] = seqs[i%len(seqs)].Name
			if i >= len(seqs) {
				names[i] = fmt.Sprintf("%s#%d", names[i], i/len(seqs)+1)
			}
		}

		// Private mode: each model's fused EmitPackets engine replays the
		// full trace concurrently; every engine pays the prelude's RMWs on
		// every packet. A packet is fully served once all N engines have
		// processed it, so the effective rate is the aggregate over N.
		sched := pisa.NewScheduler(budget)
		engines := make([]*pisa.Engine, n)
		var pjobs []pisa.PacketIn
		for i := 0; i < n; i++ {
			emp, err := seqs[i%len(seqs)].EmitPackets(flows)
			if err != nil {
				return fmt.Errorf("%s emit: %w", names[i], err)
			}
			if pjobs == nil {
				pjobs = models.PacketJobs(emp, stream)
			}
			engines[i] = emp.NewPacketEngineOn(sched, names[i], 1, pisa.ExecCompiled)
			engines[i].ResetState()
		}
		var wg sync.WaitGroup
		start := time.Now()
		for i := range engines {
			wg.Add(1)
			go func(eng *pisa.Engine) {
				defer wg.Done()
				for time.Since(start) < window {
					eng.RunPackets(pjobs)
				}
			}(engines[i])
		}
		wg.Wait()
		wall := time.Since(start)
		var pkts, rmws uint64
		for _, st := range sched.Stats() {
			pkts += st.Packets
			rmws += st.RegRMWs
		}
		for _, e := range engines {
			e.Close()
		}
		sched.Close()
		priv := SharedExtractionPoint{Models: n, Mode: "private", Workers: budget,
			PacketsPerSec: float64(pkts) / float64(n) / wall.Seconds(),
			RMWsPerPacket: float64(rmws) / (float64(pkts) / float64(n))}
		rep.SharedExtractionPoints = append(rep.SharedExtractionPoints, priv)
		fmt.Fprintf(w, "%7d %-8s %8d %14.3g %10.1f %8s\n",
			priv.Models, priv.Mode, priv.Workers, priv.PacketsPerSec, priv.RMWsPerPacket, "-")

		// Shared mode: one machine owns the flow registers; subscribers
		// are register-free and see only fired windows. One driver
		// replays the trace through the fan-out — every processed packet
		// reaches all N models inside the same call.
		shared, err := core.EmitSharedExtraction("px-shared-seq", pisa.Tofino2,
			models.SharedWindowSpec(core.ExtractSeq), flows)
		if err != nil {
			return err
		}
		sched = pisa.NewScheduler(budget)
		ext := shared.Em.NewPacketEngineOn(sched, "px-shared-seq", 1, pisa.ExecCompiled)
		fan := pisa.NewFanout(ext)
		subs := make([]*pisa.Engine, n)
		for i := 0; i < n; i++ {
			em, err := seqs[i%len(seqs)].EmitShared(shared)
			if err != nil {
				return fmt.Errorf("%s shared emit: %w", names[i], err)
			}
			subs[i] = em.NewEngineOn(sched, names[i], 1, pisa.ExecCompiled)
			fan.Subscribe(subs[i])
		}
		spjobs := models.PacketJobs(shared.Em, stream)
		ext.ResetState()
		start = time.Now()
		for time.Since(start) < window {
			fan.RunPackets(spjobs)
		}
		wall = time.Since(start)
		pkts, rmws = 0, 0
		for _, st := range sched.Stats() {
			pkts += st.Packets // subscriber "packets" are fired windows, not trace packets
			rmws += st.RegRMWs
		}
		served := ext.Stats().Packets
		for _, e := range subs {
			e.Close()
		}
		ext.Close()
		sched.Close()
		shp := SharedExtractionPoint{Models: n, Mode: "shared", Workers: budget,
			PacketsPerSec: float64(served) / wall.Seconds(),
			RMWsPerPacket: float64(rmws) / float64(served)}
		shp.Speedup = shp.PacketsPerSec / priv.PacketsPerSec
		rep.SharedExtractionPoints = append(rep.SharedExtractionPoints, shp)
		fmt.Fprintf(w, "%7d %-8s %8d %14.3g %10.1f %7.2fx\n",
			shp.Models, shp.Mode, shp.Workers, shp.PacketsPerSec, shp.RMWsPerPacket, shp.Speedup)
	}

	if s.Cfg.EngineJSON != "" {
		// Merge into the engine experiment's report when one exists.
		full := EngineBenchReport{}
		if data, err := os.ReadFile(s.Cfg.EngineJSON); err == nil {
			_ = json.Unmarshal(data, &full)
		}
		full.SharedExtractionPoints = rep.SharedExtractionPoints
		full.SharedExtractionMachine = hostMachine()
		data, err := json.MarshalIndent(&full, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(s.Cfg.EngineJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", s.Cfg.EngineJSON)
	}
	return nil
}

// ScalingBench measures steady-state worker scaling on the compiled hot
// path under sustained synthetic load. Unlike EngineBench, which
// re-replays a short committed trace (measuring batch-overhead
// amortisation), this experiment keeps the pool saturated: the traffic
// generator refills a fixed batch between replays from a churning
// steady-state flow population, after a warmup that settles the
// adaptive batching and register working set. Two series: compiled
// feature-window jobs (CNN-M) and raw per-packet replay through the
// extraction emission. Points merge into BENCH_engine.json.
func (s *Suite) ScalingBench(w io.Writer) error {
	cnnm, test, err := s.engineModel()
	if err != nil {
		return err
	}
	em, err := cnnm.Emit(1 << 10)
	if err != nil {
		return err
	}

	// Template inputs: the real extracted feature windows, so the
	// generated stream exercises the same match-table hit profile as
	// trace replay while the flow hashes churn like live traffic.
	xs, _ := models.ExtractSeq(test)
	seed := core.BatchJobsFromFloats(xs)
	tmpl := make([][]int32, len(seed))
	for i := range seed {
		tmpl[i] = seed[i].In
	}

	const batchSize = 8192
	const flows = 1 << 14
	window := time.Duration(s.Cfg.MeasureMS) * time.Millisecond
	if window < 100*time.Millisecond {
		// Steady state needs a floor: below ~100ms the warmup transient
		// dominates and points are noise, even in CI smoke mode.
		window = 100 * time.Millisecond
	}
	warmup := window / 4

	limit := runtime.NumCPU()
	if limit < 4 {
		limit = 4
	}
	var counts []int
	for c := 1; c <= limit; c *= 2 {
		counts = append(counts, c)
	}
	if counts[len(counts)-1] < runtime.NumCPU() {
		counts = append(counts, runtime.NumCPU())
	}

	rep := EngineBenchReport{ScalingMeta: &ScalingMeta{
		BatchSize: batchSize, WarmupMS: int(warmup.Milliseconds()),
		MeasureMS: int(window.Milliseconds()), Flows: flows,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}}
	fmt.Fprintf(w, "Scaling bench: sustained generated load (%s, batch %d, %v warmup + %v/point, GOMAXPROCS=%d)\n",
		cnnm.Name, batchSize, warmup, window, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%12s %8s %14s %8s %9s %10s\n", "mode", "workers", "pkt/s", "speedup", "parallel", "allocs/op")

	// sweep measures one series: mk builds the engine, fill refreshes
	// the batch from the generator, replay runs it. Speedup is relative
	// to the series' own 1-worker point. Worker-count clamping dedupes
	// like EngineBench.
	sweep := func(modeName string, perRep int,
		mk func(c int) *pisa.Engine, run func(eng *pisa.Engine)) []EngineBenchPoint {
		var pts []EngineBenchPoint
		base := 0.0
		measured := map[int]bool{}
		for _, c := range counts {
			eng := mk(c)
			if measured[eng.Workers()] {
				eng.Close()
				continue
			}
			measured[eng.Workers()] = true
			start := time.Now()
			for time.Since(start) < warmup {
				run(eng)
			}
			// Per-point evidence: engine busy time brackets the window
			// (its delta over wall time is the achieved parallelism) and
			// the runtime's allocation counter brackets it too (allocs
			// per replay op must stay flat as workers grow).
			busy0 := eng.Stats().Busy
			var mem0, mem1 runtime.MemStats
			runtime.ReadMemStats(&mem0)
			start = time.Now()
			n, ops := 0, 0
			for time.Since(start) < window {
				run(eng)
				n += perRep
				ops++
			}
			elapsed := time.Since(start)
			busy1 := eng.Stats().Busy
			runtime.ReadMemStats(&mem1)
			pps := float64(n) / elapsed.Seconds()
			eng.Close()
			if base == 0 {
				base = pps
			}
			p := EngineBenchPoint{Mode: modeName, Workers: eng.Workers(),
				PacketsPerSec: pps, Speedup: pps / base}
			pts = append(pts, p)
			pm := ScalingPointMeta{Mode: modeName, Workers: eng.Workers(),
				Parallelism: (busy1 - busy0).Seconds() / elapsed.Seconds(),
				AllocsPerOp: float64(mem1.Mallocs-mem0.Mallocs) / float64(ops)}
			rep.ScalingMeta.Points = append(rep.ScalingMeta.Points, pm)
			fmt.Fprintf(w, "%12s %8d %14.3g %7.2fx %8.2fx %10.1f\n",
				p.Mode, p.Workers, p.PacketsPerSec, p.Speedup, pm.Parallelism, pm.AllocsPerOp)
		}
		return pts
	}

	jobs := make([]pisa.Job, batchSize)
	jgen := trafficgen.NewJobGen(trafficgen.Config{Seed: s.Cfg.Seed + 1, Flows: flows}, tmpl)
	rep.ScalingPoints = sweep("compiled", batchSize,
		func(c int) *pisa.Engine { return em.NewEngineMode(c, pisa.ExecCompiled) },
		func(eng *pisa.Engine) {
			jgen.Fill(jobs)
			eng.RunBatch(jobs)
		})

	emp, err := cnnm.EmitPackets(1 << 10)
	if err != nil {
		return err
	}
	pkts := make([]pisa.PacketIn, batchSize)
	pgen := trafficgen.NewPacketGen(trafficgen.Config{Seed: s.Cfg.Seed + 2, Flows: flows}, trafficgen.LayoutSeq, 0)
	rep.ScalingPoints = append(rep.ScalingPoints, sweep("packets", batchSize,
		func(c int) *pisa.Engine {
			eng := emp.NewPacketEngine(c, pisa.ExecCompiled)
			eng.ResetState()
			return eng
		},
		func(eng *pisa.Engine) {
			pgen.Fill(pkts)
			eng.RunPackets(pkts)
		})...)

	if s.Cfg.EngineJSON != "" {
		// Merge into the engine experiment's report when one exists.
		full := EngineBenchReport{}
		if data, err := os.ReadFile(s.Cfg.EngineJSON); err == nil {
			_ = json.Unmarshal(data, &full)
		}
		full.ScalingPoints = rep.ScalingPoints
		full.ScalingMeta = rep.ScalingMeta
		data, err := json.MarshalIndent(&full, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(s.Cfg.EngineJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", s.Cfg.EngineJSON)
	}
	return nil
}

// Names lists the runnable experiments.
var Names = []string{"table2", "table5", "table6", "fig7", "fig8", "fig9acc", "fig9thr", "engine", "multimodel", "sharedext", "scaling", "serving", "resilience"}

// Run executes one experiment by name ("all" runs everything).
func (s *Suite) Run(name string, w io.Writer) error {
	switch name {
	case "table2":
		return s.Table2(w)
	case "table5":
		return s.Table5(w)
	case "table6":
		return s.Table6(w)
	case "fig7":
		return s.Figure7(w)
	case "fig8":
		return s.Figure8(w)
	case "fig9acc":
		return s.Figure9Accuracy(w)
	case "fig9thr":
		return s.Figure9Throughput(w)
	case "engine":
		return s.EngineBench(w)
	case "multimodel":
		return s.MultiModelBench(w)
	case "sharedext":
		return s.SharedExtractionBench(w)
	case "scaling":
		return s.ScalingBench(w)
	case "serving":
		return s.ServingBench(w)
	case "resilience":
		return s.ResilienceBench(w)
	case "all":
		for _, n := range Names {
			if err := s.Run(n, w); err != nil {
				return fmt.Errorf("%s: %v", n, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names)
}
