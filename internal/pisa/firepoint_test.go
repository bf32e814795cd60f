package pisa

import (
	"math/rand"
	"testing"
)

// firePointChain is one hand-built packet program chain for the
// fire-point differential: its pipes and bridges, the packet metadata,
// the output and class fields in the last pipe's layout, and where the
// fire point must land.
type firePointChain struct {
	progs    []*Program
	bridges  []Bridge
	meta     PacketMeta
	out      []FieldID
	class    FieldID
	firePipe int
	// gated reports whether any unit of the chain follows the fire
	// point (false: the fire point is the chain's last unit).
	gated bool
}

// fpWindow is the feature-window length of the test preludes: every
// fpWindow-th packet of a flow slot fires.
const fpWindow = 4

// fpFields is the pipe-0 layout shared by every fire-point program.
type fpFields struct {
	hash, slot, one, cnt, phase, fire, val, acc FieldID
	feat, shr, feat2, class, out0, out1, out2   FieldID
}

func newFPFields(l *Layout) fpFields {
	return fpFields{
		hash: l.MustAdd("hash", 32), slot: l.MustAdd("slot", 16), one: l.MustAdd("one", 8),
		cnt: l.MustAdd("cnt", 16), phase: l.MustAdd("phase", 16), fire: l.MustAdd("fire", 8),
		val: l.MustAdd("val", 16), acc: l.MustAdd("acc", 32),
		feat: l.MustAdd("feat", 8), shr: l.MustAdd("shr", 32), feat2: l.MustAdd("feat2", 8),
		class: l.MustAdd("class", 8), out0: l.MustAdd("out0", 16), out1: l.MustAdd("out1", 16),
		out2: l.MustAdd("out2", 32),
	}
}

// fpPrelude places the extraction prelude from stage st on: slot
// derivation, a per-slot packet counter, a per-slot value accumulator
// and the window-completion fire. It returns the next free stage.
func fpPrelude(t *testing.T, p *Program, f fpFields, slots, st int) int {
	t.Helper()
	cnt, err := NewRegister("cnt", 16, slots)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewRegister("acc", 32, slots)
	if err != nil {
		t.Fatal(err)
	}
	rc, ra := p.AddRegister(cnt), p.AddRegister(acc)
	always := func(name string, ops ...Op) {
		p.Place(st, &Table{Name: name, Kind: MatchNone, DefaultData: []int32{}, Action: ops})
		st++
	}
	always("slot", Op{Kind: OpAndImm, Dst: f.slot, A: f.hash, Imm: int32(slots - 1)}, Op{Kind: OpSet, Dst: f.one, Imm: 1})
	always("count", Op{Kind: OpRegAdd, Reg: rc, Dst: f.cnt, A: f.slot, B: f.one})
	always("phase", Op{Kind: OpAndImm, Dst: f.phase, A: f.cnt, Imm: fpWindow - 1})
	always("accum", Op{Kind: OpRegAdd, Reg: ra, Dst: f.acc, A: f.slot, B: f.val})
	always("fire", Op{Kind: OpSelEQI, Dst: f.fire, A: f.phase, Imm: 0, B: f.one})
	return st
}

// fpFeatures places the stateless feature derivation from src: feat =
// src & 0xff, feat2 = (src >> 4) & 0xff. Returns the next free stage.
func fpFeatures(p *Program, f fpFields, src FieldID, st int) int {
	p.Place(st, &Table{Name: "feat", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{{Kind: OpAndImm, Dst: f.feat, A: src, Imm: 0xff}, {Kind: OpShr, Dst: f.shr, A: src, Imm: 4}}})
	p.Place(st+1, &Table{Name: "feat2", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{{Kind: OpAndImm, Dst: f.feat2, A: f.shr, Imm: 0xff}}})
	return st + 2
}

// fpClassifier places a classifier over (feat, feat2) shaped like the
// emitted one: a direct exact lookup, a single-field prefix ternary
// (interval), a two-field prefix ternary (bitmap) and a trailing ALU
// op. Entries are drawn from rng. Returns the next free stage.
func fpClassifier(rng *rand.Rand, p *Program, feat, feat2, class, out0, out1 FieldID, st int) int {
	dir := &Table{Name: "dir", Kind: MatchExact, KeyFields: []FieldID{feat}, KeyWidths: []int{8},
		Action: []Op{{Kind: OpSetData, Dst: out0, DataIdx: 0}}, DefaultData: []int32{-1}}
	for k := 0; k < 256; k += 1 + rng.Intn(4) {
		dir.Entries = append(dir.Entries, Entry{Key: []uint32{uint32(k)}, Data: []int32{int32(rng.Intn(1000))}})
	}
	p.Place(st, dir)
	prefix := func(plen int) (uint32, uint32) {
		mask := uint32(0xff) &^ (uint32(0xff) >> plen)
		return uint32(rng.Intn(256)) & mask, mask
	}
	tern := &Table{Name: "tern", Kind: MatchTernary, KeyFields: []FieldID{feat2}, KeyWidths: []int{8},
		Action: []Op{{Kind: OpSetData, Dst: class, DataIdx: 0}}, DefaultData: []int32{0}}
	for i := 0; i < 12; i++ {
		k, m := prefix(1 + rng.Intn(8))
		tern.Entries = append(tern.Entries, Entry{Key: []uint32{k}, Mask: []uint32{m}, Data: []int32{int32(rng.Intn(4))}})
	}
	p.Place(st+1, tern)
	bm := &Table{Name: "bitmap", Kind: MatchTernary, KeyFields: []FieldID{feat, feat2}, KeyWidths: []int{8, 8},
		Action: []Op{{Kind: OpSetData, Dst: out1, DataIdx: 0}}, DefaultData: []int32{7}}
	for i := 0; i < 20; i++ {
		k0, m0 := prefix(rng.Intn(9))
		k1, m1 := prefix(rng.Intn(9))
		bm.Entries = append(bm.Entries, Entry{Key: []uint32{k0, k1}, Mask: []uint32{m0, m1}, Data: []int32{int32(rng.Intn(500))}})
	}
	p.Place(st+2, bm)
	p.Place(st+3, &Table{Name: "alu", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{{Kind: OpAdd, Dst: out1, A: out1, B: out0}}})
	return st + 4
}

// fpSingle builds a one-pipe chain; extra places units after the
// classifier and reports whether the fire point moves to the end.
func fpSingle(t *testing.T, rng *rand.Rand, name string, slots int, extra func(p *Program, f fpFields, st int) bool) firePointChain {
	t.Helper()
	var l Layout
	f := newFPFields(&l)
	p := NewProgram(name, &l, Tofino2)
	st := fpPrelude(t, p, f, slots, 0)
	st = fpFeatures(p, f, f.acc, st)
	st = fpClassifier(rng, p, f.feat, f.feat2, f.class, f.out0, f.out1, st)
	moved := extra != nil && extra(p, f, st)
	return firePointChain{progs: []*Program{p},
		meta: PacketMeta{Hash: f.hash, Fields: []FieldID{f.val}, Fire: f.fire},
		out:  []FieldID{f.out0, f.out1, f.out2, f.acc}, class: f.class, gated: !moved}
}

// fpTwoPipe builds a two-pipe chain: pipe 0 runs the prelude and the
// feature derivation, pipe 1 the classifier over bridged features and,
// when stateful, a per-slot register RMW after it.
func fpTwoPipe(t *testing.T, rng *rand.Rand, slots int, stateful bool) firePointChain {
	t.Helper()
	var l0 Layout
	f := newFPFields(&l0)
	p0 := NewProgram("pipe0", &l0, Tofino2)
	st := fpPrelude(t, p0, f, slots, 0)
	fpFeatures(p0, f, f.acc, st)

	var l1 Layout
	slot1, feat1, feat21 := l1.MustAdd("slot", 16), l1.MustAdd("feat", 8), l1.MustAdd("feat2", 8)
	class1, out01, out11, out21 := l1.MustAdd("class", 8), l1.MustAdd("out0", 16), l1.MustAdd("out1", 16), l1.MustAdd("out2", 32)
	p1 := NewProgram("pipe1", &l1, Tofino2)
	st = fpClassifier(rng, p1, feat1, feat21, class1, out01, out11, 0)
	firePipe := 0
	if stateful {
		hist, err := NewRegister("hist", 32, slots)
		if err != nil {
			t.Fatal(err)
		}
		rh := p1.AddRegister(hist)
		p1.Place(st, &Table{Name: "hist", Kind: MatchNone, DefaultData: []int32{},
			Action: []Op{{Kind: OpRegAdd, Reg: rh, Dst: out21, A: slot1, B: out11}}})
		firePipe = 1
	}
	return firePointChain{progs: []*Program{p0, p1},
		bridges: []Bridge{{From: []FieldID{f.slot, f.feat, f.feat2}, To: []FieldID{slot1, feat1, feat21}}},
		meta:    PacketMeta{Hash: f.hash, Fields: []FieldID{f.val}, Fire: f.fire},
		out:     []FieldID{out01, out11, out21}, class: class1,
		firePipe: firePipe, gated: !stateful}
}

// fpNoTail builds a one-pipe chain whose classifier runs on the raw
// packet value before the prelude: the fire-writing unit is the plan's
// last, so nothing is gated.
func fpNoTail(t *testing.T, rng *rand.Rand, slots int) firePointChain {
	t.Helper()
	var l Layout
	f := newFPFields(&l)
	p := NewProgram("no-tail", &l, Tofino2)
	st := fpFeatures(p, f, f.val, 0)
	st = fpClassifier(rng, p, f.feat, f.feat2, f.class, f.out0, f.out1, st)
	fpPrelude(t, p, f, slots, st)
	return firePointChain{progs: []*Program{p},
		meta: PacketMeta{Hash: f.hash, Fields: []FieldID{f.val}, Fire: f.fire},
		out:  []FieldID{f.out0, f.out1, f.acc}, class: f.class}
}

// TestFirePointDifferential pins the compiled packet path's fire point
// against the interpreter, which runs every unit on every packet. Each
// chain puts the last register op or Fire write somewhere else; over a
// trace whose flows collide on register slots, the compiled and
// interpreted engines must agree on every fire, class and output, on
// the register RMW count and on the final register state, at 1 and 2
// workers and across call boundaries.
func TestFirePointDifferential(t *testing.T) {
	const slots = 8
	rng := rand.New(rand.NewSource(41))
	cases := []struct {
		name  string
		chain firePointChain
	}{
		{"classifier-tail", fpSingle(t, rng, "classifier-tail", slots, nil)},
		{"register-after-classifier", fpSingle(t, rng, "register-after", slots, func(p *Program, f fpFields, st int) bool {
			late, err := NewRegister("late", 32, slots)
			if err != nil {
				t.Fatal(err)
			}
			rl := p.AddRegister(late)
			p.Place(st, &Table{Name: "late", Kind: MatchNone, DefaultData: []int32{},
				Action: []Op{{Kind: OpRegMax, Reg: rl, Dst: f.out2, A: f.slot, B: f.out1}}})
			return true
		})},
		{"fire-after-classifier", fpSingle(t, rng, "fire-after", slots, func(p *Program, f fpFields, st int) bool {
			// Class 2 fires on every packet, window-complete or not.
			p.Place(st, &Table{Name: "refire", Kind: MatchExact, KeyFields: []FieldID{f.class}, KeyWidths: []int{8},
				Entries: []Entry{{Key: []uint32{2}, Data: []int32{1}}},
				Action:  []Op{{Kind: OpSetData, Dst: f.fire, DataIdx: 0}}})
			return true
		})},
		{"stateless-second-pipe", fpTwoPipe(t, rng, slots, false)},
		{"stateful-second-pipe", fpTwoPipe(t, rng, slots, true)},
		{"no-tail", fpNoTail(t, rng, slots)},
	}

	// Flows share slots: every flow hash is slot + slots·k for a random
	// k, so several distinct flows bank into each register cell.
	flows := make([]uint32, 3*slots)
	for i := range flows {
		flows[i] = uint32(i%slots) + slots*uint32(1+rng.Intn(1<<20))
	}
	pkts := make([]PacketIn, 700)
	for i := range pkts {
		pkts[i] = PacketIn{Hash: flows[rng.Intn(len(flows))], Fields: []int32{int32(rng.Intn(3000))}}
	}

	for _, tc := range cases {
		c := tc.chain
		for _, p := range c.progs {
			if err := p.Validate(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		for _, workers := range []int{1, 2} {
			run := func(mode ExecMode) ([]PacketResult, uint64, [][][]int32, *Engine) {
				e := NewChainEngineMode(c.progs, c.bridges, nil, c.out, c.class, workers, mode)
				e.ConfigurePackets(c.meta)
				e.ResetState()
				var res []PacketResult
				for _, part := range [][]PacketIn{pkts[:333], pkts[333:]} {
					for _, r := range e.RunPackets(part) {
						r.Outs = append([]int32(nil), r.Outs...)
						res = append(res, r)
					}
				}
				var regs [][][]int32
				for _, p := range c.progs {
					regs = append(regs, snapshotRegs(p))
				}
				rmws := e.Stats().RegRMWs
				e.Close()
				return res, rmws, regs, e
			}
			want, wantRMW, wantRegs, _ := run(ExecInterpret)
			got, gotRMW, gotRegs, eng := run(ExecCompiled)

			if eng.Workers() != workers {
				t.Fatalf("%s: engine runs %d shards, want %d", tc.name, eng.Workers(), workers)
			}
			if eng.firePipe != c.firePipe {
				t.Fatalf("%s w%d: fire point in pipe %d, want %d", tc.name, workers, eng.firePipe, c.firePipe)
			}
			units := len(eng.plans[eng.firePipe].procs)
			if gated := eng.fireEnd < units || eng.firePipe < len(eng.plans)-1; gated != c.gated {
				t.Fatalf("%s w%d: fire point after unit %d of %d in pipe %d, gated=%v want %v",
					tc.name, workers, eng.fireEnd, units, eng.firePipe, gated, c.gated)
			}
			if len(want) == 0 || len(want) == len(pkts) {
				t.Fatalf("%s: %d fires of %d packets — the trace must mix firing and non-firing packets", tc.name, len(want), len(pkts))
			}
			if len(got) != len(want) {
				t.Fatalf("%s w%d: %d fires, want %d", tc.name, workers, len(got), len(want))
			}
			for i := range got {
				if got[i].Pkt != want[i].Pkt || got[i].Class != want[i].Class {
					t.Fatalf("%s w%d fire %d: (pkt %d class %d), want (pkt %d class %d)",
						tc.name, workers, i, got[i].Pkt, got[i].Class, want[i].Pkt, want[i].Class)
				}
				for j := range want[i].Outs {
					if got[i].Outs[j] != want[i].Outs[j] {
						t.Fatalf("%s w%d pkt %d out[%d]: %d, want %d", tc.name, workers, got[i].Pkt, j, got[i].Outs[j], want[i].Outs[j])
					}
				}
			}
			if gotRMW != wantRMW || wantRMW == 0 {
				t.Fatalf("%s w%d: %d register RMWs, want %d (> 0)", tc.name, workers, gotRMW, wantRMW)
			}
			for p := range wantRegs {
				for r := range wantRegs[p] {
					for cell := range wantRegs[p][r] {
						if gotRegs[p][r][cell] != wantRegs[p][r][cell] {
							t.Fatalf("%s w%d: pipe %d register %d cell %d = %d, want %d",
								tc.name, workers, p, r, cell, gotRegs[p][r][cell], wantRegs[p][r][cell])
						}
					}
				}
			}
		}
	}
}
