package moves

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/target"
)

var tags = Tags{Load: ir.TagResolveLoad, Store: ir.TagResolveStore, Move: ir.TagResolveMove}

// simulate executes emitted instructions over a symbolic state and
// returns the final contents of every location.
func simulate(init map[Loc]int, code []ir.Instr) map[Loc]int {
	st := map[Loc]int{}
	for k, v := range init {
		st[k] = v
	}
	get := func(o ir.Operand) int {
		if o.Kind == ir.KindReg {
			return st[RegLoc(o.Reg)]
		}
		return st[SlotLoc(int(o.Imm))]
	}
	set := func(o ir.Operand, v int) {
		if o.Kind == ir.KindReg {
			st[RegLoc(o.Reg)] = v
		} else {
			st[SlotLoc(int(o.Imm))] = v
		}
	}
	for i := range code {
		in := &code[i]
		switch in.Op {
		case ir.Mov, ir.FMov, ir.SpillLd:
			set(in.Defs[0], get(in.Uses[0]))
		case ir.SpillSt:
			set(in.Uses[1], get(in.Uses[0]))
		default:
			panic("unexpected op " + in.Op.String())
		}
	}
	return st
}

// checkTransfers verifies that sequencing the transfers moves every value
// where it should.
func checkTransfers(t *testing.T, ts []Transfer, scratch ScratchFunc) {
	t.Helper()
	init := map[Loc]int{}
	for i, tr := range ts {
		init[tr.Src] = i + 1
	}
	slotFor := func(tmp ir.Temp) int { return 100 + int(tmp) }
	code := new(Sequencer).Sequence(ts, scratch, slotFor, tags)
	final := simulate(init, code)
	for i, tr := range ts {
		if final[tr.Dst] != i+1 {
			t.Fatalf("transfer %d: dst %v = %d, want %d\ncode: %v",
				i, tr.Dst, final[tr.Dst], i+1, code)
		}
	}
}

func noScratch(target.Class) (target.Reg, bool) { return target.NoReg, false }

func reg(i int) Loc  { return RegLoc(target.Reg(i)) }
func slot(i int) Loc { return SlotLoc(i) }

func TestChains(t *testing.T) {
	checkTransfers(t, []Transfer{
		{Temp: 0, Src: reg(0), Dst: reg(1)},
		{Temp: 1, Src: reg(1), Dst: reg(2)},
		{Temp: 2, Src: reg(2), Dst: reg(3)},
	}, noScratch)
}

func TestSwapWithScratch(t *testing.T) {
	used := false
	scratch := func(target.Class) (target.Reg, bool) {
		used = true
		return target.Reg(9), true
	}
	checkTransfers(t, []Transfer{
		{Temp: 0, Src: reg(0), Dst: reg(1)},
		{Temp: 1, Src: reg(1), Dst: reg(0)},
	}, scratch)
	if !used {
		t.Fatal("cycle should have used the scratch register")
	}
}

func TestSwapWithoutScratchGoesThroughMemory(t *testing.T) {
	ts := []Transfer{
		{Temp: 0, Src: reg(0), Dst: reg(1)},
		{Temp: 1, Src: reg(1), Dst: reg(0)},
	}
	code := new(Sequencer).Sequence(ts, noScratch, func(tmp ir.Temp) int { return 100 + int(tmp) }, tags)
	hasStore := false
	for i := range code {
		if code[i].Op == ir.SpillSt {
			hasStore = true
		}
	}
	if !hasStore {
		t.Fatal("memory cycle break expected without scratch")
	}
	checkTransfers(t, ts, noScratch)
}

func TestThreeCycle(t *testing.T) {
	checkTransfers(t, []Transfer{
		{Temp: 0, Src: reg(0), Dst: reg(1)},
		{Temp: 1, Src: reg(1), Dst: reg(2)},
		{Temp: 2, Src: reg(2), Dst: reg(0)},
	}, noScratch)
}

func TestLoadsAndStoresMix(t *testing.T) {
	checkTransfers(t, []Transfer{
		{Temp: 0, Src: slot(100), Dst: reg(0)},
		{Temp: 1, Src: reg(2), Dst: slot(101)},
		{Temp: 2, Src: reg(3), Dst: reg(2)},
		{Temp: 3, Src: reg(0), Dst: reg(3)}, // reg 0 is also a load target
	}, noScratch)
}

func TestSharedSource(t *testing.T) {
	// One register feeds both a move and a store (the resolution phase's
	// consistency-store case).
	init := map[Loc]int{reg(0): 7}
	code := new(Sequencer).Sequence([]Transfer{
		{Temp: 0, Src: reg(0), Dst: reg(1)},
		{Temp: 0, Src: reg(0), Dst: slot(100)},
	}, noScratch, func(ir.Temp) int { return 100 }, tags)
	final := simulate(init, code)
	if final[reg(1)] != 7 || final[slot(100)] != 7 {
		t.Fatalf("shared source mishandled: %v", final)
	}
}

func TestSelfTransferDropped(t *testing.T) {
	code := new(Sequencer).Sequence([]Transfer{{Temp: 0, Src: reg(0), Dst: reg(0)}}, noScratch,
		func(ir.Temp) int { return 100 }, tags)
	if len(code) != 0 {
		t.Fatalf("self transfer should emit nothing, got %v", code)
	}
}

func TestTagsApplied(t *testing.T) {
	code := new(Sequencer).Sequence([]Transfer{
		{Temp: 0, Src: slot(100), Dst: reg(0)},
		{Temp: 1, Src: reg(1), Dst: slot(101)},
		{Temp: 2, Src: reg(2), Dst: reg(3)},
	}, noScratch, func(ir.Temp) int { return 0 }, tags)
	for i := range code {
		in := &code[i]
		switch in.Op {
		case ir.SpillLd:
			if in.Tag != ir.TagResolveLoad {
				t.Fatal("load tag wrong")
			}
		case ir.SpillSt:
			if in.Tag != ir.TagResolveStore {
				t.Fatal("store tag wrong")
			}
		case ir.Mov:
			if in.Tag != ir.TagResolveMove {
				t.Fatal("move tag wrong")
			}
		}
	}
}

func TestFloatClassUsesFMov(t *testing.T) {
	code := new(Sequencer).Sequence([]Transfer{
		{Temp: 0, Class: target.ClassFloat, Src: reg(10), Dst: reg(11)},
	}, noScratch, func(ir.Temp) int { return 0 }, tags)
	if len(code) != 1 || code[0].Op != ir.FMov {
		t.Fatalf("float transfer must use fmov, got %v", code)
	}
}

// TestMemoryMemoryChain: a value travels slot → register → register →
// slot; the chain must be emitted leaf-first so the intermediate
// registers are vacated before being overwritten.
func TestMemoryMemoryChain(t *testing.T) {
	checkTransfers(t, []Transfer{
		{Temp: 0, Src: slot(100), Dst: reg(0)},
		{Temp: 1, Src: reg(0), Dst: reg(1)},
		{Temp: 2, Src: reg(1), Dst: slot(102)},
	}, noScratch)
}

// TestSlotSelfTransferDropped: a slot-to-slot transfer is a panic in
// general (no addressing mode for it), but the degenerate self case is
// a no-op and must be dropped before that check fires.
func TestSlotSelfTransferDropped(t *testing.T) {
	code := new(Sequencer).Sequence([]Transfer{{Temp: 0, Src: slot(100), Dst: slot(100)}}, noScratch,
		func(ir.Temp) int { return 100 }, tags)
	if len(code) != 0 {
		t.Fatalf("slot self transfer should emit nothing, got %v", code)
	}
}

// TestFloatCycleThroughMemory: breaking a float swap without a scratch
// register must spill through the temporary's own slot, and every
// register-to-register move it emits must use the float opcode.
func TestFloatCycleThroughMemory(t *testing.T) {
	ts := []Transfer{
		{Temp: 0, Class: target.ClassFloat, Src: reg(10), Dst: reg(11)},
		{Temp: 1, Class: target.ClassFloat, Src: reg(11), Dst: reg(10)},
	}
	code := new(Sequencer).Sequence(ts, noScratch, func(tmp ir.Temp) int { return 100 + int(tmp) }, tags)
	sawStore := false
	for i := range code {
		switch code[i].Op {
		case ir.SpillSt:
			sawStore = true
		case ir.Mov:
			t.Fatalf("integer mov in a float cycle: %v", code)
		}
	}
	if !sawStore {
		t.Fatal("float cycle without scratch should break through memory")
	}
	checkTransfers(t, ts, noScratch)
}

// TestDuplicateDestinationPanics: two transfers writing one location is
// an allocator bug (one location holds one value); the sequencer must
// refuse loudly rather than emit order-dependent code.
func TestDuplicateDestinationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate destination did not panic")
		}
	}()
	new(Sequencer).Sequence([]Transfer{
		{Temp: 0, Src: reg(0), Dst: reg(2)},
		{Temp: 1, Src: reg(1), Dst: reg(2)},
	}, noScratch, func(ir.Temp) int { return 100 }, tags)
}

// TestSlotToSlotPanics: a non-degenerate memory-to-memory transfer has
// no single-instruction encoding and must be rejected.
func TestSlotToSlotPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("slot-to-slot transfer did not panic")
		}
	}()
	new(Sequencer).Sequence([]Transfer{{Temp: 0, Src: slot(100), Dst: slot(101)}}, noScratch,
		func(ir.Temp) int { return 100 }, tags)
}

// TestRandomPermutations drives the sequencer with random permutations
// and partial permutations of registers plus slot endpoints.
func TestRandomPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 500; iter++ {
		n := 2 + rng.Intn(8)
		perm := rng.Perm(n)
		var ts []Transfer
		usedDst := map[Loc]bool{}
		for i := 0; i < n; i++ {
			if rng.Intn(5) == 0 {
				continue // partial
			}
			src, dst := reg(i), reg(perm[i])
			switch rng.Intn(4) {
			case 0:
				src = slot(200 + i) // load
			case 1:
				dst = slot(300 + i) // store (unique per temp)
			}
			if usedDst[dst] {
				continue
			}
			usedDst[dst] = true
			ts = append(ts, Transfer{Temp: ir.Temp(i), Src: src, Dst: dst})
		}
		var scratch ScratchFunc = noScratch
		if rng.Intn(2) == 0 {
			scratch = func(target.Class) (target.Reg, bool) { return target.Reg(99), true }
		}
		checkTransfers(t, ts, scratch)
	}
}

// TestSequencerReusableAfterPanic: a rejected transfer set leaves marks
// half-built when the panic unwinds; the Sequencer must still reset
// them, so its next call sees clean state.
func TestSequencerReusableAfterPanic(t *testing.T) {
	var sq Sequencer
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate destination did not panic")
			}
		}()
		sq.Sequence([]Transfer{
			{Temp: 0, Src: slot(100), Dst: reg(1)},
			{Temp: 1, Src: reg(2), Dst: reg(3)},
			{Temp: 2, Src: reg(4), Dst: reg(3)},
		}, noScratch, func(tmp ir.Temp) int { return 100 + int(tmp) }, tags)
	}()
	// Stale source counts on slot100 or r2 would stall these chains.
	ts := []Transfer{
		{Temp: 0, Src: reg(1), Dst: slot(100)},
		{Temp: 1, Src: reg(3), Dst: reg(2)},
	}
	init := map[Loc]int{reg(1): 1, reg(3): 2}
	final := simulate(init, sq.Sequence(ts, noScratch, func(tmp ir.Temp) int { return 100 + int(tmp) }, tags))
	if final[slot(100)] != 1 || final[reg(2)] != 2 {
		t.Fatalf("sequencer reused after a panic: %v", final)
	}
}
