package moves

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ir"
	"repro/internal/target"
)

// fuzzRegsPerClass is the size of each register file in the fuzz
// model; integer registers come first, then float ones.
const fuzzRegsPerClass = 12

// edgeCase is one random edge of the resolution model: every temporary
// sits in a register or in its memory home at the top of the edge and
// again at the bottom, registers hold at most one temporary at each
// end, and the transfers are what resolution would ask for.
type edgeCase struct {
	ts         []Transfer
	slotBase   int
	init       map[Loc]int      // location → value held before the code runs
	wantRegs   map[Loc]int      // register → value it must hold after
	stored     map[ir.Temp]bool // temporaries whose home must be written
	scratch    [target.NumClasses]target.Reg
	hasScratch bool
}

// slotOf is the memory home of temporary t.
func (c *edgeCase) slotOf(t ir.Temp) int { return c.slotBase + int(t) }

// buildEdge decodes a random edge: nTemps temporaries split between the
// two register files, each placed in a register or memory at both
// ends, with optional consistency stores beside moves and kept
// registers, self transfers (which must emit nothing) and a scratch
// register per class that holds nothing on either side.
func buildEdge(rng *rand.Rand, nTemps int, withScratch bool, slotBase int) *edgeCase {
	c := &edgeCase{
		slotBase: slotBase,
		init:     map[Loc]int{},
		wantRegs: map[Loc]int{},
		stored:   map[ir.Temp]bool{},
		scratch:  [target.NumClasses]target.Reg{target.NoReg, target.NoReg},
	}
	var usedAt [2][2 * fuzzRegsPerClass]bool // [end][reg]
	place := func(end int, cls target.Class) Loc {
		if rng.Intn(4) == 0 {
			return Loc{Kind: LocSlot}
		}
		base := int(cls) * fuzzRegsPerClass
		for try := 0; try < 4; try++ {
			r := base + rng.Intn(fuzzRegsPerClass)
			if !usedAt[end][r] {
				usedAt[end][r] = true
				return RegLoc(target.Reg(r))
			}
		}
		return Loc{Kind: LocSlot}
	}
	for i := 0; i < nTemps; i++ {
		tmp := ir.Temp(i)
		cls := target.Class(rng.Intn(2))
		home := SlotLoc(c.slotOf(tmp))
		top, bot := place(0, cls), place(1, cls)
		if top.Kind == LocSlot {
			top = home
		}
		if bot.Kind == LocSlot {
			bot = home
		}
		val := i + 1
		c.init[top] = val
		if top.Kind == LocReg {
			c.init[home] = -val // stale home
		}
		if bot.Kind == LocReg {
			c.wantRegs[bot] = val
		}
		tr := Transfer{Temp: tmp, Class: cls, Src: top, Dst: bot}
		switch {
		case top.Kind == LocReg && bot.Kind == LocReg:
			if top != bot || rng.Intn(3) == 0 {
				c.ts = append(c.ts, tr) // a move, or a self transfer
			}
			if rng.Intn(3) == 0 {
				// The consistency store that shares the move's source.
				c.ts = append(c.ts, Transfer{Temp: tmp, Class: cls, Src: top, Dst: home})
				c.stored[tmp] = true
			}
		case top.Kind == LocReg:
			c.ts = append(c.ts, tr) // store
			c.stored[tmp] = true
		case bot.Kind == LocReg:
			c.ts = append(c.ts, tr) // load
		}
	}
	rng.Shuffle(len(c.ts), func(i, j int) { c.ts[i], c.ts[j] = c.ts[j], c.ts[i] })
	if withScratch {
		c.hasScratch = true
		for cls := target.Class(0); cls < 2; cls++ {
			c.scratch[cls] = target.NoReg
			for r := int(cls) * fuzzRegsPerClass; r < int(cls+1)*fuzzRegsPerClass; r++ {
				if !usedAt[0][r] && !usedAt[1][r] {
					c.scratch[cls] = target.Reg(r)
					break
				}
			}
		}
	}
	return c
}

func (c *edgeCase) scratchFunc(cls target.Class) (target.Reg, bool) {
	if !c.hasScratch || c.scratch[cls] == target.NoReg {
		return target.NoReg, false
	}
	return c.scratch[cls], true
}

// check runs the code through simulate and checks the edge's contract:
// every register the successor expects holds its temporary, every other
// register that held a value still does, every required store reached
// its home, and no home holds another temporary's value.
func (c *edgeCase) check(t *testing.T, code []ir.Instr) {
	t.Helper()
	for i := range code {
		in := &code[i]
		switch in.Op {
		case ir.SpillLd:
			if in.Tag != tags.Load {
				t.Fatalf("load %d tagged %v", i, in.Tag)
			}
		case ir.SpillSt:
			if in.Tag != tags.Store {
				t.Fatalf("store %d tagged %v", i, in.Tag)
			}
		case ir.Mov, ir.FMov:
			if in.Tag != tags.Move {
				t.Fatalf("move %d tagged %v", i, in.Tag)
			}
			float := in.Defs[0].Reg >= fuzzRegsPerClass
			if float != (in.Op == ir.FMov) || float != (in.Uses[0].Reg >= fuzzRegsPerClass) {
				t.Fatalf("move %d crosses or mislabels register files: %v", i, in)
			}
		}
	}
	final := simulate(c.init, code)
	for l, v := range c.wantRegs {
		if final[l] != v {
			t.Fatalf("%v holds %d, want %d\ntransfers %v\ncode %v", l, final[l], v, c.ts, code)
		}
	}
	for l, v := range c.init {
		if l.Kind != LocReg {
			continue
		}
		if _, written := c.wantRegs[l]; !written && final[l] != v && l.Reg != c.scratch[0] && l.Reg != c.scratch[1] {
			t.Fatalf("%v clobbered: %d → %d\ntransfers %v\ncode %v", l, v, final[l], c.ts, code)
		}
	}
	for i := range c.init {
		if i.Kind != LocSlot {
			continue
		}
		tmp := ir.Temp(i.Slot - c.slotBase)
		v := final[i]
		if v != int(tmp)+1 && (c.stored[tmp] || v != -(int(tmp)+1)) {
			t.Fatalf("home of t%d holds %d\ntransfers %v\ncode %v", tmp, v, c.ts, code)
		}
	}
}

// FuzzSequence sequences random resolution edges through one reused
// Sequencer and checks each result against the location semantics of
// simulate, and against a fresh Sequencer's output (the pooled marks
// must be fully reset between calls). High slot numbers, near 1<<30,
// prove no working array is sized by slot.
func FuzzSequence(f *testing.F) {
	f.Add(int64(1), uint8(6), true, false)
	f.Add(int64(2), uint8(12), false, false)
	f.Add(int64(3), uint8(24), true, true)
	f.Add(int64(4), uint8(24), false, true)
	f.Add(int64(5), uint8(1), false, false)
	var sq Sequencer
	f.Fuzz(func(t *testing.T, seed int64, n uint8, withScratch, highSlots bool) {
		rng := rand.New(rand.NewSource(seed))
		base := 100
		if highSlots {
			base = 1<<30 - 64
		}
		for edge := 0; edge < 4; edge++ {
			c := buildEdge(rng, int(n%32), withScratch, base)
			code := sq.Sequence(c.ts, c.scratchFunc, c.slotOf, tags)
			c.check(t, code)
			if fresh := new(Sequencer).Sequence(c.ts, c.scratchFunc, c.slotOf, tags); !reflect.DeepEqual(code, fresh) {
				t.Fatalf("reused sequencer diverged from a fresh one\nreused %v\nfresh  %v", code, fresh)
			}
		}
	})
}

// TestSequenceHighSlots runs edges whose memory homes sit near 1<<30
// through one Sequencer: the slot number must never size anything.
func TestSequenceHighSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var sq Sequencer
	for iter := 0; iter < 200; iter++ {
		c := buildEdge(rng, 1+rng.Intn(24), iter%2 == 0, 1<<30-64)
		c.check(t, sq.Sequence(c.ts, c.scratchFunc, c.slotOf, tags))
	}
	if len(sq.slotSrc) > 32 || len(sq.regSrc) > 2*fuzzRegsPerClass {
		t.Fatalf("working arrays grew to %d slot and %d register entries", len(sq.slotSrc), len(sq.regSrc))
	}
}
