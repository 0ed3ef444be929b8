package verify_test

import (
	"math/rand"
	"testing"

	"repro/internal/alloc"
	_ "repro/internal/coloring"
	_ "repro/internal/core"
	"repro/internal/ir"
	_ "repro/internal/linearscan"
	"repro/internal/opt"
	_ "repro/internal/oracle"
	"repro/internal/progs"
	"repro/internal/target"
	"repro/internal/verify"
)

// agree runs the dense verifier and the map-based reference on p and
// fails the test unless both accept, or both reject with the same
// message. It returns the dense verifier's verdict.
func agree(t *testing.T, what string, p *ir.Proc, mach *target.Machine) error {
	t.Helper()
	got, want := verify.Verify(p, mach), refVerify(p, mach)
	switch {
	case (got == nil) != (want == nil):
		t.Errorf("%s: dense verifier says %v, reference says %v", what, got, want)
	case got != nil && got.Error() != want.Error():
		t.Errorf("%s: messages differ:\n dense:     %v\n reference: %v", what, got, want)
	}
	return got
}

// site is one instruction of a procedure; op is an operand index where
// the mutation needs one.
type site struct{ b, i, op int }

// mutation is a seeded corruption of allocated code of the kind an
// allocator bug produces. apply reports false when p offers no site.
type mutation struct {
	name  string
	apply func(p *ir.Proc, mach *target.Machine, rng *rand.Rand) bool
}

func sites(p *ir.Proc, match func(in *ir.Instr) []int) []site {
	var out []site
	for bi, b := range p.Blocks {
		for ii := range b.Instrs {
			for _, op := range match(&b.Instrs[ii]) {
				out = append(out, site{bi, ii, op})
			}
		}
	}
	return out
}

func deleteTagged(tag ir.Tag) func(*ir.Proc, *target.Machine, *rand.Rand) bool {
	return func(p *ir.Proc, _ *target.Machine, rng *rand.Rand) bool {
		ss := sites(p, func(in *ir.Instr) []int {
			if in.Tag == tag {
				return []int{0}
			}
			return nil
		})
		if len(ss) == 0 {
			return false
		}
		s := ss[rng.Intn(len(ss))]
		b := p.Blocks[s.b]
		b.Instrs = append(b.Instrs[:s.i], b.Instrs[s.i+1:]...)
		return true
	}
}

var mutations = []mutation{
	{"drop-resolve-move", deleteTagged(ir.TagResolveMove)},
	{"retarget-spill-load", func(p *ir.Proc, _ *target.Machine, rng *rand.Rand) bool {
		ss := sites(p, func(in *ir.Instr) []int {
			if in.Op == ir.SpillLd && in.Uses[0].Kind == ir.KindSlot {
				return []int{0}
			}
			return nil
		})
		if len(ss) == 0 {
			return false
		}
		s := ss[rng.Intn(len(ss))]
		o := &p.Blocks[s.b].Instrs[s.i].Uses[0]
		// Another slot of the frame, or one past its end.
		o.Imm = (o.Imm + 1 + int64(rng.Intn(p.NumSlots+1))) % int64(p.NumSlots+1)
		return true
	}},
	{"swap-register-operand", func(p *ir.Proc, mach *target.Machine, rng *rand.Rand) bool {
		ss := sites(p, func(in *ir.Instr) []int {
			var ops []int
			for ui, t := range in.OrigUses {
				if t != ir.NoTemp && in.Uses[ui].Kind == ir.KindReg {
					ops = append(ops, ui)
				}
			}
			return ops
		})
		if len(ss) == 0 {
			return false
		}
		s := ss[rng.Intn(len(ss))]
		o := &p.Blocks[s.b].Instrs[s.i].Uses[s.op]
		order := mach.AllocOrder(mach.RegClass(o.Reg))
		if len(order) < 2 {
			return false
		}
		r := order[rng.Intn(len(order))]
		for r == o.Reg {
			r = order[rng.Intn(len(order))]
		}
		o.Reg = r
		return true
	}},
	{"delete-callee-restore", deleteTagged(ir.TagRestore)},
}

// TestDenseMatchesReference allocates every generator profile on every
// machine preset with every registered allocator, then checks the
// allocation and seeded corruptions of it: the dense verifier must
// accept and reject exactly what the map-based reference does, with
// identical messages.
func TestDenseMatchesReference(t *testing.T) {
	nSeeds := 2
	if testing.Short() {
		nSeeds = 1
	}
	applied := map[string]int{}
	rejected := map[string]int{}
	for _, machName := range target.PresetNames() {
		mach, err := target.Parse(machName)
		if err != nil {
			t.Fatal(err)
		}
		for _, profile := range progs.Profiles() {
			for seed := int64(1); seed <= int64(nSeeds); seed++ {
				cfg, err := progs.ProfileGen(profile, seed)
				if err != nil {
					t.Fatal(err)
				}
				prog := progs.Random(mach, cfg)
				for _, algo := range alloc.Names() {
					f, _ := alloc.Lookup(algo)
					rng := rand.New(rand.NewSource(seed))
					for _, src := range prog.Procs {
						in := src.Clone()
						opt.DeadCodeElim(in)
						res, err := alloc.AllocateClone(f(mach), mach, in, nil)
						if err != nil {
							t.Fatalf("%s/%s/%s/%d: %v", algo, machName, profile, seed, err)
						}
						what := algo + "/" + machName + "/" + profile + "/" + src.Name
						if err := agree(t, what, res.Proc, mach); err != nil {
							t.Errorf("%s: allocation rejected: %v", what, err)
						}
						for _, m := range mutations {
							for k := 0; k < 2; k++ {
								q := res.Proc.Clone()
								if !m.apply(q, mach, rng) {
									break
								}
								applied[m.name]++
								if agree(t, what+"/"+m.name, q, mach) != nil {
									rejected[m.name]++
								}
							}
						}
					}
				}
			}
		}
	}
	for _, m := range mutations {
		t.Logf("%s: %d applied, %d rejected", m.name, applied[m.name], rejected[m.name])
		if applied[m.name] == 0 {
			t.Errorf("mutation %s never applied: the grid does not exercise it", m.name)
		}
	}
	if rejected["swap-register-operand"] == 0 || rejected["retarget-spill-load"] == 0 {
		t.Error("corruptions never rejected: the differential check is vacuous")
	}
}

// spillProc is a hand-built allocated procedure that keeps x in a spill
// slot across a call: def x in r1, store to slot, call, reload into r2,
// use from r2.
func spillProc(mach *target.Machine, slot int) *ir.Proc {
	p := ir.NewProc("main")
	x := p.NewTemp(target.ClassInt, "x")
	r1 := mach.Reg(target.ClassInt, 1)
	r2 := mach.Reg(target.ClassInt, 2)
	p.NewBlock("entry").Instrs = []ir.Instr{
		{Op: ir.Ldi, Defs: []ir.Operand{ir.RegOp(r1)}, Uses: []ir.Operand{ir.ImmOp(5)},
			OrigDefs: []ir.Temp{x}, OrigUses: []ir.Temp{ir.NoTemp}},
		{Op: ir.SpillSt, Uses: []ir.Operand{ir.RegOp(r1), ir.SlotOp(slot, x)}},
		{Op: ir.Call, Uses: []ir.Operand{ir.SymOp("getc")},
			Defs: []ir.Operand{ir.RegOp(mach.RetReg(target.ClassInt))}},
		{Op: ir.SpillLd, Defs: []ir.Operand{ir.RegOp(r2)}, Uses: []ir.Operand{ir.SlotOp(slot, x)}},
		{Op: ir.Add, Defs: []ir.Operand{ir.RegOp(r1)}, Uses: []ir.Operand{ir.RegOp(r2), ir.ImmOp(1)},
			OrigDefs: []ir.Temp{ir.NoTemp}, OrigUses: []ir.Temp{x, ir.NoTemp}},
		{Op: ir.Ret},
	}
	return p
}

func TestDenseNoSlotOperands(t *testing.T) {
	mach := target.Tiny(6, 3)
	p := spillProc(mach, 0)
	// Drop the spill round trip and read x straight from r1, so the
	// procedure names no slot at all.
	b := p.Blocks[0]
	b.Instrs = []ir.Instr{b.Instrs[0], b.Instrs[4], b.Instrs[5]}
	b.Instrs[1].Uses[0] = ir.RegOp(mach.Reg(target.ClassInt, 1))
	if err := agree(t, "no slots", p, mach); err != nil {
		t.Fatalf("accepted by neither: %v", err)
	}
	b.Instrs[1].Uses[0] = ir.RegOp(mach.Reg(target.ClassInt, 2))
	if agree(t, "no slots, wrong register", p, mach) == nil {
		t.Fatal("wrong-register use accepted")
	}
}

func TestDenseSlotBeyondNumSlots(t *testing.T) {
	mach := target.Tiny(6, 3)
	for _, slot := range []int{0, 3, 40} {
		p := spillProc(mach, slot)
		p.NumSlots = 1 // stale frame size: slots 3 and 40 lie beyond it
		if err := agree(t, "slot beyond NumSlots", p, mach); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		// Reload from a different slot: the value is not there.
		p.Blocks[0].Instrs[3].Uses[0].Imm = int64(slot + 2)
		if agree(t, "reload from another slot", p, mach) == nil {
			t.Fatalf("slot %d: reload from the wrong slot accepted", slot)
		}
	}
}

// TestDenseSparseSlots covers slot numbers spread far wider than the
// procedure has slot operands, negative ones included: the state must
// stay small and still tell the slots apart.
func TestDenseSparseSlots(t *testing.T) {
	mach := target.Tiny(6, 3)
	r1 := mach.Reg(target.ClassInt, 1)
	for _, far := range []int{1 << 40, -1 << 40, 1<<62 + 12345} {
		p := spillProc(mach, 0)
		b := p.Blocks[0]
		b.Instrs[3].Uses[0].Imm = int64(far)
		if agree(t, "reload from an unwritten far slot", p, mach) == nil {
			t.Fatalf("slot %d: reload from an unwritten slot accepted", far)
		}
		// Store x to the far slot as well as to slot 0.
		store := b.Instrs[1]
		store.Uses = []ir.Operand{ir.RegOp(r1), ir.SlotOp(far, store.Uses[1].Temp)}
		b.Instrs = append(b.Instrs[:2:2], append([]ir.Instr{store}, b.Instrs[2:]...)...)
		if err := agree(t, "far slot round trip", p, mach); err != nil {
			t.Fatalf("slot %d: %v", far, err)
		}
		// Reload from the neighbouring slot, written after the call
		// clobbered r1: the value is lost.
		y := p.NewTemp(target.ClassInt, "y")
		b.Instrs = append(b.Instrs[:4:4], append([]ir.Instr{
			{Op: ir.SpillSt, Uses: []ir.Operand{ir.RegOp(r1), ir.SlotOp(far+1, y)}},
		}, b.Instrs[4:]...)...)
		b.Instrs[5].Uses[0].Imm = int64(far + 1)
		if agree(t, "reload from the neighbouring far slot", p, mach) == nil {
			t.Fatalf("slot %d: reload from the neighbouring slot accepted", far)
		}
	}
	// The pooled state must drop the sparse layout on the next call.
	if err := agree(t, "dense after sparse", spillProc(mach, 2), mach); err != nil {
		t.Fatal(err)
	}
}

// TestDenseUnrenumberedProc checks a hand-built CFG whose block Orders
// do not match the layout order, so the verifier must index blocks by
// identity.
func TestDenseUnrenumberedProc(t *testing.T) {
	mach := target.Tiny(6, 3)
	p := ir.NewProc("main")
	x := p.NewTemp(target.ClassInt, "x")
	r1 := mach.Reg(target.ClassInt, 1)
	r2 := mach.Reg(target.ClassInt, 2)
	r3 := mach.Reg(target.ClassInt, 3)
	join := p.NewBlock("join")
	a := p.NewBlock("a")
	entry := p.NewBlock("entry")
	bb := p.NewBlock("b")
	p.Blocks = []*ir.Block{entry, a, bb, join}
	a.Order, join.Order = 3, 1 // stale Orders that point at the wrong blocks

	entry.Instrs = []ir.Instr{
		{Op: ir.Ldi, Defs: []ir.Operand{ir.RegOp(r3)}, Uses: []ir.Operand{ir.ImmOp(0)}},
		{Op: ir.Br, Uses: []ir.Operand{ir.RegOp(r3)}},
	}
	ir.AddEdge(entry, a)
	ir.AddEdge(entry, bb)
	a.Instrs = []ir.Instr{
		{Op: ir.Ldi, Defs: []ir.Operand{ir.RegOp(r1)}, Uses: []ir.Operand{ir.ImmOp(1)},
			OrigDefs: []ir.Temp{x}, OrigUses: []ir.Temp{ir.NoTemp}},
		{Op: ir.Jmp},
	}
	ir.AddEdge(a, join)
	bb.Instrs = []ir.Instr{
		{Op: ir.Ldi, Defs: []ir.Operand{ir.RegOp(r2)}, Uses: []ir.Operand{ir.ImmOp(2)},
			OrigDefs: []ir.Temp{x}, OrigUses: []ir.Temp{ir.NoTemp}},
		{Op: ir.Mov, Tag: ir.TagResolveMove, Defs: []ir.Operand{ir.RegOp(r1)}, Uses: []ir.Operand{ir.RegOp(r2)}},
		{Op: ir.Jmp},
	}
	ir.AddEdge(bb, join)
	join.Instrs = []ir.Instr{
		{Op: ir.Add, Defs: []ir.Operand{ir.RegOp(r3)}, Uses: []ir.Operand{ir.RegOp(r1), ir.ImmOp(0)},
			OrigDefs: []ir.Temp{ir.NoTemp}, OrigUses: []ir.Temp{x, ir.NoTemp}},
		{Op: ir.Ret},
	}
	if err := agree(t, "resolved join", p, mach); err != nil {
		t.Fatalf("resolved join rejected: %v", err)
	}
	bb.Instrs = append(bb.Instrs[:1], bb.Instrs[2:]...)
	if agree(t, "unresolved join", p, mach) == nil {
		t.Fatal("disagreeing join accepted")
	}
}
