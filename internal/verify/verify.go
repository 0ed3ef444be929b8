// Package verify checks that an allocated procedure still computes the
// original program: a forward symbolic dataflow over machine locations
// (registers and spill slots) proves that every rewritten use reads the
// value of the temporary the original instruction named, along every
// path.
//
// The verifier consumes the OrigUses/OrigDefs side tables the allocators
// attach while rewriting. It is intentionally conservative: a use that
// reads a location the analysis cannot prove to hold the right value is
// an error. Calls clobber caller-saved registers, so convention bugs
// (keeping a live value in a caller-saved register across a call) are
// caught statically, complementing the VM's paranoid mode.
//
// One deliberate relaxation models the VM's zero-initialized temporary
// semantics: a use of a temporary that is not defined along every path
// reaching it ("maybe-undefined") is exempt from the location check
// when the location's symbolic content is unknown — i.e. the incoming
// paths disagree about what it holds, which is exactly the shape a
// skippable def produces. In the original program such a read yields
// the temp file's initial zero, so no allocation decision can be
// proven wrong against it — demanding a location proof on the
// structurally-skippable paths would reject correct whole-lifetime
// allocations (coloring, linear scan, two-pass binpacking) of
// generator programs whose defs sit inside loops that always execute
// but could statically be skipped. The exemption stays narrow: if
// every path agrees the location holds a different temporary's value,
// the defined paths are provably miscompiled and the use is still
// rejected, and uses defined along every path are checked exactly as
// before. The residual blind spot is acknowledged: a wrong-location
// read of a maybe-undefined temporary whose location is also unknown
// at the merge (e.g. a dropped resolution move for exactly such a
// temp) is indistinguishable from the legitimate skippable-def shape
// without path-sensitive analysis, and is accepted.
package verify

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/bitset"
	"repro/internal/ir"
	"repro/internal/scratch"
	"repro/internal/target"
)

// noValue marks a location whose content is unknown.
const noValue ir.Temp = -2

// verifier is the scratch of one Verify call, pooled across calls.
//
// The symbolic state — which temporary's value each machine location
// holds — is a dense vector of width entries: registers first (index
// r-regLo; regLo is 0 unless a hand-built procedure names a negative
// register), then spill slots offset from the procedure's smallest slot
// operand, so every slot an operand names is representable, including
// slots at or beyond NumSlots. Slot numbers spread far wider than the
// procedure has slot operands (only hand-written input does that) are
// instead ranked among the distinct numbers named, so the state never
// outgrows the procedure. All block in-states live in one slab.
type verifier struct {
	p      *ir.Proc
	regLo  int
	nregs  int
	slotLo int64
	sparse bool    // slots are ranked in slots, not offset from slotLo
	slots  []int64 // sorted distinct slot numbers when sparse
	width  int

	in      []ir.Temp // block b's in-state is in[b*width : (b+1)*width]
	reached []bool    // b's in-state is set (b is reachable)
	queued  []bool
	work    []int
	succOff []int // b's successors are succ[succOff[b]:succOff[b+1]]
	succ    []int
	st      []ir.Temp // the state being transferred
	clobber []int     // state indices of the caller-saved registers

	gen, mustIn   bitset.Slab
	must, mustOut bitset.Set
}

var pool = sync.Pool{New: func() any { return new(verifier) }}

func (v *verifier) row(b int) []ir.Temp { return v.in[b*v.width : (b+1)*v.width] }

func (v *verifier) succs(b int) []int { return v.succ[v.succOff[b]:v.succOff[b+1]] }

// locOf returns the state index of a register or slot operand.
func (v *verifier) locOf(o ir.Operand) (int, bool) {
	switch o.Kind {
	case ir.KindReg:
		return int(o.Reg) - v.regLo, true
	case ir.KindSlot:
		if v.sparse {
			i, _ := slices.BinarySearch(v.slots, o.Imm)
			return v.nregs + i, true
		}
		return v.nregs + int(o.Imm-v.slotLo), true
	}
	return 0, false
}

func locName(o ir.Operand) string {
	if o.Kind == ir.KindSlot {
		return fmt.Sprintf("slot%d", o.Imm)
	}
	return fmt.Sprintf("R%d", o.Reg)
}

// meet intersects other into s and reports change.
func meet(s, other []ir.Temp) bool {
	changed := false
	for i, x := range s {
		if x != noValue && x != other[i] {
			s[i] = noValue
			changed = true
		}
	}
	return changed
}

// Verify checks the allocated procedure p against the original program
// structure encoded in its OrigUses/OrigDefs annotations.
func Verify(p *ir.Proc, mach *target.Machine) error {
	if len(p.Blocks) == 0 {
		return fmt.Errorf("verify: %s: empty procedure", p.Name)
	}
	v := pool.Get().(*verifier)
	err := v.run(p, mach)
	v.p = nil
	pool.Put(v)
	return err
}

func (v *verifier) run(p *ir.Proc, mach *target.Machine) error {
	v.p = p
	v.layout(mach)
	v.indexSuccs()
	n := len(p.Blocks)

	// Entry state: each temporary's home slot holds its (initial zero)
	// value; everything else is unknown. Slot ownership is recovered
	// from the slot operands themselves.
	v.in = scratch.Grow(v.in, n*v.width)
	entry := v.row(0)
	for i := range entry {
		entry[i] = noValue
	}
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			v.seedEntry(entry, b.Instrs[i].Uses)
			v.seedEntry(entry, b.Instrs[i].Defs)
		}
	}

	// Fixpoint of in-states (decreasing lattice).
	v.reached = scratch.Grow(v.reached, n)
	v.queued = scratch.Grow(v.queued, n)
	clear(v.reached)
	clear(v.queued)
	v.reached[0] = true
	v.queued[0] = true
	v.work = append(v.work[:0], 0)
	v.st = scratch.Grow(v.st, v.width)
	st := v.st
	for len(v.work) > 0 {
		b := v.work[len(v.work)-1]
		v.work = v.work[:len(v.work)-1]
		v.queued[b] = false
		copy(st, v.row(b))
		v.transfer(p.Blocks[b], st, nil)
		for _, s := range v.succs(b) {
			if !v.reached[s] {
				v.reached[s] = true
				copy(v.row(s), st)
			} else if !meet(v.row(s), st) {
				continue
			}
			if !v.queued[s] {
				v.queued[s] = true
				v.work = append(v.work, s)
			}
		}
	}

	v.mustDefined()

	// Final pass with checks enabled.
	v.must.Reset(p.NumTemps())
	for i, b := range p.Blocks {
		if !v.reached[i] {
			continue // unreachable
		}
		copy(st, v.row(i))
		v.must.Copy(v.mustIn.Set(i))
		if err := v.transfer(b, st, &v.must); err != nil {
			return fmt.Errorf("verify: %s: block %s: %w", p.Name, b.Name, err)
		}
	}
	return nil
}

// layout sizes the state vector from the machine and the register and
// slot operands of the procedure, and lists the caller-saved registers.
func (v *verifier) layout(mach *target.Machine) {
	regLo, regHi := 0, mach.NumRegs()
	v.slots = v.slots[:0]
	span := func(ops []ir.Operand) {
		for _, o := range ops {
			switch o.Kind {
			case ir.KindReg:
				regLo = min(regLo, int(o.Reg))
				regHi = max(regHi, int(o.Reg)+1)
			case ir.KindSlot:
				v.slots = append(v.slots, o.Imm)
			}
		}
	}
	for _, b := range v.p.Blocks {
		for i := range b.Instrs {
			span(b.Instrs[i].Uses)
			span(b.Instrs[i].Defs)
		}
	}
	v.regLo, v.nregs = regLo, regHi-regLo
	v.width = v.nregs
	v.sparse = false
	if len(v.slots) > 0 {
		lo, hi := slices.Min(v.slots), slices.Max(v.slots)
		v.slotLo = lo
		// Unsigned, so no pair of int64 slot numbers overflows.
		v.sparse = uint64(hi)-uint64(lo) >= uint64(2*len(v.slots)+64)
		if v.sparse {
			slices.Sort(v.slots)
			v.slots = slices.Compact(v.slots)
			v.width += len(v.slots)
		} else {
			v.width += int(hi-lo) + 1
		}
	}
	v.clobber = v.clobber[:0]
	for r := 0; r < mach.NumRegs(); r++ {
		if mach.CallerSaved(target.Reg(r)) {
			v.clobber = append(v.clobber, r-regLo)
		}
	}
}

func (v *verifier) seedEntry(entry []ir.Temp, ops []ir.Operand) {
	for _, o := range ops {
		if o.Kind == ir.KindSlot && o.Temp != ir.NoTemp {
			l, _ := v.locOf(o)
			entry[l] = o.Temp
		}
	}
}

// indexSuccs flattens the CFG into block indices. Blocks are indexed by
// their position in p.Blocks so the verifier works on procedures that
// were never Renumber()ed (e.g. hand-built tests): a successor's Order
// is only a hint, confirmed by identity, with a map built when it fails.
func (v *verifier) indexSuccs() {
	blocks := v.p.Blocks
	n := len(blocks)
	var index map[*ir.Block]int
	v.succOff = scratch.Grow(v.succOff, n+1)
	v.succ = v.succ[:0]
	for i, b := range blocks {
		v.succOff[i] = len(v.succ)
		for _, s := range b.Succs {
			k := s.Order
			if k < 0 || k >= n || blocks[k] != s {
				if index == nil {
					index = make(map[*ir.Block]int, n)
					for j, c := range blocks {
						index[c] = j
					}
				}
				k = index[s]
			}
			v.succ = append(v.succ, k)
		}
	}
	v.succOff[n] = len(v.succ)
}

// mustDefined computes, per block, the set of temporaries defined along
// every path from entry to the block's top (a forward intersection
// dataflow over OrigDefs) into v.mustIn. Uses of temporaries outside
// this set read the VM's zero-initialized temp file in the original
// program and are exempt from location checking; see the package
// comment.
func (v *verifier) mustDefined() {
	nt := v.p.NumTemps()
	nb := len(v.p.Blocks)
	v.gen.Reset(nb, nt)
	v.mustIn.Reset(nb, nt)
	for i, b := range v.p.Blocks {
		g := v.gen.Set(i)
		for j := range b.Instrs {
			for _, t := range b.Instrs[j].OrigDefs {
				if t != ir.NoTemp {
					g.Add(int(t))
				}
			}
		}
		if i != 0 {
			v.mustIn.Set(i).Fill() // lattice top; entry starts empty
		}
	}
	v.work = append(v.work[:0], 0)
	v.queued[0] = true
	out := &v.mustOut
	out.Reset(nt)
	for len(v.work) > 0 {
		b := v.work[len(v.work)-1]
		v.work = v.work[:len(v.work)-1]
		v.queued[b] = false
		out.Copy(v.mustIn.Set(b))
		out.Union(v.gen.Set(b))
		for _, s := range v.succs(b) {
			if v.mustIn.Set(s).Intersect(out) && !v.queued[s] {
				v.queued[s] = true
				v.work = append(v.work, s)
			}
		}
	}
}

// transfer interprets one block symbolically, mutating st. When must is
// non-nil, use sites are validated and the first violation is returned;
// must then carries the must-defined set at the block's top and is
// updated as defs execute, so uses of maybe-undefined temporaries (zero
// in the VM's temp file) can be exempted.
func (v *verifier) transfer(b *ir.Block, st []ir.Temp, must *bitset.Set) error {
	p := v.p
	for i := range b.Instrs {
		instr := &b.Instrs[i]

		// Check original uses.
		if must != nil && instr.OrigUses != nil {
			for ui, t := range instr.OrigUses {
				if t == ir.NoTemp {
					continue
				}
				l, ok := v.locOf(instr.Uses[ui])
				if !ok {
					return fmt.Errorf("%v: use %d of %s not in a location", instr.Op, ui, p.TempName(t))
				}
				if held := st[l]; held != t {
					if held == noValue && !must.Contains(int(t)) {
						// Maybe-undefined and the location's content is
						// unknown (the paths disagree about it): the
						// original program reads the zero-initialized
						// temp file here, so the location check is
						// waived (see the package comment). If every
						// path instead agrees the location holds a
						// DIFFERENT temporary's value, the defined
						// paths are provably wrong and the error
						// stands.
						continue
					}
					have := "unknown"
					if held != noValue {
						have = p.TempName(held)
					}
					return fmt.Errorf("%v at pos %d: use of %s reads %s which holds %s",
						instr.Op, instr.Pos, p.TempName(t), locName(instr.Uses[ui]), have)
				}
			}
		}

		// Spill instructions carrying Orig annotations are original
		// instructions of the program being verified: graph coloring's
		// spill rewrite introduces fresh temporaries whose defining
		// loads and storing stores are part of the (already rewritten)
		// program, not allocator data movement.
		spillIsOriginal := (instr.Op == ir.SpillLd && instr.OrigDefs != nil && instr.OrigDefs[0] != ir.NoTemp) ||
			(instr.Op == ir.SpillSt && instr.OrigUses != nil && instr.OrigUses[0] != ir.NoTemp)

		switch {
		case instr.Op == ir.Call:
			// Caller-saved registers die. (Return registers too: the
			// value they carry afterwards belongs to the callee and is
			// claimed by the convention move's original def.)
			for _, r := range v.clobber {
				st[r] = noValue
			}
		case (instr.Op == ir.SpillLd || instr.Op == ir.SpillSt) && !spillIsOriginal,
			instr.Op.IsMove() && instr.OrigDefs == nil:
			// Pure data movement inserted by the allocator (or a
			// convention move with no temp def): the destination now
			// holds whatever the source held.
			var src, dst ir.Operand
			if instr.Op == ir.SpillSt {
				src, dst = instr.Uses[0], instr.Uses[1]
			} else {
				src, dst = instr.Uses[0], instr.Defs[0]
			}
			dl, ok := v.locOf(dst)
			if !ok {
				break
			}
			if sl, ok := v.locOf(src); ok {
				st[dl] = st[sl]
			} else {
				st[dl] = noValue
			}
		case instr.Op == ir.SpillSt && spillIsOriginal:
			// An original store of a fresh spill temporary: the slot
			// now holds that temporary's value (its use was checked
			// above).
			if l, ok := v.locOf(instr.Uses[1]); ok {
				st[l] = instr.OrigUses[0]
			}
		default:
			// Original computation (or a rewritten original move):
			// original defs produce fresh values of their temporaries.
			for di := range instr.Defs {
				l, ok := v.locOf(instr.Defs[di])
				var t ir.Temp = ir.NoTemp
				if instr.OrigDefs != nil {
					t = instr.OrigDefs[di]
				}
				if t == ir.NoTemp {
					// A write to machine state not tied to a temp. A
					// move still forwards its source's value.
					if ok {
						held := noValue
						if instr.Op.IsMove() {
							if sl, sok := v.locOf(instr.Uses[0]); sok {
								held = st[sl]
							}
						}
						st[l] = held
					}
					continue
				}
				for k, x := range st {
					if x == t {
						st[k] = noValue
					}
				}
				if ok {
					st[l] = t
				}
			}
		}

		if must != nil {
			for _, t := range instr.OrigDefs {
				if t != ir.NoTemp {
					must.Add(int(t))
				}
			}
		}
	}
	return nil
}
