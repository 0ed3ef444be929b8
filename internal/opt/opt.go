// Package opt implements the optimization passes that bracket register
// allocation in the paper's experimental pipeline (§3): dead-code
// elimination before allocation, and a peephole pass afterwards that
// deletes moves the allocators collapsed (both allocators rewrite
// coalesced moves into self-moves and leave the deletion to this pass).
// An optional store-to-load forwarding pass implements the local version
// of the load/store sinking the paper sketches as follow-on work (§2.4).
//
// Worker.Allocate is the pass ordering itself, the one per-procedure
// pipeline of the repository: the engine serves with it, and the
// experiment drivers and conformance grids run through it.
package opt

import (
	"slices"

	"repro/internal/alloc"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/scratch"
	"repro/internal/target"
)

// Scratch is the reusable working storage of the dead-code pass. One
// Scratch serves one goroutine (each Worker holds one); the zero value
// is ready to use.
type Scratch struct {
	state   []uint8   // per temporary: sweep state in the current block
	touched []ir.Temp // temporaries whose state is set, reset per block
	buf     []ir.Temp
}

// DeadCodeElim removes instructions whose results are never used: a def
// of a temporary not live after the instruction, with no side effects.
// Instructions defining physical registers, stores, calls and
// terminators are always kept. Each round solves liveness into df and
// sweeps the blocks against it, until a round removes nothing; that
// last round's liveness is exact for p as the pass leaves it
// (renumbered), so it is returned for the allocator to consume,
// together with the number of instructions removed. The liveness is
// owned by df and valid until its next Compute. tm charges each solve
// to alloc.PhaseDataflow and each sweep to alloc.PhaseOpt in st.
func (sc *Scratch) DeadCodeElim(p *ir.Proc, df *dataflow.Scratch, tm *alloc.Timer, st *alloc.Stats) (*dataflow.Liveness, int) {
	removed := 0
	for {
		p.Renumber()
		lv := df.Compute(p)
		tm.Mark(st, alloc.PhaseDataflow)
		n := sc.sweep(p, lv)
		tm.Mark(st, alloc.PhaseOpt)
		removed += n
		if n == 0 {
			return lv, removed
		}
	}
}

// DeadCodeElim is Scratch.DeadCodeElim with throwaway storage and no
// phase timing.
func DeadCodeElim(p *ir.Proc) (*dataflow.Liveness, int) {
	tm := alloc.NewTimer(false)
	return new(Scratch).DeadCodeElim(p, new(dataflow.Scratch), &tm, new(alloc.Stats))
}

// Per-block liveness states of the backward sweep. A temporary the
// walk has not touched yet in the current block is live exactly when
// the block's live-out set holds it, so the sweep never materializes
// that set: it costs O(instructions), not O(blocks × live temporaries).
const (
	untouched uint8 = iota
	liveHere
	deadHere
)

// sweep walks each block backward and deletes removable instructions
// whose defs are all dead, compacting the block in place.
func (sc *Scratch) sweep(p *ir.Proc, lv *dataflow.Liveness) int {
	removed := 0
	sc.state = scratch.GrowCleared(sc.state, p.NumTemps())
	state, touched, buf := sc.state, sc.touched[:0], sc.buf
	for _, b := range p.Blocks {
		liveOut := lv.LiveOut[b.Order]
		isLive := func(t ir.Temp) bool {
			switch state[t] {
			case liveHere:
				return true
			case deadHere:
				return false
			}
			gi := lv.Index[t]
			return gi >= 0 && liveOut.Contains(int(gi))
		}
		set := func(t ir.Temp, st uint8) {
			if state[t] == untouched {
				touched = append(touched, t)
			}
			state[t] = st
		}
		// Kept instructions slide to the block's tail as the walk goes,
		// so w is the first kept slot.
		instrs := b.Instrs
		w := len(instrs)
		for i := len(instrs) - 1; i >= 0; i-- {
			in := &instrs[i]
			buf = in.DefTemps(buf[:0])
			if isRemovable(in) && len(buf) > 0 && !slices.ContainsFunc(buf, isLive) {
				removed++
				continue // a dead instruction's uses do not count
			}
			for _, t := range buf {
				set(t, deadHere)
			}
			buf = in.UseTemps(buf[:0])
			for _, t := range buf {
				set(t, liveHere)
			}
			w--
			if w != i {
				instrs[w] = *in
			}
		}
		if w > 0 {
			b.Instrs = instrs[:copy(instrs, instrs[w:])]
		}
		for _, t := range touched {
			state[t] = untouched
		}
		touched = touched[:0]
	}
	sc.touched, sc.buf = touched, buf
	return removed
}

// isRemovable reports whether the instruction may be deleted when its
// results are dead: pure value computations writing only temporaries.
func isRemovable(in *ir.Instr) bool {
	switch in.Op {
	case ir.St, ir.FSt, ir.SpillSt, ir.Call, ir.Jmp, ir.Br, ir.Ret, ir.Nop:
		return false
	}
	for _, d := range in.Defs {
		if d.Kind != ir.KindTemp {
			return false // writes machine state
		}
	}
	return len(in.Defs) == 1
}

// Peephole deletes self-moves (mov r, r) produced by move coalescing in
// either allocator, and returns the number of instructions removed.
func Peephole(p *ir.Proc) int {
	removed := 0
	for _, b := range p.Blocks {
		out := b.Instrs[:0]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op.IsMove() &&
				in.Defs[0].Kind == ir.KindReg && in.Uses[0].Kind == ir.KindReg &&
				in.Defs[0].Reg == in.Uses[0].Reg {
				removed++
				continue
			}
			out = append(out, b.Instrs[i])
		}
		b.Instrs = out
	}
	return removed
}

// ForwardStores performs local store-to-load forwarding on allocated
// code: within a block, a spill load from a slot whose value is known to
// be in a register (because a spill store from that register is still
// valid) becomes a register move; a reload into the same register is
// deleted outright. This is the local version of the post-allocation
// cleanup the paper suggests ("a later code motion pass that tries to
// sink stores and hoist loads until they meet", §2.4). Returns the number
// of instructions rewritten or removed.
func ForwardStores(p *ir.Proc, mach *target.Machine) int {
	changed := 0
	type slotVal struct {
		reg ir.Operand
		ok  bool
	}
	for _, b := range p.Blocks {
		known := map[int64]slotVal{} // slot -> register holding its value
		out := b.Instrs[:0]
		for i := range b.Instrs {
			in := b.Instrs[i]
			switch {
			case in.Op == ir.SpillSt && in.Uses[0].Kind == ir.KindReg:
				known[in.Uses[1].Imm] = slotVal{reg: in.Uses[0], ok: true}
			case in.Op == ir.SpillLd && in.Defs[0].Kind == ir.KindReg:
				slot := in.Uses[0].Imm
				if v, ok := known[slot]; ok && v.ok {
					if v.reg.Reg == in.Defs[0].Reg {
						changed++ // reload of a value already in place
						continue
					}
					op := ir.Mov
					if mach.RegClass(in.Defs[0].Reg) == target.ClassFloat {
						op = ir.FMov
					}
					in = ir.Instr{Op: op, Tag: in.Tag, Pos: in.Pos,
						Defs: in.Defs, Uses: []ir.Operand{v.reg},
						OrigUses: in.OrigUses, OrigDefs: in.OrigDefs}
					changed++
				}
				// The load wrote its destination register: slots
				// mirrored there are stale, and the loaded register now
				// mirrors this slot.
				for s, v := range known {
					if v.reg.Reg == in.Defs[0].Reg {
						delete(known, s)
					}
				}
				known[slot] = slotVal{reg: in.Defs[0], ok: true}
			case in.Op == ir.Call:
				// Calls clobber caller-saved registers; forget
				// everything to stay conservative.
				known = map[int64]slotVal{}
			default:
				// Any def of a register invalidates slots mirrored there.
				for _, d := range in.Defs {
					if d.Kind != ir.KindReg {
						continue
					}
					for s, v := range known {
						if v.reg.Reg == d.Reg {
							delete(known, s)
						}
					}
				}
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	return changed
}
