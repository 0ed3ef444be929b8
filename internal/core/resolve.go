package core

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/ir"
	"repro/internal/moves"
	"repro/internal/target"
)

// edgeFix is one CFG edge's repair code, collected before mutation.
type edgeFix struct {
	pred, succ *ir.Block
	code       []ir.Instr
}

// resolve repairs the linear-order allocation assumptions across every CFG
// edge (§2.4). For each edge p→s and each temporary live into s it
// compares the location recorded at p's bottom with the one assumed at
// s's top and emits stores, loads and moves — sequenced as a parallel
// copy so register swaps come out in a semantically correct order. It
// also runs the USED_CONSISTENCY dataflow and inserts the stores required
// where a path reaches a point that exploited register/memory consistency
// the path does not provide. Edges whose ends already agree are
// skipped without a walk (edgeAgrees). sc supplies the pooled working
// storage.
func (s *scan) resolve(sc *scanScratch) {
	usedCIn := s.usedConsistencyIn()
	fixes := sc.fixes[:0]

	// Collect all repairs before mutating the CFG (edge splitting would
	// otherwise disturb iteration and positions).
	blocks := append(sc.rblocks[:0], s.p.Blocks...)
	sc.rblocks = blocks
	for _, pb := range blocks {
		for _, sb := range pb.Succs {
			if s.edgeAgrees(pb, sb, usedCIn) {
				continue
			}
			code := s.resolveEdge(pb, sb, usedCIn, sc)
			if len(code) > 0 {
				fixes = append(fixes, edgeFix{pred: pb, succ: sb, code: code})
			}
		}
	}
	for _, f := range fixes {
		switch {
		case len(f.pred.Succs) == 1:
			// Place at the bottom of the predecessor, before its
			// (single-target, operand-free) terminator.
			n := len(f.pred.Instrs)
			instrs := make([]ir.Instr, 0, n+len(f.code))
			instrs = append(instrs, f.pred.Instrs[:n-1]...)
			instrs = append(instrs, f.code...)
			instrs = append(instrs, f.pred.Instrs[n-1])
			f.pred.Instrs = instrs
		case len(f.succ.Preds) == 1:
			f.succ.Instrs = append(f.code, f.succ.Instrs...)
		default:
			// Critical edge: split it to get a safe home for the code.
			nb := s.p.SplitEdge(f.pred, f.succ)
			nb.Instrs = append(f.code, nb.Instrs...)
			nb.Depth = f.succ.Depth
			if f.pred.Depth < nb.Depth {
				nb.Depth = f.pred.Depth
			}
		}
	}
	// Return the fix list and block snapshot to the scratch with their
	// references dropped, so the pooled backing does not retain the
	// procedure's repair code or blocks (and through them the whole
	// rewritten procedure's arenas).
	for i := range fixes {
		fixes[i] = edgeFix{}
	}
	sc.fixes = fixes[:0]
	clear(blocks)
	sc.rblocks = blocks[:0]
}

// usedConsistencyIn solves the USED_CONSISTENCY dataflow (§2.4): per
// block, the globals whose register/memory consistency some path from
// the block's top relies on. It is nil in strictly linear mode, which
// never relies on consistency established elsewhere.
func (s *scan) usedConsistencyIn() []*bitset.Set {
	ng := s.lv.NumGlobals()
	if s.opts.StrictLinear || ng == 0 {
		return nil
	}
	// The solver scratch is distinct from the one liveness came from:
	// LiveIn/LiveOut stay valid while this solve runs.
	in, _ := s.consSolver.Solve(s.p.Blocks, ng,
		func(b *ir.Block) *bitset.Set { return s.usedC[b.Order] },
		func(b *ir.Block) *bitset.Set { return s.wrote[b.Order] })
	return in
}

// resolveEdge computes the repair code for one edge by walking the
// successor's live-in globals. Locations at the predecessor's bottom and
// the successor's top come from the dense botRegs/topRegs arrays: the
// k-th live-in global of a block (ascending global index) is the k-th
// entry, and membership rank recovers the position for point lookups.
func (s *scan) resolveEdge(pb, sb *ir.Block, usedCIn []*bitset.Set, sc *scanScratch) []ir.Instr {
	bot := s.botRegs[pb.Order]
	top := s.topRegs[sb.Order]
	outP := s.lv.LiveOut[pb.Order]
	consP := s.savedCons[pb.Order]

	ts := sc.transfers[:0]
	busyRegs := sc.busyRegs
	busyDirty := sc.busyDirty[:0]
	markBusy := func(r target.Reg) {
		if !busyRegs[r] {
			busyRegs[r] = true
			busyDirty = append(busyDirty, r)
		}
	}

	k := 0 // rank of gi in LiveIn[sb]
	// Rank cursor over LiveOut[pb]: ForEach ascends, so each lookup
	// advances incrementally instead of rescanning the words (a full
	// Rank per temp would make dense edges quadratic in the universe).
	prevGi, prevRank := 0, 0
	s.lv.LiveIn[sb.Order].ForEach(func(gi int) {
		ls := top[k]
		k++
		t := s.lv.Globals[gi]
		cls := s.p.TempClass(t)
		lp := target.NoReg
		if outP.Contains(gi) {
			r := prevRank + outP.CountRange(prevGi, gi)
			prevGi, prevRank = gi, r
			lp = bot[r]
		}
		inRegP := lp != target.NoReg
		inRegS := ls != target.NoReg
		if inRegP {
			markBusy(lp)
		}
		if inRegS {
			markBusy(ls)
		}
		needCons := usedCIn != nil && usedCIn[sb.Order].Contains(gi)
		consAtP := consP.Contains(gi)

		switch {
		case inRegP && inRegS:
			if lp != ls {
				// "If the temporary was in two different registers
				// across the edge, we insert a move instruction."
				ts = append(ts, moves.Transfer{Temp: t, Class: cls,
					Src: moves.RegLoc(lp), Dst: moves.RegLoc(ls)})
			}
			if needCons && !consAtP {
				ts = append(ts, moves.Transfer{Temp: t, Class: cls,
					Src: moves.RegLoc(lp), Dst: moves.SlotLoc(s.frame.SlotOf(t))})
			}
		case inRegP && !inRegS:
			// Register → memory: "we insert a store instruction (but
			// only if a temporary's allocated register and memory home
			// are inconsistent)."
			if !consAtP {
				ts = append(ts, moves.Transfer{Temp: t, Class: cls,
					Src: moves.RegLoc(lp), Dst: moves.SlotLoc(s.frame.SlotOf(t))})
			}
		case !inRegP && inRegS:
			// Memory → register: load.
			ts = append(ts, moves.Transfer{Temp: t, Class: cls,
				Src: moves.SlotLoc(s.frame.SlotOf(t)), Dst: moves.RegLoc(ls)})
		}
	})
	sc.transfers = ts
	unmark := func() {
		for _, r := range busyDirty {
			busyRegs[r] = false
		}
		sc.busyDirty = busyDirty[:0]
	}
	if len(ts) == 0 {
		unmark()
		return nil
	}

	// The repair code runs on the edge: before sb's first original
	// instruction (top or split placement) or before pb's Jmp (bottom
	// placement). A scratch register for cycle breaking must be dead
	// there: not holding any live-in value on either side and not
	// hard-busy at the boundary.
	boundaryPos := pb.Instrs[len(pb.Instrs)-1].Pos
	if len(sb.Instrs) > 0 {
		boundaryPos = sb.Instrs[0].Pos
	}
	scratch := func(c target.Class) (target.Reg, bool) {
		for _, r := range s.mach.AllocOrder(c) {
			if busyRegs[r] || s.rb.BusyAt(r, boundaryPos) {
				continue
			}
			if !s.mach.CallerSaved(r) && !s.usedCallee[r] {
				continue // a fresh callee-saved register would need an unplanned save
			}
			return r, true
		}
		return target.NoReg, false
	}
	code := sc.seq.Sequence(ts, scratch, s.frame.SlotOf,
		moves.Tags{Load: ir.TagResolveLoad, Store: ir.TagResolveStore, Move: ir.TagResolveMove})
	unmark()
	return code
}

// edgeAgrees reports, without walking the successor's live-in set,
// that edge pb→sb needs no repair code (resolveEdge would return none).
// Both ends carry the same globals in the same locations, so no move,
// load or store is due; and no global the successor needs consistent
// (USED_CONSISTENCY in) is inconsistent at the predecessor's bottom, so
// no consistency store is due either. About half the edges of the
// Table 3 modules agree.
func (s *scan) edgeAgrees(pb, sb *ir.Block, usedCIn []*bitset.Set) bool {
	inS := s.lv.LiveIn[sb.Order]
	if !s.lv.LiveOut[pb.Order].Equal(inS) || !slices.Equal(s.botRegs[pb.Order], s.topRegs[sb.Order]) {
		return false
	}
	return usedCIn == nil || !usedCIn[sb.Order].IntersectsDiff(inS, s.savedCons[pb.Order])
}
