// Package moves sequences parallel location transfers into an equivalent
// ordered list of move/load/store instructions.
//
// The paper's resolution phase must emit, on each CFG edge, a set of
// loads, stores, and moves "in the semantically-correct order, even in
// the case where two (or more) temporaries swap their allocated
// registers" (§2.4) — the same problem as replacing SSA phi-nodes by
// moves. Each temporary has at most one transfer per edge, and its spill
// slot belongs to it alone, so the transfer graph is a set of chains plus
// simple register cycles. Chains are emitted leaf-first; cycles are
// broken either through a scratch register or through the moving
// temporary's own spill slot.
package moves

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/target"
)

// LocKind discriminates transfer endpoints.
type LocKind uint8

const (
	// LocReg is a physical register.
	LocReg LocKind = iota
	// LocSlot is a stack slot.
	LocSlot
)

// Loc is a transfer endpoint: a register or a stack slot.
type Loc struct {
	Kind LocKind
	Reg  target.Reg
	Slot int
}

// RegLoc returns a register location.
func RegLoc(r target.Reg) Loc { return Loc{Kind: LocReg, Reg: r} }

// SlotLoc returns a stack-slot location.
func SlotLoc(s int) Loc { return Loc{Kind: LocSlot, Slot: s} }

func (l Loc) String() string {
	if l.Kind == LocReg {
		return fmt.Sprintf("r%d", l.Reg)
	}
	return fmt.Sprintf("slot%d", l.Slot)
}

// Transfer moves the value of Temp from Src to Dst. Class is the
// temporary's register file (needed to pick move opcodes and scratch
// registers). Slot endpoints must be the temporary's own spill home.
type Transfer struct {
	Temp  ir.Temp
	Class target.Class
	Src   Loc
	Dst   Loc
}

// Tags selects the spill classification for emitted instructions.
type Tags struct {
	Load  ir.Tag
	Store ir.Tag
	Move  ir.Tag
}

// ScratchFunc returns a register of the given class that is dead at the
// transfer point and not an endpoint of any pending transfer, or ok=false
// if none exists (in which case cycles are broken through memory).
type ScratchFunc func(c target.Class) (target.Reg, bool)

// Sequencer orders transfers with reusable working storage: the
// per-location bookkeeping lives in dense arrays that are reset through
// a dirty list after every call, so one Sequencer serves any number of
// edges without per-call maps. A register endpoint is keyed by its
// register number and a slot endpoint by its owning temporary (a slot
// endpoint is always its temporary's own home), never by the slot
// number, which the input controls. The zero value is ready to use; a
// Sequencer is not safe for concurrent use.
type Sequencer struct {
	pending []Transfer
	regSrc  []int32 // register → pending transfers reading it
	regDst  []bool  // register → a transfer writes it
	slotSrc []int32 // temporary → pending transfers reading its slot
	slotDst []bool  // temporary → a transfer writes its slot
	regs    []target.Reg
	temps   []ir.Temp
}

// touch readies the bookkeeping of l (an endpoint of temp's transfer)
// and records it for reset.
func (sq *Sequencer) touch(l Loc, temp ir.Temp) {
	if l.Kind == LocReg {
		if n := int(l.Reg) + 1; n > len(sq.regSrc) {
			sq.regSrc = append(sq.regSrc, make([]int32, n-len(sq.regSrc))...)
			sq.regDst = append(sq.regDst, make([]bool, n-len(sq.regDst))...)
		}
		sq.regs = append(sq.regs, l.Reg)
		return
	}
	if n := int(temp) + 1; n > len(sq.slotSrc) {
		sq.slotSrc = append(sq.slotSrc, make([]int32, n-len(sq.slotSrc))...)
		sq.slotDst = append(sq.slotDst, make([]bool, n-len(sq.slotDst))...)
	}
	sq.temps = append(sq.temps, temp)
}

// src returns the pending-source count of l, an endpoint of temp's
// transfer.
func (sq *Sequencer) src(l Loc, temp ir.Temp) *int32 {
	if l.Kind == LocReg {
		return &sq.regSrc[l.Reg]
	}
	return &sq.slotSrc[temp]
}

// dst returns the destination mark of l, an endpoint of temp's transfer.
func (sq *Sequencer) dst(l Loc, temp ir.Temp) *bool {
	if l.Kind == LocReg {
		return &sq.regDst[l.Reg]
	}
	return &sq.slotDst[temp]
}

// reset clears every mark the last call touched.
func (sq *Sequencer) reset() {
	for _, r := range sq.regs {
		sq.regSrc[r], sq.regDst[r] = 0, false
	}
	for _, t := range sq.temps {
		sq.slotSrc[t], sq.slotDst[t] = 0, false
	}
	sq.regs, sq.temps = sq.regs[:0], sq.temps[:0]
}

// Sequence orders the transfers and emits the corresponding instructions.
// SlotFor must return the spill slot of a temporary; it is consulted only
// when a register cycle must be broken through memory. The returned code
// is freshly allocated and owned by the caller.
func (sq *Sequencer) Sequence(ts []Transfer, scratch ScratchFunc, slotFor func(ir.Temp) int, tags Tags) []ir.Instr {
	defer sq.reset()
	// Drop no-op transfers, and validate uniqueness of destinations: the
	// allocator guarantees one location holds one value and one transfer
	// per temp.
	pending := sq.pending[:0]
	for _, t := range ts {
		if t.Src == t.Dst {
			continue
		}
		if t.Src.Kind == LocSlot && t.Dst.Kind == LocSlot {
			panic("moves: slot-to-slot transfer")
		}
		sq.touch(t.Src, t.Temp)
		sq.touch(t.Dst, t.Temp)
		*sq.src(t.Src, t.Temp)++
		if d := sq.dst(t.Dst, t.Temp); *d {
			panic(fmt.Sprintf("moves: duplicate destination %v", t.Dst))
		} else {
			*d = true
		}
		pending = append(pending, t)
	}
	sq.pending = pending
	if len(pending) == 0 {
		return nil
	}

	// Each transfer emits one instruction, and each register cycle one
	// more. Size the output and its operands for at most one cycle, the
	// common case; more grow them.
	n := len(pending) + 1
	out := make([]ir.Instr, 0, n)
	ops := make([]ir.Operand, 0, 2*n)
	operands := func(o ...ir.Operand) []ir.Operand {
		i := len(ops)
		ops = append(ops, o...)
		return ops[i:len(ops):len(ops)]
	}
	emit := func(t Transfer) {
		switch {
		case t.Src.Kind == LocSlot && t.Dst.Kind == LocReg:
			out = append(out, ir.Instr{
				Op:   ir.SpillLd,
				Tag:  tags.Load,
				Defs: operands(ir.RegOp(t.Dst.Reg)),
				Uses: operands(ir.SlotOp(t.Src.Slot, t.Temp)),
			})
		case t.Src.Kind == LocReg && t.Dst.Kind == LocSlot:
			out = append(out, ir.Instr{
				Op:   ir.SpillSt,
				Tag:  tags.Store,
				Uses: operands(ir.RegOp(t.Src.Reg), ir.SlotOp(t.Dst.Slot, t.Temp)),
			})
		default: // register to register
			op := ir.Mov
			if t.Class == target.ClassFloat {
				op = ir.FMov
			}
			out = append(out, ir.Instr{
				Op:   op,
				Tag:  tags.Move,
				Defs: operands(ir.RegOp(t.Dst.Reg)),
				Uses: operands(ir.RegOp(t.Src.Reg)),
			})
		}
	}

	for len(pending) > 0 {
		progressed := false
		for i := 0; i < len(pending); {
			t := pending[i]
			if *sq.src(t.Dst, t.Temp) > 0 {
				i++
				continue // destination still feeds another transfer
			}
			emit(t)
			*sq.src(t.Src, t.Temp)--
			pending[i] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			progressed = true
		}
		if progressed || len(pending) == 0 {
			continue
		}
		// Every pending destination is also a pending source: register
		// cycles only (slots have out-degree ≤ 1 into their own temp's
		// single transfer, so they cannot appear in a cycle).
		t := pending[0]
		if t.Src.Kind != LocReg || t.Dst.Kind != LocReg {
			panic(fmt.Sprintf("moves: non-register cycle through %v -> %v", t.Src, t.Dst))
		}
		var via Loc
		if r, ok := scratch(t.Class); ok {
			// Copy the cycle member aside, redirect its transfer.
			via = RegLoc(r)
		} else {
			// Break through the temporary's own spill slot.
			via = SlotLoc(slotFor(t.Temp))
		}
		emit(Transfer{Temp: t.Temp, Class: t.Class, Src: t.Src, Dst: via})
		sq.touch(via, t.Temp)
		*sq.src(t.Src, t.Temp)--
		*sq.src(via, t.Temp)++
		pending[0].Src = via
	}
	return out
}
