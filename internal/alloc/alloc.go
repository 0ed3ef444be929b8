// Package alloc holds the plumbing shared by every register allocator in
// this repository: spill frames, result/statistics types, the common
// Allocator interface and Run, the one function that wraps every
// allocator in the same setup and epilogue.
package alloc

import (
	"fmt"
	"time"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/scratch"
	"repro/internal/target"
)

// Allocator is a register allocation algorithm. Allocate takes
// ownership of p, which Run has already Renumber()ed and annotated with
// loop depths; lv is p's liveness in that numbering (the paper's
// liveness and loop analysis are "common to both allocators", §3.2).
// The allocator reads lv but must not retain it past the call. It
// rewrites p in place so that no temporary operand remains, reports
// the registers it used in Result.CalleeSaved and its spilled
// temporaries in Stats.SpilledTemps, and may charge its own stages to
// phases with tm.Mark. Run does the rest.
type Allocator interface {
	Name() string
	Allocate(p *ir.Proc, lv *dataflow.Liveness, tm *Timer) (*Result, error)
}

// Run is the one way an Allocator is run. It sets p's loop depths
// (charged to PhaseCFG), runs a, and finishes the allocation the same
// way for every allocator: callee-saved saves and restores, statistics,
// renumbering and a check that no temporary survived (charged to
// PhaseOther). An allocator that marks no phase of its own has its
// span charged to PhaseScan. p and lv are as Allocator.Allocate
// describes, except that loop depths need not be set yet.
func Run(a Allocator, mach *target.Machine, p *ir.Proc, lv *dataflow.Liveness, tm *Timer) (*Result, error) {
	var setup Stats
	cfg.ComputeLoopDepths(p)
	tm.Mark(&setup, PhaseCFG)

	start, candidates := tm.last, p.NumTemps()
	res, err := a.Allocate(p, lv, tm)
	if err != nil {
		return nil, err
	}
	st := &res.Stats
	if tm.last.Equal(start) {
		tm.Mark(st, PhaseScan)
	}
	st.Candidates = candidates
	st.UsedCalleeSaved = insertCalleeSaves(p, mach, res.CalleeSaved)
	st.AllocTime = time.Since(start)
	res.CalleeSaved = nil // may be the allocator's pooled scratch
	p.Renumber()
	st.Inserted = countInserted(p)
	if err := checkNoTemps(p); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name(), err)
	}
	tm.Mark(st, PhaseOther)
	st.Phases.Add(setup.Phases)
	return res, nil
}

// AllocateClone runs a on a copy of orig, which is not modified: it
// clones and renumbers orig, solves the copy's liveness into df (fresh
// storage when df is nil; a caller allocating many procedures keeps
// one warm) and hands both to Run. The renumbering and the liveness
// solve are charged to the result's phases.
func AllocateClone(a Allocator, mach *target.Machine, orig *ir.Proc, df *dataflow.Scratch) (*Result, error) {
	if df == nil {
		df = new(dataflow.Scratch)
	}
	p := orig.Clone()
	var setup Stats
	tm := NewTimer(false)
	p.Renumber()
	tm.Mark(&setup, PhaseOther)
	lv := df.Compute(p)
	tm.Mark(&setup, PhaseDataflow)
	res, err := Run(a, mach, p, lv, &tm)
	if err != nil {
		return nil, err
	}
	res.Stats.Phases.Add(setup.Phases)
	return res, nil
}

// Result is a finished allocation.
type Result struct {
	// Proc is the rewritten procedure: every temp operand replaced by a
	// physical register, spill and resolution code inserted, and
	// callee-saved saves/restores in place.
	Proc *ir.Proc
	// CalleeSaved is what an Allocator reports to Run: indexed by
	// register number, true for every callee-saved register the
	// allocation used. Run inserts their saves and restores and then
	// clears it.
	CalleeSaved []bool
	// Stats describes the allocation.
	Stats Stats
}

// Stats reports what an allocation did. Static counts are instruction
// counts in the rewritten code; dynamic counts come from the VM.
type Stats struct {
	// Candidates is the number of register candidates (temporaries).
	Candidates int
	// Inserted counts allocator-inserted instructions per spill tag.
	Inserted [ir.NumTags]int
	// SpilledTemps counts temporaries that ever lived in memory.
	SpilledTemps int
	// UsedCalleeSaved counts callee-saved registers the allocation used.
	UsedCalleeSaved int
	// AllocTime is the wall-clock time of the allocator core (the
	// quantity Table 3 of the paper reports; shared setup such as CFG
	// construction, liveness and loop analysis is excluded, as in §3.2).
	AllocTime time.Duration

	// Phases breaks the pipeline's wall time (and, under profiling,
	// heap allocations) down by stage; see Phase for the stages.
	Phases PhaseTimes `json:"phases"`

	// Coloring-specific: interference graph size summed over rounds and
	// the number of build/color rounds (Table 3 reports edges "over all
	// coloring iterations").
	InterferenceEdges int
	Rounds            int
}

// Add accumulates another allocation's statistics into s (used for
// program-level aggregate reports).
func (s *Stats) Add(o Stats) {
	s.Candidates += o.Candidates
	s.SpilledTemps += o.SpilledTemps
	s.UsedCalleeSaved += o.UsedCalleeSaved
	s.AllocTime += o.AllocTime
	s.Phases.Add(o.Phases)
	s.InterferenceEdges += o.InterferenceEdges
	s.Rounds += o.Rounds
	for i, c := range o.Inserted {
		s.Inserted[i] += c
	}
}

// TotalSpillCode returns the number of inserted spill instructions,
// excluding callee-save prologue/epilogue code.
func (s *Stats) TotalSpillCode() int {
	n := 0
	for tag, c := range s.Inserted {
		switch ir.Tag(tag) {
		case ir.TagScanLoad, ir.TagScanStore, ir.TagScanMove,
			ir.TagResolveLoad, ir.TagResolveStore, ir.TagResolveMove:
			n += c
		}
	}
	return n
}

// countInserted tallies allocator-inserted instructions by tag.
func countInserted(p *ir.Proc) [ir.NumTags]int {
	var counts [ir.NumTags]int
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			counts[b.Instrs[i].Tag]++
		}
	}
	return counts
}

// Frame assigns spill slots lazily, one home slot per temporary
// (§2.3: every spilled temporary has a fixed memory home).
type Frame struct {
	proc   *ir.Proc
	slotOf []int
}

// NewFrame returns an empty frame for p.
func NewFrame(p *ir.Proc) *Frame {
	f := &Frame{}
	f.Reset(p)
	return f
}

// Reset re-targets f at p with no slots assigned, reusing the backing
// array when capacity allows. Pooled allocator scratch resets one frame
// per allocation instead of allocating a fresh one.
func (f *Frame) Reset(p *ir.Proc) {
	f.proc = p
	f.slotOf = scratch.Grow(f.slotOf, p.NumTemps())
	for i := range f.slotOf {
		f.slotOf[i] = -1
	}
}

// Release drops the frame's procedure reference once allocation is
// done. A pooled frame would otherwise pin the last rewritten
// procedure (and its arena-backed clone) until the next Reset.
func (f *Frame) Release() { f.proc = nil }

// SlotOf returns t's home slot, allocating it on first use.
func (f *Frame) SlotOf(t ir.Temp) int {
	if f.slotOf[t] < 0 {
		f.slotOf[t] = f.proc.NewSlot()
	}
	return f.slotOf[t]
}

// HasSlot reports whether t ever received a home slot.
func (f *Frame) HasSlot(t ir.Temp) bool { return f.slotOf[t] >= 0 }

// NumSpilled counts temporaries with a home slot.
func (f *Frame) NumSpilled() int {
	n := 0
	for _, s := range f.slotOf {
		if s >= 0 {
			n++
		}
	}
	return n
}

// insertCalleeSaves inserts prologue saves and pre-return restores for
// every used callee-saved register and returns how many were used. used
// is an allocator's Result.CalleeSaved, indexed by register number.
// Every allocation needs this: using a callee-saved register obligates
// the procedure to preserve its value.
func insertCalleeSaves(p *ir.Proc, mach *target.Machine, used []bool) int {
	var regs []target.Reg
	for c := target.Class(0); c < target.NumClasses; c++ {
		for _, r := range mach.CalleeSavedRegs(c) {
			if used[r] {
				regs = append(regs, r)
			}
		}
	}
	if len(regs) == 0 {
		return 0
	}
	slots := make(map[target.Reg]int, len(regs))
	for _, r := range regs {
		slots[r] = p.NewSlot()
	}
	entry := p.Entry()
	pro := make([]ir.Instr, 0, len(regs)+len(entry.Instrs))
	for _, r := range regs {
		pro = append(pro, ir.Instr{
			Op:   ir.SpillSt,
			Tag:  ir.TagSave,
			Uses: []ir.Operand{ir.RegOp(r), ir.SlotOp(slots[r], ir.NoTemp)},
		})
	}
	entry.Instrs = append(pro, entry.Instrs...)
	for _, b := range p.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.Ret {
			continue
		}
		body := b.Instrs[:len(b.Instrs)-1]
		tail := make([]ir.Instr, 0, len(regs)+1)
		for _, r := range regs {
			tail = append(tail, ir.Instr{
				Op:   ir.SpillLd,
				Tag:  ir.TagRestore,
				Defs: []ir.Operand{ir.RegOp(r)},
				Uses: []ir.Operand{ir.SlotOp(slots[r], ir.NoTemp)},
			})
		}
		tail = append(tail, *t)
		b.Instrs = append(body, tail...)
	}
	return len(regs)
}

// checkNoTemps verifies that allocation rewrote every temp operand.
func checkNoTemps(p *ir.Proc) error {
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, o := range in.Uses {
				if o.Kind == ir.KindTemp {
					return fmt.Errorf("proc %s: block %s: %v still uses temp %s",
						p.Name, b.Name, in.Op, p.TempName(o.Temp))
				}
			}
			for _, o := range in.Defs {
				if o.Kind == ir.KindTemp {
					return fmt.Errorf("proc %s: block %s: %v still defines temp %s",
						p.Name, b.Name, in.Op, p.TempName(o.Temp))
				}
			}
		}
	}
	return nil
}
