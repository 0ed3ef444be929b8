package opt

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/target"
	"repro/internal/verify"
)

// Passes selects the optional passes Worker.Allocate runs around the
// allocator. Structural validation (ir.ValidateAllocated) is not
// optional: every allocated procedure is checked.
type Passes struct {
	// DCE runs dead-code elimination before allocation.
	DCE bool
	// Verify runs the symbolic allocation verifier right after
	// allocation.
	Verify bool
	// ForwardStores runs store-to-load forwarding on the allocated code.
	ForwardStores bool
	// Peephole deletes the self-moves coalescing leaves behind.
	Peephole bool
}

// Worker is the paper's per-procedure pipeline (§3) around one
// allocator instance: DCE, allocate, verify, store forwarding,
// peephole, validation. It keeps the liveness and dead-code storage
// warm across procedures, so one Worker serves one goroutine; the
// engine pools them and the experiment drivers run a program's
// procedures through one.
type Worker struct {
	A  alloc.Allocator
	df dataflow.Scratch
	sc Scratch
}

// Allocate runs the pipeline on one procedure for mach and returns the
// allocated procedure with its statistics; p itself is not modified.
// Statistics carry per-phase timings: the allocator's own plus the
// engine-side phases charged here, with heap-allocation counters when
// sampleAllocs is set.
func (w *Worker) Allocate(p *ir.Proc, mach *target.Machine, ps Passes, sampleAllocs bool) (*alloc.Result, error) {
	tm := alloc.NewTimer(sampleAllocs)
	var own alloc.Stats // the phases charged here, outside the allocator

	var res *alloc.Result
	var err error
	if oa, ok := w.A.(alloc.OwnedAllocator); ok {
		// One liveness solve per procedure: DCE's last round is exact
		// for the code it leaves, and the allocator consumes it. The
		// clone is the only defensive copy on the whole pipeline.
		in := p.Clone()
		tm.Mark(&own, alloc.PhaseOther)
		var lv *dataflow.Liveness
		if ps.DCE {
			lv, _ = w.sc.DeadCodeElim(in, &w.df, &tm, &own)
		} else {
			in.Renumber()
			lv = w.df.Compute(in)
			tm.Mark(&own, alloc.PhaseDataflow)
		}
		res, err = oa.AllocateOwned(in, lv)
	} else {
		in := p
		if ps.DCE {
			in = p.Clone()
			tm.Mark(&own, alloc.PhaseOther)
			w.sc.DeadCodeElim(in, &w.df, &tm, &own)
		}
		res, err = w.A.Allocate(in)
	}
	if err != nil {
		return nil, err
	}
	if res.Stats.Phases.TotalNs() > 0 {
		tm.Skip() // the allocator timed its own phases
	} else {
		// An external allocator with no phase instrumentation of its
		// own: charge its whole span to the scan phase rather than
		// dropping it, so phase shares stay meaningful.
		tm.Mark(&own, alloc.PhaseScan)
	}
	if ps.Verify {
		if err := verify.Verify(res.Proc, mach); err != nil {
			return nil, err
		}
		tm.Mark(&own, alloc.PhaseVerify)
	}
	if ps.ForwardStores {
		ForwardStores(res.Proc, mach)
	}
	if ps.Peephole {
		Peephole(res.Proc)
	}
	tm.Mark(&own, alloc.PhaseOpt)
	if err := ir.ValidateAllocated(res.Proc, mach); err != nil {
		return nil, fmt.Errorf("invalid allocation for %s: %w", p.Name, err)
	}
	tm.Mark(&own, alloc.PhaseOther)
	res.Stats.Phases.Add(own.Phases)
	return res, nil
}
