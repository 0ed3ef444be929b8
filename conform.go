package regalloc

import (
	"context"
	"fmt"

	"repro/internal/conform"
)

// Mismatch describes one observable divergence between the unallocated
// and allocated executions of a program (see ConformResult).
type Mismatch = conform.Mismatch

// Conformance mismatch kinds.
const (
	MismatchOutput   = conform.KindOutput
	MismatchRetValue = conform.KindRetValue
	MismatchMemory   = conform.KindMemory
	MismatchCounters = conform.KindCounters
	MismatchExec     = conform.KindExecError
)

// ConformResult is the outcome of Engine.Conform: the allocated program
// with its allocation report, both execution results, and the first
// observed divergence (nil when the allocation conforms).
type ConformResult struct {
	// Allocated is the allocated program; Report its allocation report.
	Allocated *Program
	Report    *Report
	// Ref is the execution of the input program under temp semantics;
	// Run the execution of Allocated with caller-saved registers
	// poisoned at every call (ExecuteParanoid).
	Ref, Run *ExecResult
	// Mismatch is the first divergence between Ref and Run, or nil.
	Mismatch *Mismatch
}

// Conform is the engine-level differential conformance check: it
// allocates prog through the engine's configured pipeline, executes the
// input program and the allocated program on the VM (the latter in
// paranoid mode), and compares all observable behavior — intrinsic
// output, return value, final memory image, and dynamic-counter sanity
// — through the grid's own execute-and-diff step.
//
// A non-nil error with a populated ConformResult means the allocation
// succeeded but diverged (errors.As recovers the *Mismatch); a nil
// ConformResult means the pipeline itself failed. Tests use it to
// spot-check single programs; the full allocator × machine × profile
// grid lives in cmd/lsra-conform. The engine's observer hook
// (WithObserver) sees the per-procedure allocation events as usual.
func (e *Engine) Conform(ctx context.Context, prog *Program, input []byte) (*ConformResult, error) {
	allocated, rep, err := e.AllocateProgram(ctx, prog)
	if err != nil {
		return nil, err
	}
	ref, run, mm := conform.Exec(prog, allocated, e.mach, input, 0)
	if ref == nil {
		return nil, fmt.Errorf("regalloc: Conform: %s", mm.Detail)
	}
	res := &ConformResult{Allocated: allocated, Report: rep, Ref: ref, Run: run, Mismatch: mm}
	if mm != nil {
		return res, fmt.Errorf("regalloc: Conform(%s on %s): %w", e.algorithm, e.mach.Name, mm)
	}
	return res, nil
}
