package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"

	regalloc "repro"
	"repro/internal/conform"
	"repro/internal/ir"
	"repro/internal/progs"
	"repro/internal/target"
	"repro/internal/vm"
)

// quality is Table 1's measure of generated code: the allocated
// programs' static size and, for the programs that are executed, their
// simulated cycles and dynamic spill instructions. All three are
// deterministic counts.
type quality struct {
	codeInstrs, simCycles, spillDynOps int64
}

func (q *quality) addCode(prog *ir.Program) {
	for _, p := range prog.Procs {
		q.codeInstrs += int64(p.NumInstrs())
	}
}

// runChecked executes the unallocated program and the allocated one on
// the VM — the allocated one with caller-saved registers poisoned at
// every call — and returns an error when their observable behaviour
// differs. The interpreter running the unallocated program is the
// independent reference. It returns the allocated run's counters.
func runChecked(orig, allocated *ir.Program, mach *target.Machine, input []byte) (*vm.Counters, error) {
	ref, err := vm.Run(orig, vm.Config{Mach: mach, Input: input})
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	got, err := vm.Run(allocated, vm.Config{Mach: mach, Input: input, Paranoid: true})
	if err != nil {
		return nil, fmt.Errorf("allocated run: %w", err)
	}
	if mm := conform.Diff(ref, got); mm != nil {
		return nil, mm
	}
	return &got.Counters, nil
}

func (q *quality) addRun(c *vm.Counters) {
	q.simCycles += c.Cycles
	q.spillDynOps += c.SpillOverhead()
}

// fixedQuality measures an engine's code quality on a fixed program set
// that does not depend on the seed, so the three counts repeat exactly
// across runs. Each program is allocated twice — the determinism guard
// — and checked on the VM.
func fixedQuality(eng *regalloc.Engine, mach *target.Machine, set []*ir.Program) (quality, error) {
	var q quality
	for i, prog := range set {
		a, _, errA := eng.AllocateProgram(context.Background(), prog)
		b, _, errB := eng.AllocateProgram(context.Background(), prog)
		if err := errors.Join(errA, errB); err != nil {
			return q, fmt.Errorf("quality program %d: %w", i, err)
		}
		if digest(a, mach) != digest(b, mach) {
			return q, fmt.Errorf("quality program %d: nondeterministic allocation", i)
		}
		c, err := runChecked(prog, a, mach, nil)
		if err != nil {
			return q, fmt.Errorf("quality program %d: %w", i, err)
		}
		q.addCode(a)
		q.addRun(c)
	}
	return q, nil
}

// profilePrograms generates n programs the way the corpus does, cycling
// every generator profile, from seeds base, base+1, ...
func profilePrograms(mach *target.Machine, base int64, n int) ([]*ir.Program, error) {
	profiles := progs.Profiles()
	set := make([]*ir.Program, n)
	for i := range set {
		cfg, err := progs.ProfileGen(profiles[i%len(profiles)], base+int64(i))
		if err != nil {
			return nil, err
		}
		set[i] = progs.Random(mach, cfg)
	}
	return set, nil
}

// digest fingerprints a program's printed form, for the determinism
// guard's comparisons between repeated allocations.
func digest(prog *ir.Program, mach *target.Machine) [32]byte {
	h := sha256.New()
	(&ir.Printer{Mach: mach}).WriteProgram(h, prog)
	var d [32]byte
	h.Sum(d[:0])
	return d
}

func printProgram(prog *ir.Program, mach *target.Machine) string {
	var sb strings.Builder
	(&ir.Printer{Mach: mach}).WriteProgram(&sb, prog)
	return sb.String()
}
