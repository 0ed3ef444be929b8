package conform

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/progs"
)

// fuzzAllocators are the four built-ins, checked on every input.
var fuzzAllocators = []string{"binpack", "twopass", "coloring", "linearscan"}

// FuzzDifferentialAlloc decodes arbitrary bytes into a generator
// configuration and machine, builds the program, and conformance-checks
// it across all four allocators: allocate, verify, execute paranoid,
// and diff against the unallocated execution. Any divergence is a
// miscompilation (or harness/VM bug) and fails the fuzz run.
func FuzzDifferentialAlloc(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(10), uint8(4), uint8(40), uint8(2), true, true, true)
	f.Add(int64(7), uint8(5), uint8(0), uint8(0), uint8(80), uint8(0), false, false, false)
	f.Add(int64(42), uint8(1), uint8(26), uint8(12), uint8(119), uint8(3), true, true, false)
	f.Add(int64(-3), uint8(4), uint8(3), uint8(11), uint8(17), uint8(1), true, false, true)
	f.Fuzz(func(t *testing.T, seed int64, machSel, intTemps, floatTemps, stmts, depth uint8, calls, memory, helper bool) {
		mach, cfg := progs.FuzzGen(seed, machSel, intTemps, floatTemps, stmts, depth, calls, memory, helper)
		prog := progs.Random(mach, cfg)
		if err := ir.ValidateProgram(prog, mach); err != nil {
			t.Fatalf("generator emitted an invalid program on %s: %v", mach.Name, err)
		}
		for _, allocator := range fuzzAllocators {
			_, _, mm := Check(prog, mach, allocator, defaultInput, 5_000_000)
			if mm != nil {
				t.Fatalf("%s on %s (seed=%d ints=%d floats=%d stmts=%d depth=%d calls=%v mem=%v helper=%v): %s: %s",
					allocator, mach.Name, cfg.Seed, cfg.IntTemps, cfg.FloatTemps, cfg.Stmts, cfg.MaxDepth,
					cfg.Calls, cfg.Memory, cfg.Helper, mm.Kind, mm.Detail)
			}
		}
	})
}
