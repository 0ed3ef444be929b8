package opt

import (
	"testing"

	"repro/internal/progs"
)

// FuzzDeadCodeLiveness decodes arbitrary bytes into a random program
// (progs.FuzzGen, the recipe FuzzDifferentialAlloc uses) and checks
// every procedure: the pooled DCE must remove exactly what the
// reference fixpoint removes, print identically, and return liveness
// equal to a fresh solve of its result.
func FuzzDeadCodeLiveness(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(10), uint8(4), uint8(40), uint8(2), true, true, true)
	f.Add(int64(7), uint8(5), uint8(0), uint8(0), uint8(80), uint8(0), false, false, false)
	f.Add(int64(42), uint8(1), uint8(26), uint8(12), uint8(119), uint8(3), true, true, false)
	f.Add(int64(-3), uint8(4), uint8(3), uint8(11), uint8(17), uint8(1), true, false, true)
	f.Fuzz(func(t *testing.T, seed int64, machSel, intTemps, floatTemps, stmts, depth uint8, calls, memory, helper bool) {
		mach, cfg := progs.FuzzGen(seed, machSel, intTemps, floatTemps, stmts, depth, calls, memory, helper)
		prog := progs.Random(mach, cfg)
		var w dceWorker // reused across the program's procedures, as in the engine
		for _, p := range prog.Procs {
			if _, _, d := checkDCE(&w, p, mach); d != "" {
				t.Fatalf("%s proc %s (seed=%d ints=%d floats=%d stmts=%d depth=%d calls=%v mem=%v helper=%v): %s",
					mach.Name, p.Name, cfg.Seed, cfg.IntTemps, cfg.FloatTemps, cfg.Stmts, cfg.MaxDepth,
					cfg.Calls, cfg.Memory, cfg.Helper, d)
			}
		}
	})
}
