package core

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/dataflow/dataflowtest"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/opt"
)

// TestConsistencySolveMatchesReference runs the second-chance scan over
// the differential corpus and checks the USED_CONSISTENCY solve the
// resolution phase starts from (§2.4) against the copy/compare
// reference solver, block by block.
func TestConsistencySolveMatchesReference(t *testing.T) {
	var sc scanScratch
	var df dataflow.Scratch
	nonEmpty := 0
	for _, c := range dataflowtest.Corpus(2) {
		for _, orig := range c.Prog.Procs {
			p := orig.Clone()
			opt.DeadCodeElim(p)
			p.Renumber()
			cfg.ComputeLoopDepths(p)
			lv := df.Compute(p)
			lt := lifetime.Compute(p, lv)
			rb := lifetime.ComputeRegBusy(p, c.Mach)
			s := newScan(p, c.Mach, DefaultOptions(), lv, lt, rb, &sc)
			if err := s.run(); err != nil {
				t.Fatalf("%s proc %s: %v", c.Name, p.Name, err)
			}
			ng := lv.NumGlobals()
			gen := func(b *ir.Block) *bitset.Set { return s.usedC[b.Order] }
			kill := func(b *ir.Block) *bitset.Set { return s.wrote[b.Order] }
			in, out := s.consSolver.Solve(p.Blocks, ng, gen, kill)
			rin, rout := dataflowtest.SolveBackwardUnion(p.Blocks, ng, gen, kill)
			if d := dataflowtest.Diff(p.Blocks, in, out, rin, rout); d != "" {
				t.Fatalf("%s proc %s: %s", c.Name, p.Name, d)
			}
			s.release(&sc)
			for _, b := range p.Blocks {
				if !in[b.Order].Empty() {
					nonEmpty++
					break
				}
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no procedure had a non-empty USED_CONSISTENCY solution")
	}
	t.Logf("%d procedures with a non-empty USED_CONSISTENCY solution", nonEmpty)
}
