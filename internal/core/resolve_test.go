package core

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/dataflow/dataflowtest"
	"repro/internal/lifetime"
	"repro/internal/opt"
)

// TestAgreeingEdgesNeedNoCode checks resolution's fast path: on every
// edge edgeAgrees lets resolve skip, the full live-in walk of
// resolveEdge must produce no code. It runs the scan over the
// differential corpus (every generator profile on every preset, plus
// the Table 3 modules) under the default options, without the
// early-second-chance and move optimizations, and strictly linear.
func TestAgreeingEdgesNeedNoCode(t *testing.T) {
	noOpts := DefaultOptions()
	noOpts.MoveOpt, noOpts.EarlySecondChance = false, false
	strict := DefaultOptions()
	strict.StrictLinear = true
	var sc scanScratch
	var ltsc lifetime.Scratch
	var rbsc lifetime.RegScratch
	corpus := dataflowtest.Corpus(1)
	for _, o := range []Options{DefaultOptions(), noOpts, strict} {
		skipped, walked := 0, 0
		for _, c := range corpus {
			for _, orig := range c.Prog.Procs {
				p := orig.Clone()
				lv, _ := opt.DeadCodeElim(p)
				cfg.ComputeLoopDepths(p)
				lt := ltsc.Compute(p, lv)
				rb := rbsc.Compute(p, c.Mach)
				s := newScan(p, c.Mach, o, lv, lt, rb, &sc)
				if err := s.run(); err != nil {
					t.Fatalf("%s proc %s: %v", c.Name, p.Name, err)
				}
				usedCIn := s.usedConsistencyIn()
				for _, pb := range p.Blocks {
					for _, sb := range pb.Succs {
						if !s.edgeAgrees(pb, sb, usedCIn) {
							walked++
							continue
						}
						skipped++
						if code := s.resolveEdge(pb, sb, usedCIn, &sc); len(code) > 0 {
							t.Fatalf("%s proc %s (%s): skipped edge %s→%s needs %d instructions",
								c.Name, p.Name, optionsKey(o), pb.Name, sb.Name, len(code))
						}
					}
				}
				s.release(&sc)
			}
		}
		if skipped == 0 || walked == 0 {
			t.Fatalf("%s: %d edges skipped, %d walked; want both kinds", optionsKey(o), skipped, walked)
		}
		t.Logf("%s: %d edges skipped, %d walked", optionsKey(o), skipped, walked)
	}
}
