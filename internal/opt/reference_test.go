package opt

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/dataflow"
	"repro/internal/dataflow/dataflowtest"
	"repro/internal/ir"
	"repro/internal/progs"
	"repro/internal/target"
)

// referenceDeadCodeElim is the original fixpoint dead-code eliminator,
// kept as the reference for Scratch.DeadCodeElim: every round solves liveness with
// fresh storage and sweeps each block with a cleared per-temporary
// vector and a per-block keep mask. It returns the instructions removed
// and the rounds run (the last of which removes nothing).
func referenceDeadCodeElim(p *ir.Proc) (removed, rounds int) {
	for {
		rounds++
		p.Renumber()
		lv := dataflow.Compute(p)
		n := referenceRemoveDead(p, lv)
		removed += n
		if n == 0 {
			return removed, rounds
		}
	}
}

func referenceRemoveDead(p *ir.Proc, lv *dataflow.Liveness) int {
	removed := 0
	var dbuf []ir.Temp
	live := make([]bool, p.NumTemps())
	for _, b := range p.Blocks {
		for i := range live {
			live[i] = false
		}
		lv.LiveOut[b.Order].ForEach(func(gi int) { live[lv.Globals[gi]] = true })

		keep := make([]bool, len(b.Instrs))
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			keep[i] = true
			if isRemovable(in) {
				dbuf = in.DefTemps(dbuf[:0])
				allDead := true
				for _, d := range dbuf {
					if live[d] {
						allDead = false
						break
					}
				}
				if allDead && len(dbuf) > 0 {
					keep[i] = false
					removed++
					continue
				}
			}
			for _, d := range in.DefTemps(dbuf[:0]) {
				live[d] = false
			}
			for _, u := range in.UseTemps(dbuf[:0]) {
				live[u] = true
			}
		}
		if removed > 0 {
			out := b.Instrs[:0]
			for i := range b.Instrs {
				if keep[i] {
					out = append(out, b.Instrs[i])
				}
			}
			b.Instrs = out
		}
	}
	return removed
}

// dceWorker is the engine's pooling pattern: one opt and one liveness
// scratch reused across every procedure.
type dceWorker struct {
	opt Scratch
	df  dataflow.Scratch
}

func (w *dceWorker) run(p *ir.Proc) (*dataflow.Liveness, int) {
	tm := alloc.NewTimer(false)
	var st alloc.Stats
	return w.opt.DeadCodeElim(p, &w.df, &tm, &st)
}

// checkDCE runs Scratch.DeadCodeElim and the reference on clones of p
// and returns a description of the first disagreement, or "". It checks
// the removed count, the printed result, and that the returned liveness
// equals a fresh solve of the result. rounds is the reference's round
// count.
func checkDCE(w *dceWorker, p *ir.Proc, mach *target.Machine) (removed, rounds int, diff string) {
	got, want := p.Clone(), p.Clone()
	lv, n := w.run(got)
	removed, rounds = referenceDeadCodeElim(want)
	if n != removed {
		return removed, rounds, fmt.Sprintf("removed %d, reference %d", n, removed)
	}
	pr := ir.Printer{Mach: mach, Positions: true}
	var gb, wb bytes.Buffer
	pr.WriteProc(&gb, got)
	pr.WriteProc(&wb, want)
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		return removed, rounds, fmt.Sprintf("output differs:\n%s\nreference:\n%s", gb.String(), wb.String())
	}
	return removed, rounds, livenessDiff(got, lv, dataflow.Compute(got))
}

// livenessDiff compares two liveness results over the same renumbered
// procedure.
func livenessDiff(p *ir.Proc, got, want *dataflow.Liveness) string {
	if !slices.Equal(got.Globals, want.Globals) {
		return fmt.Sprintf("globals %v, fresh solve %v", got.Globals, want.Globals)
	}
	if !slices.Equal(got.Index[:p.NumTemps()], want.Index) {
		return "global index differs from a fresh solve"
	}
	if d := dataflowtest.Diff(p.Blocks, got.LiveIn, got.LiveOut, want.LiveIn, want.LiveOut); d != "" {
		return "returned liveness vs fresh solve: " + d
	}
	return ""
}

// TestDCEMatchesReference runs the pooled DCE and the reference over
// the differential corpus and the Table 1 suite.
func TestDCEMatchesReference(t *testing.T) {
	var w dceWorker
	check := func(name string, prog *ir.Program, mach *target.Machine) {
		for _, p := range prog.Procs {
			if _, _, d := checkDCE(&w, p, mach); d != "" {
				t.Fatalf("%s proc %s: %s", name, p.Name, d)
			}
		}
	}
	for _, c := range dataflowtest.Corpus(2) {
		check(c.Name, c.Prog, c.Mach)
	}
	mach := target.Alpha()
	for _, bench := range progs.Suite() {
		check(bench.Name, bench.Build(mach, bench.DefaultScale), mach)
	}
}

// TestDCESuiteGolden pins what DCE does to the paper's workloads on
// the Alpha: 137 instructions removed across the Table 1 suite at its
// default scale, with exactly one procedure needing 4 rounds, and none
// removed from the Table 3 modules.
func TestDCESuiteGolden(t *testing.T) {
	var w dceWorker
	mach := target.Alpha()
	suiteRemoved, fourRounds, maxRounds := 0, 0, 0
	for _, bench := range progs.Suite() {
		prog := bench.Build(mach, bench.DefaultScale)
		for _, p := range prog.Procs {
			removed, rounds, d := checkDCE(&w, p, mach)
			if d != "" {
				t.Fatalf("%s proc %s: %s", bench.Name, p.Name, d)
			}
			suiteRemoved += removed
			if rounds == 4 {
				fourRounds++
			}
			maxRounds = max(maxRounds, rounds)
		}
	}
	if suiteRemoved != 137 || fourRounds != 1 || maxRounds != 4 {
		t.Errorf("suite: removed %d (want 137), %d procedures with 4 rounds (want 1), max rounds %d (want 4)",
			suiteRemoved, fourRounds, maxRounds)
	}
	for _, mod := range progs.Table3Modules(mach) {
		for _, p := range mod.Prog.Procs {
			if removed, _, d := checkDCE(&w, p, mach); d != "" || removed != 0 {
				t.Errorf("%s proc %s: removed %d (want 0) %s", mod.Name, p.Name, removed, d)
			}
		}
	}
}
