// Package dataflowtest keeps the straightforward backward-union solver
// as a reference for differential tests. The production solver
// (dataflow.SolverScratch.Solve) grows In(b) in place and skips blocks
// whose Out(b) did not grow; this one recomputes
// In(b) = Gen(b) ∪ (Out(b) − Kill(b)) into a temporary on every visit
// and compares it with the old value, visiting blocks in the same
// worklist order. It also builds the corpus the differential tests run
// over. Only tests import it.
package dataflowtest

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/ir"
	"repro/internal/progs"
	"repro/internal/target"
)

// SolveBackwardUnion solves the backward union problem of
// dataflow.SolverScratch.Solve with fresh storage and returns In and
// Out indexed by Block.Order.
func SolveBackwardUnion(blocks []*ir.Block, n int, gen, kill func(*ir.Block) *bitset.Set) (in, out []*bitset.Set) {
	nb := len(blocks)
	in = make([]*bitset.Set, nb)
	out = make([]*bitset.Set, nb)
	for _, b := range blocks {
		in[b.Order] = bitset.New(n)
		out[b.Order] = bitset.New(n)
		if gen != nil {
			if g := gen(b); g != nil {
				in[b.Order].Copy(g)
			}
		}
	}
	work := make([]*ir.Block, 0, nb)
	inWork := make([]bool, nb)
	for i := nb - 1; i >= 0; i-- {
		work = append(work, blocks[i])
		inWork[blocks[i].Order] = true
	}
	tmp := bitset.New(n)
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[b.Order] = false

		o := out[b.Order]
		for _, s := range b.Succs {
			o.Union(in[s.Order])
		}
		tmp.Copy(o)
		if kill != nil {
			if k := kill(b); k != nil {
				tmp.Subtract(k)
			}
		}
		if gen != nil {
			if g := gen(b); g != nil {
				tmp.Union(g)
			}
		}
		if !tmp.Equal(in[b.Order]) {
			in[b.Order].Copy(tmp)
			for _, pred := range b.Preds {
				if !inWork[pred.Order] {
					inWork[pred.Order] = true
					work = append(work, pred)
				}
			}
		}
	}
	return in, out
}

// Diff returns "" when the two solutions are identical, or a
// description of the first block whose In or Out differs.
func Diff(blocks []*ir.Block, gotIn, gotOut, wantIn, wantOut []*bitset.Set) string {
	for _, b := range blocks {
		if !gotIn[b.Order].Equal(wantIn[b.Order]) {
			return "block " + b.Name + ": In " + gotIn[b.Order].String() + ", reference " + wantIn[b.Order].String()
		}
		if !gotOut[b.Order].Equal(wantOut[b.Order]) {
			return "block " + b.Name + ": Out " + gotOut[b.Order].String() + ", reference " + wantOut[b.Order].String()
		}
	}
	return ""
}

// Case is one differential-test input: a program and the machine it was
// generated for.
type Case struct {
	Name string
	Mach *target.Machine
	Prog *ir.Program
}

// Corpus returns the differential corpus: every generator profile on
// every machine preset for seeds 1..seeds, then the Table 3 modules on
// the Alpha.
func Corpus(seeds int) []Case {
	var cases []Case
	for _, mname := range target.PresetNames() {
		mach, err := target.Preset(mname)
		if err != nil {
			panic(err) // PresetNames lists only resolvable presets
		}
		for _, prof := range progs.Profiles() {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				cfg, err := progs.ProfileGen(prof, seed)
				if err != nil {
					panic(err)
				}
				cases = append(cases, Case{
					Name: fmt.Sprintf("%s/%s/%d", mname, prof, seed),
					Mach: mach,
					Prog: progs.Random(mach, cfg),
				})
			}
		}
	}
	alpha := target.Alpha()
	for _, mod := range progs.Table3Modules(alpha) {
		cases = append(cases, Case{Name: "table3/" + mod.Name, Mach: alpha, Prog: mod.Prog})
	}
	return cases
}
