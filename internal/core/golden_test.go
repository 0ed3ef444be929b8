package core

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/progs"
	"repro/internal/target"
)

var updateGolden = flag.Bool("golden.update", false, "rewrite testdata/golden_digests.txt from the current allocator")

const goldenFile = "testdata/golden_digests.txt"

// goldenMachines are the machines of the golden grid: the paper's
// target, the register-starved x86 preset and a tiny spill-forcer.
var goldenMachines = []string{"alpha", "x86-8", "tiny:4,3"}

// goldenSeeds is the number of seeds per generator profile.
const goldenSeeds = 3

// allOptions enumerates every Options combination the allocator
// distinguishes: the four switches and the two eviction heuristics.
func allOptions() []Options {
	var out []Options
	for bits := 0; bits < 16; bits++ {
		for _, h := range []HeuristicKind{HeuristicWeighted, HeuristicPlainDistance} {
			out = append(out, Options{
				SecondChance:      bits&1 != 0,
				MoveOpt:           bits&2 != 0,
				EarlySecondChance: bits&4 != 0,
				StrictLinear:      bits&8 != 0,
				Heuristic:         h,
			})
		}
	}
	return out
}

func optionsKey(o Options) string {
	b := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	return fmt.Sprintf("sc=%d mo=%d esc=%d sl=%d h=%d",
		b(o.SecondChance), b(o.MoveOpt), b(o.EarlySecondChance), b(o.StrictLinear), o.Heuristic)
}

// goldenProg is one program of the golden grid with its procedures
// already through dead-code elimination, as the engine runs them, and
// the liveness DCE returned for each. Allocation reads the liveness
// and rewrites only a clone, so one DCE serves every configuration.
type goldenProg struct {
	name  string
	procs []*ir.Proc
	lvs   []*dataflow.Liveness
}

func newGoldenProg(name string, prog *ir.Program) goldenProg {
	g := goldenProg{name: name}
	for _, orig := range prog.Procs {
		p := orig.Clone()
		lv, _ := opt.DeadCodeElim(p)
		g.procs = append(g.procs, p)
		g.lvs = append(g.lvs, lv)
	}
	return g
}

// digest allocates every procedure of g through a (reused) allocator
// and writes the tagged output and statistics into w. An allocation
// error is part of the digest.
func (g goldenProg) digest(w io.Writer, a *Allocator, mach *target.Machine) {
	pr := &ir.Printer{Mach: mach, Tags: true, Positions: true}
	fmt.Fprintf(w, "== %s\n", g.name)
	for i, p := range g.procs {
		tm := alloc.NewTimer(false)
		res, err := alloc.Run(a, mach, p.Clone(), g.lvs[i], &tm)
		if err != nil {
			fmt.Fprintf(w, "proc %s: error %v\n", p.Name, err)
			continue
		}
		pr.WriteProc(w, res.Proc)
		st := &res.Stats
		fmt.Fprintf(w, "spilled=%d inserted=%v callee=%d\n", st.SpilledTemps, st.Inserted, st.UsedCalleeSaved)
	}
}

// digestAll hashes the allocation of every program in gs.
func digestAll(a *Allocator, mach *target.Machine, gs []goldenProg) string {
	h := sha256.New()
	w := bufio.NewWriter(h)
	for _, g := range gs {
		g.digest(w, a, mach)
	}
	w.Flush()
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenDigests computes one SHA-256 digest per configuration of the
// golden grid, keyed by "<options>/<machine>/<set>".
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, mname := range goldenMachines {
		mach, err := target.Parse(mname)
		if err != nil {
			t.Fatal(err)
		}
		var suite, gen []goldenProg
		for _, bm := range progs.Suite() {
			suite = append(suite, newGoldenProg(bm.Name, bm.Build(mach, 1)))
		}
		for _, prof := range progs.Profiles() {
			for seed := int64(1); seed <= goldenSeeds; seed++ {
				cfg, err := progs.ProfileGen(prof, seed)
				if err != nil {
					t.Fatal(err)
				}
				gen = append(gen, newGoldenProg(fmt.Sprintf("%s/%d", prof, seed), progs.Random(mach, cfg)))
			}
		}
		for _, o := range allOptions() {
			a := New(mach, o)
			out[fmt.Sprintf("%s/%s/suite", optionsKey(o), mname)] = digestAll(a, mach, suite)
			out[fmt.Sprintf("%s/%s/gen", optionsKey(o), mname)] = digestAll(a, mach, gen)
		}
	}
	alpha := target.Alpha()
	var mods []goldenProg
	for _, m := range progs.Table3Modules(alpha) {
		mods = append(mods, newGoldenProg(m.Name, m.Prog))
	}
	strict := DefaultOptions()
	strict.StrictLinear = true
	for _, o := range []Options{DefaultOptions(), strict} {
		out[fmt.Sprintf("%s/alpha/table3", optionsKey(o))] = digestAll(New(alpha, o), alpha, mods)
	}
	return out
}

// TestGoldenAllocationDigests pins the allocator's output — every
// rewritten procedure printed with positions and spill tags, plus its
// spill, insertion and callee-save statistics — for every Options
// combination on the Table 1 suite and the generator profiles across
// three machines, and for the Table 3 modules under the default and
// strictly linear configurations. A change that is meant to be a pure
// speed-up must leave every digest unchanged; regenerate the file with
// -golden.update only for an intended change of allocation output.
func TestGoldenAllocationDigests(t *testing.T) {
	got := goldenDigests(t)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if *updateGolden {
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s\n", got[k], k)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		digest, key, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[key] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d configurations, grid has %d", len(want), len(got))
	}
	for _, k := range keys {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: no golden digest", k)
		} else if w != got[k] {
			t.Errorf("%s: digest %s, want %s", k, got[k][:16], w[:16])
		}
	}
}
