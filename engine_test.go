package regalloc_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	regalloc "repro"
	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/progs"
)

// binpackAllocator returns a fresh instance of the registered
// second-chance binpacking allocator, for wrappers that delegate to it.
func binpackAllocator(m *regalloc.Machine) regalloc.Allocator {
	f, ok := alloc.Lookup("binpack")
	if !ok {
		panic("binpack allocator not registered")
	}
	return f(m)
}

// dumpProgram renders every allocated procedure, for byte-for-byte
// determinism comparisons.
func dumpProgram(prog *regalloc.Program, mach *regalloc.Machine) string {
	var sb strings.Builder
	for _, p := range prog.Procs {
		sb.WriteString(regalloc.DumpProc(p, mach))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestRegistryBuiltins(t *testing.T) {
	have := regalloc.Algorithms()
	for _, want := range []string{"binpack", "coloring", "linearscan", "twopass"} {
		found := false
		for _, n := range have {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in %q missing from registry %v", want, have)
		}
	}
}

// publicAllocator is an allocator written only against the public
// regalloc API, as a package outside the module would write one. It
// records what the engine hands it and delegates the allocation itself
// to inner.
type publicAllocator struct {
	inner regalloc.Allocator
	seen  *allocatorCalls
}

// allocatorCalls is what the publicAllocator instances of one
// registration observed.
type allocatorCalls struct {
	calls       atomic.Int64
	badLiveness atomic.Int64 // calls whose liveness did not fit the procedure
	deepBlocks  atomic.Int64 // blocks that arrived with a loop depth set
	earlySaves  atomic.Int64 // callee saves present when inner returned
}

func (a publicAllocator) Name() string { return "test-public" }

func (a publicAllocator) Allocate(p *regalloc.Proc, lv *regalloc.Liveness, tm *regalloc.Timer) (*regalloc.Result, error) {
	a.seen.calls.Add(1)
	if lv == nil || len(lv.LiveIn) != len(p.Blocks) || len(lv.LiveOut) != len(p.Blocks) {
		a.seen.badLiveness.Add(1)
	}
	for _, b := range p.Blocks {
		if b.Depth > 0 {
			a.seen.deepBlocks.Add(1)
		}
	}
	res, err := a.inner.Allocate(p, lv, tm)
	if err == nil {
		a.seen.earlySaves.Add(int64(countTagged(res.Proc, "save")))
	}
	return res, err
}

// countTagged counts p's instructions carrying the named spill tag.
func countTagged(p *regalloc.Proc, tag string) int {
	n := 0
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Tag.String() == tag {
				n++
			}
		}
	}
	return n
}

// publicCalls maps each name registerPublic registered to the record
// its instances share. The registry never forgets a name, so a repeated
// run (-count) keeps the registration and starts a fresh record.
var (
	publicMu    sync.Mutex
	publicCalls = map[string]*allocatorCalls{}
)

// registerPublic registers publicAllocator, delegating to binpack,
// under name and returns the record its instances share.
func registerPublic(t *testing.T, name string) *allocatorCalls {
	t.Helper()
	publicMu.Lock()
	defer publicMu.Unlock()
	_, registered := publicCalls[name]
	seen := new(allocatorCalls)
	publicCalls[name] = seen
	if registered {
		return seen
	}
	err := regalloc.Register(name, func(m *regalloc.Machine) regalloc.Allocator {
		publicMu.Lock()
		defer publicMu.Unlock()
		return publicAllocator{inner: binpackAllocator(m), seen: publicCalls[name]}
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	return seen
}

func TestRegistryRoundTrip(t *testing.T) {
	seen := registerPublic(t, "test-counting")

	// Lookup via Algorithms.
	found := false
	for _, n := range regalloc.Algorithms() {
		if n == "test-counting" {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered name not listed in %v", regalloc.Algorithms())
	}

	// Duplicate registration must fail.
	if err := regalloc.Register("test-counting", func(m *regalloc.Machine) regalloc.Allocator { return nil }); err == nil {
		t.Fatal("duplicate Register succeeded")
	}
	// Empty name and nil factory must fail.
	if err := regalloc.Register("", func(m *regalloc.Machine) regalloc.Allocator { return nil }); err == nil {
		t.Fatal("empty-name Register succeeded")
	}
	if err := regalloc.Register("test-nil-factory", nil); err == nil {
		t.Fatal("nil-factory Register succeeded")
	}

	// An engine resolves the custom name and drives the custom allocator.
	mach := regalloc.Alpha()
	eng, err := regalloc.New(mach, regalloc.WithAlgorithm("test-counting"))
	if err != nil {
		t.Fatal(err)
	}
	prog := progs.Named("wc").Build(mach, 1)
	if _, _, err := eng.AllocateProgram(context.Background(), prog); err != nil {
		t.Fatal(err)
	}
	if got := seen.calls.Load(); got != int64(len(prog.Procs)) {
		t.Fatalf("custom allocator saw %d calls, want %d", got, len(prog.Procs))
	}
}

// TestExternalAllocator drives a publicAllocator through an engine with
// DCE on and checks the Allocator contract from the allocator's side:
// one call per procedure, liveness shaped for the procedure it
// receives, loop depths set on entry, and callee saves inserted by the
// engine after the allocator returns, in output that runs like the
// source program.
func TestExternalAllocator(t *testing.T) {
	seen := registerPublic(t, "test-public")
	mach := regalloc.Alpha()
	eng, err := regalloc.New(mach, regalloc.WithAlgorithm("test-public"),
		regalloc.WithDCE(true), regalloc.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	bm := progs.Named("wc")
	prog := bm.Build(mach, 1)
	for _, p := range prog.Procs {
		for _, b := range p.Blocks {
			if b.Depth != 0 {
				t.Fatalf("%s: source block %s already has loop depth %d", p.Name, b.Name, b.Depth)
			}
		}
	}
	out, rep, err := eng.AllocateProgram(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if got := seen.calls.Load(); got != int64(len(prog.Procs)) {
		t.Fatalf("Allocate saw %d calls, want %d", got, len(prog.Procs))
	}
	if n := seen.badLiveness.Load(); n != 0 {
		t.Fatalf("%d calls received liveness that does not fit the procedure", n)
	}
	if seen.deepBlocks.Load() == 0 {
		t.Fatal("no block arrived with a loop depth set, though wc loops")
	}
	if n := seen.earlySaves.Load(); n != 0 {
		t.Fatalf("%d callee saves were in place before the allocator returned", n)
	}
	saves := 0
	for i, p := range out.Procs {
		n := countTagged(p, "save")
		if want := rep.Procs[i].Stats.UsedCalleeSaved; n != want || countTagged(p, "restore") < n {
			t.Errorf("%s: %d saves and %d restores for %d used callee-saved registers",
				p.Name, n, countTagged(p, "restore"), want)
		}
		saves += n
	}
	if saves == 0 {
		t.Fatal("wc used no callee-saved register, so the epilogue inserted nothing")
	}
	input := bm.Input(1)
	want, err := regalloc.Execute(prog, mach, input)
	if err != nil {
		t.Fatal(err)
	}
	got, err := regalloc.ExecuteParanoid(out, mach, input)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Output, want.Output) {
		t.Fatalf("allocated wc printed %q, source printed %q", got.Output, want.Output)
	}
}

func TestEngineUnknownAlgorithm(t *testing.T) {
	_, err := regalloc.New(regalloc.Alpha(), regalloc.WithAlgorithm("no-such-allocator"))
	if err == nil {
		t.Fatal("New accepted an unknown algorithm")
	}
	if !strings.Contains(err.Error(), "no-such-allocator") {
		t.Fatalf("error %q does not name the algorithm", err)
	}
}

func TestEngineNilMachine(t *testing.T) {
	if _, err := regalloc.New(nil); err == nil {
		t.Fatal("New accepted a nil machine")
	}
}

// TestEngineOptionApplication checks that each functional option changes
// the engine's observable behavior.
func TestEngineOptionApplication(t *testing.T) {
	mach := regalloc.Alpha()
	prog := progs.Named("wc").Build(mach, 1)

	// WithAlgorithm is reflected by Algorithm().
	eng, err := regalloc.New(mach, regalloc.WithAlgorithm("coloring"))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Algorithm() != "coloring" {
		t.Fatalf("Algorithm() = %q, want coloring", eng.Algorithm())
	}
	if eng.Machine() != mach {
		t.Fatal("Machine() does not return the construction machine")
	}

	// Defaults match the paper's pipeline spelled out option by option,
	// byte for byte.
	defEng, err := regalloc.New(mach, regalloc.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	gotProg, _, err := defEng.AllocateProgram(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	paperEng, err := regalloc.New(mach,
		regalloc.WithAlgorithm("binpack"), regalloc.WithBinpack(core.DefaultOptions()),
		regalloc.WithDCE(true), regalloc.WithPeephole(true), regalloc.WithForwardStores(false),
		regalloc.WithVerify(true), regalloc.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	wantProg, _, err := paperEng.AllocateProgram(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if dumpProgram(gotProg, mach) != dumpProgram(wantProg, mach) {
		t.Fatal("default engine and the explicitly configured paper pipeline disagree")
	}

	// WithPeephole(false) leaves collapsed moves in place: the dump must
	// differ from the default pipeline on a workload with parameter
	// moves.
	noPeep, err := regalloc.New(mach, regalloc.WithPeephole(false), regalloc.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	noPeepProg, _, err := noPeep.AllocateProgram(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if dumpProgram(noPeepProg, mach) == dumpProgram(gotProg, mach) {
		t.Fatal("WithPeephole(false) had no effect")
	}

	// WithBinpack is honored: on a spill-heavy workload the strict-linear
	// variant must still compute the program's result and differ from
	// the engine's default configuration.
	spilly := progs.Named("fpppp").Build(mach, 1)
	strictOpts := core.DefaultOptions()
	strictOpts.StrictLinear = true
	strictEng, err := regalloc.New(mach, regalloc.WithBinpack(strictOpts), regalloc.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	strictProg, _, err := strictEng.AllocateProgram(context.Background(), spilly)
	if err != nil {
		t.Fatal(err)
	}
	want, err := regalloc.Execute(spilly, mach, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := regalloc.ExecuteParanoid(strictProg, mach, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Output, want.Output) || got.RetValue != want.RetValue {
		t.Fatal("WithBinpack(strict) changed the program's result")
	}
	defSpilly, _, err := defEng.AllocateProgram(context.Background(), spilly)
	if err != nil {
		t.Fatal(err)
	}
	if dumpProgram(strictProg, mach) == dumpProgram(defSpilly, mach) {
		t.Fatal("WithBinpack(strict) had no effect")
	}
}

// TestEngineParallelDeterminism is the acceptance criterion: allocating
// the whole suite with 8 workers must produce byte-identical dumps to
// the serial run. Run under -race this also exercises the engine's
// concurrency safety.
func TestEngineParallelDeterminism(t *testing.T) {
	for _, mach := range []*regalloc.Machine{regalloc.Alpha(), regalloc.Tiny(8, 6)} {
		for _, algo := range []string{"binpack", "twopass", "coloring", "linearscan"} {
			serial, err := regalloc.New(mach, regalloc.WithAlgorithm(algo), regalloc.WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := regalloc.New(mach, regalloc.WithAlgorithm(algo), regalloc.WithParallelism(8))
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range progs.Suite() {
				prog := b.Build(mach, 1)
				sProg, sRep, err := serial.AllocateProgram(context.Background(), prog)
				if err != nil {
					t.Fatalf("%s/%s/%s serial: %v", mach.Name, algo, b.Name, err)
				}
				pProg, pRep, err := parallel.AllocateProgram(context.Background(), prog)
				if err != nil {
					t.Fatalf("%s/%s/%s parallel: %v", mach.Name, algo, b.Name, err)
				}
				if ds, dp := dumpProgram(sProg, mach), dumpProgram(pProg, mach); ds != dp {
					t.Fatalf("%s/%s/%s: parallel dump differs from serial", mach.Name, algo, b.Name)
				}
				if len(sRep.Procs) != len(pRep.Procs) {
					t.Fatalf("%s/%s/%s: report row counts differ", mach.Name, algo, b.Name)
				}
				for i := range sRep.Procs {
					if sRep.Procs[i].Proc != pRep.Procs[i].Proc {
						t.Fatalf("%s/%s/%s: report order differs at %d", mach.Name, algo, b.Name, i)
					}
					if sRep.Procs[i].Stats.SpilledTemps != pRep.Procs[i].Stats.SpilledTemps {
						t.Fatalf("%s/%s/%s: stats differ for %s", mach.Name, algo, b.Name, sRep.Procs[i].Proc)
					}
				}
			}
		}
	}
}

// TestEngineParallelDeterminismRandom stresses many-proc random programs
// through one shared engine from multiple shapes.
func TestEngineParallelDeterminismRandom(t *testing.T) {
	mach := regalloc.Tiny(6, 4)
	serial, err := regalloc.New(mach, regalloc.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := regalloc.New(mach, regalloc.WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 6; seed++ {
		prog := progs.Random(mach, progs.DefaultGen(seed))
		sProg, _, err := serial.AllocateProgram(context.Background(), prog)
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		pProg, _, err := parallel.AllocateProgram(context.Background(), prog)
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}
		if dumpProgram(sProg, mach) != dumpProgram(pProg, mach) {
			t.Fatalf("seed %d: parallel dump differs from serial", seed)
		}
	}

	// A many-procedure module actually saturates the worker pool. The
	// verifier runs here too: its zero-initialized-temp rule accepts
	// whole-lifetime allocations of module programs whose defs sit on
	// structurally-skippable paths (formerly a ROADMAP open item that
	// forced WithVerify(false)).
	alpha := regalloc.Alpha()
	mod := progs.BuildModule(alpha, "det-module", 16, 60, 2).Prog
	for _, algo := range []string{"binpack", "coloring"} {
		s, err := regalloc.New(alpha, regalloc.WithAlgorithm(algo),
			regalloc.WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		p, err := regalloc.New(alpha, regalloc.WithAlgorithm(algo),
			regalloc.WithParallelism(8))
		if err != nil {
			t.Fatal(err)
		}
		sProg, _, err := s.AllocateProgram(context.Background(), mod)
		if err != nil {
			t.Fatalf("module serial %s: %v", algo, err)
		}
		pProg, _, err := p.AllocateProgram(context.Background(), mod)
		if err != nil {
			t.Fatalf("module parallel %s: %v", algo, err)
		}
		if dumpProgram(sProg, alpha) != dumpProgram(pProg, alpha) {
			t.Fatalf("module %s: parallel dump differs from serial", algo)
		}
	}
}

// TestVerifierAcceptsWholeLifetimeOnModules pins the fix for the ROADMAP
// open item: module programs place defs on structurally-skippable loop
// paths, and the verifier's zero-initialized-temp rule must accept the
// whole-lifetime allocators (coloring, linearscan, twopass) on them with
// verification enabled.
func TestVerifierAcceptsWholeLifetimeOnModules(t *testing.T) {
	mach := regalloc.Alpha()
	mod := progs.BuildModule(mach, "verify-module", 6, 120, 2).Prog
	for _, algo := range []string{"binpack", "twopass", "coloring", "linearscan"} {
		eng, err := regalloc.New(mach, regalloc.WithAlgorithm(algo), regalloc.WithVerify(true))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := eng.AllocateProgram(context.Background(), mod); err != nil {
			t.Errorf("%s: verified module allocation failed: %v", algo, err)
		}
	}
}

func TestEngineObserver(t *testing.T) {
	mach := regalloc.Alpha()
	prog := progs.Named("li").Build(mach, 1)

	var events atomic.Int64
	seen := make([]atomic.Bool, len(prog.Procs))
	eng, err := regalloc.New(mach,
		regalloc.WithParallelism(4),
		regalloc.WithObserver(func(ev regalloc.Event) {
			events.Add(1)
			if ev.Err != nil {
				t.Errorf("observer saw error for %s: %v", ev.Proc, ev.Err)
			}
			if ev.Index < 0 || ev.Index >= len(prog.Procs) {
				t.Errorf("observer index %d out of range", ev.Index)
				return
			}
			if seen[ev.Index].Swap(true) {
				t.Errorf("observer saw index %d twice", ev.Index)
			}
			if prog.Procs[ev.Index].Name != ev.Proc {
				t.Errorf("observer event %d names %q, want %q", ev.Index, ev.Proc, prog.Procs[ev.Index].Name)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := eng.AllocateProgram(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if got := events.Load(); got != int64(len(prog.Procs)) {
		t.Fatalf("observer saw %d events, want %d", got, len(prog.Procs))
	}
	if rep.Totals.Candidates == 0 {
		t.Fatal("report totals empty")
	}
	if rep.Algorithm != "binpack" || rep.Machine != mach.Name {
		t.Fatalf("report header %q/%q wrong", rep.Algorithm, rep.Machine)
	}
}

// TestEnginePhaseStats checks the Report's phase breakdown: every run
// reports per-phase timings whose sum matches the totals, and
// WithPhaseProfile annotates phases with allocation counters.
func TestEnginePhaseStats(t *testing.T) {
	mach := regalloc.Alpha()
	prog := progs.Named("fpppp").Build(mach, 1)
	eng, err := regalloc.New(mach, regalloc.WithParallelism(1), regalloc.WithPhaseProfile(true))
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := eng.AllocateProgram(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PhaseStats) == 0 {
		t.Fatal("report has no PhaseStats")
	}
	var sumNs int64
	var share float64
	seen := map[string]bool{}
	for _, ps := range rep.PhaseStats {
		if ps.Ns < 0 {
			t.Errorf("phase %s has negative time", ps.Phase)
		}
		sumNs += ps.Ns
		share += ps.Share
		seen[ps.Phase] = true
	}
	for _, want := range []string{"cfg", "dataflow", "lifetime", "scan", "moves", "opt", "verify", "other"} {
		if !seen[want] {
			t.Errorf("phase %q missing from PhaseStats", want)
		}
	}
	if sumNs != rep.Totals.Phases.TotalNs() || sumNs <= 0 {
		t.Fatalf("phase ns sum %d disagrees with totals %d", sumNs, rep.Totals.Phases.TotalNs())
	}
	if share < 0.99 || share > 1.01 {
		t.Fatalf("phase shares sum to %v, want ~1", share)
	}
	// fpppp at scale 1 spills: the scan phase must both take time and,
	// under WithPhaseProfile, report allocation traffic somewhere.
	var allocs uint64
	for _, ps := range rep.PhaseStats {
		allocs += ps.Allocs
	}
	if allocs == 0 {
		t.Fatal("WithPhaseProfile(true) reported zero allocations across all phases")
	}
	if rep.HeapAllocs == 0 || rep.HeapBytes == 0 {
		t.Fatal("batch heap counters missing")
	}

	// Every built-in is profiled alike: they all mark phases on the
	// engine's timer.
	for _, name := range []string{"binpack", "twopass", "coloring", "linearscan", "oracle"} {
		eng, err := regalloc.New(mach, regalloc.WithAlgorithm(name),
			regalloc.WithParallelism(1), regalloc.WithPhaseProfile(true))
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := eng.AllocateProgram(context.Background(), prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var allocs uint64
		for _, ps := range rep.PhaseStats {
			allocs += ps.Allocs
		}
		if allocs == 0 {
			t.Errorf("%s under WithPhaseProfile reported zero allocs across phases", name)
		}
	}

	// Without profiling, timings still arrive but alloc counters are 0.
	plain, err := regalloc.New(mach, regalloc.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	_, rep2, err := plain.AllocateProgram(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Totals.Phases.TotalNs() <= 0 {
		t.Fatal("phase timings missing without profiling")
	}
	for _, ps := range rep2.PhaseStats {
		if ps.Allocs != 0 {
			t.Fatalf("phase %s has alloc counters without WithPhaseProfile", ps.Phase)
		}
	}
}

func TestEngineContextCancellation(t *testing.T) {
	mach := regalloc.Alpha()
	prog := progs.Named("li").Build(mach, 2)
	eng, err := regalloc.New(mach, regalloc.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the batch must fail fast
	_, _, err = eng.AllocateProgram(ctx, prog)
	if err == nil {
		t.Fatal("cancelled AllocateProgram succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestAlgorithmNames checks the engine accepts every built-in
// allocator by its registry name and reports it back.
func TestAlgorithmNames(t *testing.T) {
	for _, name := range []string{"binpack", "twopass", "coloring", "linearscan"} {
		eng, err := regalloc.New(regalloc.Alpha(), regalloc.WithAlgorithm(name))
		if err != nil {
			t.Errorf("engine rejects built-in %q: %v", name, err)
			continue
		}
		if got := eng.Algorithm(); got != name {
			t.Errorf("WithAlgorithm(%q).Algorithm() = %q", name, got)
		}
	}
}

func TestParseMachine(t *testing.T) {
	m, err := regalloc.ParseMachine("alpha")
	if err != nil || m.Name != "alpha" {
		t.Fatalf("ParseMachine(alpha) = %v, %v", m, err)
	}
	m, err = regalloc.ParseMachine("tiny:6,4")
	if err != nil || m.Name != "tiny(6,4)" {
		t.Fatalf("ParseMachine(tiny:6,4) = %v, %v", m, err)
	}
	for _, bad := range []string{"", "tiny:", "tiny:x,y", "vax"} {
		if _, err := regalloc.ParseMachine(bad); err == nil {
			t.Errorf("ParseMachine(%q) succeeded", bad)
		}
	}
}

// TestEngineQuickstartShape is an example-style smoke test of the
// documented quickstart flow.
func TestEngineQuickstartShape(t *testing.T) {
	mach := regalloc.Alpha()
	b := regalloc.NewBuilder(mach, 8)
	pb := b.NewProc("main")
	x := pb.IntTemp("x")
	pb.Ldi(x, 41)
	pb.Op2(regalloc.OpAdd, x, regalloc.TempOp(x), regalloc.ImmOp(1))
	pb.Ret(x)

	eng, err := regalloc.New(mach)
	if err != nil {
		t.Fatal(err)
	}
	allocated, report, err := eng.AllocateProgram(context.Background(), b.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if report.Totals.Candidates == 0 || len(report.Procs) != 1 {
		t.Fatalf("unexpected report %+v", report)
	}
	out, err := regalloc.Execute(allocated, mach, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.RetValue != 42 {
		t.Fatalf("ret = %d, want 42", out.RetValue)
	}
}

// TestExperimentsPipelineIsEngine pins the grids and paper drivers to
// the deployed pipeline: experiments.Pipeline with the verifier on must
// print exactly what the engine's default configuration emits, for
// every built-in allocator over the Table 1 suite and every generator
// profile.
func TestExperimentsPipelineIsEngine(t *testing.T) {
	type named struct {
		name string
		prog *regalloc.Program
	}
	for _, spec := range []string{"alpha", "x86-8"} {
		mach, err := regalloc.ParseMachine(spec)
		if err != nil {
			t.Fatal(err)
		}
		var set []named
		for _, b := range progs.Suite() {
			set = append(set, named{b.Name, b.Build(mach, b.DefaultScale)})
		}
		for _, prof := range progs.Profiles() {
			for seed := int64(1); seed <= 2; seed++ {
				cfg, err := progs.ProfileGen(prof, seed)
				if err != nil {
					t.Fatal(err)
				}
				set = append(set, named{fmt.Sprintf("%s/%d", prof, seed), progs.Random(mach, cfg)})
			}
		}
		for _, algo := range []string{"binpack", "twopass", "coloring", "linearscan"} {
			eng, err := regalloc.New(mach, regalloc.WithAlgorithm(algo), regalloc.WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			f, _ := alloc.Lookup(algo)
			a := f(mach)
			for _, n := range set {
				want, _, err := eng.AllocateProgram(context.Background(), n.prog)
				if err != nil {
					t.Fatalf("%s %s on %s: engine: %v", algo, n.name, mach.Name, err)
				}
				got, _, err := experiments.Pipeline(n.prog, mach, a, true)
				if err != nil {
					t.Fatalf("%s %s on %s: experiments: %v", algo, n.name, mach.Name, err)
				}
				if g, w := dumpProgram(got, mach), dumpProgram(want, mach); g != w {
					t.Fatalf("%s %s on %s: experiments.Pipeline and the engine print different programs", algo, n.name, mach.Name)
				}
			}
		}
	}
}
