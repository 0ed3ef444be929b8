package main

// The -corpus section: the million-program throughput ladder. The
// paper's speed claim is about allocation, but a service front end can
// only be as fast as its program ingestion — BENCH_5 measured the cold
// serve path dominated by text parsing, not allocation. This section
// quantifies the fix end to end:
//
//   - The ladder decodes N programs (100k → 1M → 10M by default) from
//     an mmap'd corpus at full core saturation, cycling the corpus's
//     distinct programs, and reports programs/second per rung plus a
//     runtime-verified allocation count per decode (zero in steady
//     state — the claim BenchmarkCorpusDecodeSteadyState gates in CI).
//   - A bounded decode+allocate pass reports what ingestion plus the
//     actual linear-scan pipeline sustains per core: the contrast that
//     keeps the decode-only rung rates from being read as allocation
//     throughput.
//
// The corpus itself is a shard set (corpus.OpenSet): -corpus-shards
// controls how many members a generated corpus gets, and -corpus-file
// accepts a single file, a set base name, or a glob.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	regalloc "repro"
	"repro/internal/corpus"
	"repro/internal/irbin"
)

// corpusBench is the -corpus section of the -json document.
type corpusBench struct {
	// CorpusPrograms is the number of distinct programs in the corpus
	// file; rungs larger than that cycle it. CorpusBytes is the file
	// size; Workers the decode parallelism of the ladder.
	CorpusPrograms int   `json:"corpus_programs"`
	CorpusBytes    int64 `json:"corpus_bytes"`
	// Shards is the member count of the corpus shard set (1 for a
	// single-file corpus).
	Shards  int          `json:"shards"`
	Workers int          `json:"workers"`
	Rungs   []corpusRung `json:"rungs"`
	// Alloc is the bounded decode+allocate measurement (single engine,
	// full pipeline per program).
	Alloc *corpusAlloc `json:"alloc,omitempty"`
}

// corpusRung is one ladder step.
type corpusRung struct {
	// Programs is the rung size (decodes performed, cycling the corpus).
	Programs       int     `json:"programs"`
	ElapsedNs      int64   `json:"elapsed_ns"`
	ProgramsPerSec float64 `json:"programs_per_sec"`
	MBPerSec       float64 `json:"mb_per_sec"`
	NsPerProgram   int64   `json:"ns_per_program"`
	// AllocsPerProgram is measured with runtime.MemStats around the
	// timed loop (after arena warmup): the zero-copy decode claim,
	// enforced end to end rather than only in a microbenchmark.
	AllocsPerProgram float64 `json:"allocs_per_program"`
}

// corpusAlloc is the decode+allocate measurement.
type corpusAlloc struct {
	Programs       int     `json:"programs"`
	Machine        string  `json:"machine"`
	Algorithm      string  `json:"algorithm"`
	NsPerProgram   int64   `json:"ns_per_program"`
	ProgramsPerSec float64 `json:"programs_per_sec"`
	// DecodeShare is decode's fraction of the combined cost, estimated
	// from the pure-decode rate of the first rung.
	DecodeShare float64 `json:"decode_share"`
}

// parseRungs reads the -corpus-rungs flag: comma-separated ascending
// rung sizes.
func parseRungs(s string) ([]int, error) {
	var rungs []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad rung %q in -corpus-rungs", part)
		}
		rungs = append(rungs, n)
	}
	if len(rungs) == 0 {
		return nil, fmt.Errorf("-corpus-rungs is empty")
	}
	return rungs, nil
}

// corpusOpts collects the -corpus knobs.
type corpusOpts struct {
	// Path is the corpus argument: a file, a set base name, or a glob;
	// empty generates a temporary Shards-member set of Programs distinct
	// programs.
	Path     string
	Programs int
	Shards   int
	Rungs    []int
	// Workers is the decode ladder's parallelism (0 = GOMAXPROCS).
	Workers int
}

// runCorpusBench runs the ladder and the decode+allocate pass over the
// corpus set named by opt.Path (generated into a temp dir when empty).
func runCorpusBench(opt corpusOpts) (*corpusBench, error) {
	if opt.Path == "" {
		dir, err := os.MkdirTemp("", "lsra-corpus-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		opt.Path = filepath.Join(dir, "bench.lsco")
		if err := corpus.Generate(opt.Path, corpus.GenOptions{Count: opt.Programs, Seed: 1, Shards: opt.Shards}); err != nil {
			return nil, err
		}
	}
	r, err := corpus.OpenSet(opt.Path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if r.Count() == 0 {
		return nil, fmt.Errorf("corpus %s is empty", opt.Path)
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cb := &corpusBench{
		CorpusPrograms: r.Count(),
		CorpusBytes:    r.Size(),
		Shards:         r.Shards(),
		Workers:        workers,
	}

	// One arena per worker, warmed over the whole corpus so every
	// arena has reached its high-water capacity before anything is
	// timed — after this, the decode loop allocates nothing.
	arenas := make([]*irbin.Arena, workers)
	for w := range arenas {
		arenas[w] = irbin.NewArena()
		for i := 0; i < r.Count(); i++ {
			if _, err := r.Decode(i, arenas[w]); err != nil {
				return nil, err
			}
		}
	}

	for _, n := range opt.Rungs {
		rung, err := runRung(r, arenas, n)
		if err != nil {
			return nil, err
		}
		cb.Rungs = append(cb.Rungs, *rung)
	}

	alloc, err := runCorpusAlloc(r, min(r.Count(), 2000))
	if err != nil {
		return nil, err
	}
	if len(cb.Rungs) > 0 && cb.Rungs[0].NsPerProgram > 0 {
		alloc.DecodeShare = float64(cb.Rungs[0].NsPerProgram) / float64(alloc.NsPerProgram)
	}
	cb.Alloc = alloc
	return cb, nil
}

// runRung decodes n programs across the worker arenas, cycling the
// corpus, and measures wall time plus per-program heap allocations.
func runRung(r *corpus.Set, arenas []*irbin.Arena, n int) (*corpusRung, error) {
	workers := len(arenas)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		lo := n * w / workers
		hi := n * (w + 1) / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			arena := arenas[w]
			for i := lo; i < hi; i++ {
				// Decode mutates the arena, so the loop cannot be
				// optimized away; the program itself is dropped — this
				// rung isolates ingestion.
				if _, err := r.Decode(i%r.Count(), arena); err != nil {
					errs[w] = err
					return
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Bytes decoded = full corpus cycles plus the partial cycle.
	var cycleBytes int64
	for i := 0; i < r.Count(); i++ {
		cycleBytes += int64(len(r.Frame(i)))
	}
	decodedBytes := cycleBytes * int64(n/r.Count())
	for i := 0; i < n%r.Count(); i++ {
		decodedBytes += int64(len(r.Frame(i)))
	}
	rung := &corpusRung{
		Programs:  n,
		ElapsedNs: elapsed.Nanoseconds(),
	}
	if s := elapsed.Seconds(); s > 0 {
		rung.ProgramsPerSec = float64(n) / s
		rung.MBPerSec = float64(decodedBytes) / (1 << 20) / s
	}
	rung.NsPerProgram = elapsed.Nanoseconds() / int64(n)
	rung.AllocsPerProgram = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	return rung, nil
}

// runCorpusAlloc measures decode + full allocation pipeline over the
// first n corpus programs on one engine.
func runCorpusAlloc(r *corpus.Set, n int) (*corpusAlloc, error) {
	const machine = "alpha"
	mach, err := regalloc.ParseMachine(machine)
	if err != nil {
		return nil, err
	}
	eng, err := regalloc.New(mach, regalloc.WithParallelism(1))
	if err != nil {
		return nil, err
	}
	arena := irbin.NewArena()
	// Warm the engine's scratch arenas on one program before timing.
	prog, err := r.Decode(0, arena)
	if err != nil {
		return nil, err
	}
	if _, _, err := eng.AllocateProgram(context.Background(), prog); err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		prog, err := r.Decode(i, arena)
		if err != nil {
			return nil, err
		}
		if _, _, err := eng.AllocateProgram(context.Background(), prog); err != nil {
			return nil, fmt.Errorf("corpus program %d: %w", i, err)
		}
	}
	elapsed := time.Since(start)
	ca := &corpusAlloc{
		Programs:     n,
		Machine:      machine,
		Algorithm:    eng.Algorithm(),
		NsPerProgram: elapsed.Nanoseconds() / int64(n),
	}
	if s := elapsed.Seconds(); s > 0 {
		ca.ProgramsPerSec = float64(n) / s
	}
	return ca, nil
}
