package regalloc

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/opt"
)

// Engine is a reusable, concurrency-safe allocation pipeline for one
// machine. Construct it once with New and use it for any number of
// procedures or programs: each worker goroutine draws a pooled allocator
// instance whose scratch buffers persist across allocations, so the
// batch hot path stops re-allocating scan state per procedure.
type Engine struct {
	mach *Machine

	algorithm     string
	binpack       BinpackOptions
	binpackSet    bool
	binpackEff    BinpackOptions // effective options (cache fingerprint)
	passes        opt.Passes
	parallelism   int
	profilePhases bool
	observer      Observer
	cache         ResultCache

	factory alloc.Factory
	pool    sync.Pool // of *opt.Worker, one per concurrent worker
	obsMu   sync.Mutex
}

// Option configures an Engine at construction time.
type Option func(*Engine) error

// WithAlgorithm selects the allocator by registry name (see Algorithms
// for the available set; the built-ins are "binpack", "twopass",
// "coloring" and "linearscan"). The default is "binpack", the paper's
// second-chance allocator.
func WithAlgorithm(name string) Option {
	return func(e *Engine) error {
		e.algorithm = name
		return nil
	}
}

// WithBinpack tunes the binpacking allocator family. It applies only to
// the "binpack" and "twopass" algorithms and is ignored by every other;
// the SecondChance field is forced to match the selected algorithm.
func WithBinpack(o BinpackOptions) Option {
	return func(e *Engine) error {
		e.binpack = o
		e.binpackSet = true
		return nil
	}
}

// WithDCE toggles dead-code elimination before allocation (§3 pipeline;
// on by default).
func WithDCE(on bool) Option {
	return func(e *Engine) error {
		e.passes.DCE = on
		return nil
	}
}

// WithPeephole toggles the post-allocation peephole pass that deletes
// collapsed moves (§3 pipeline; on by default).
func WithPeephole(on bool) Option {
	return func(e *Engine) error {
		e.passes.Peephole = on
		return nil
	}
}

// WithForwardStores toggles local store-to-load forwarding on the
// allocated code (the §2.4 follow-on cleanup; off by default).
func WithForwardStores(on bool) Option {
	return func(e *Engine) error {
		e.passes.ForwardStores = on
		return nil
	}
}

// WithVerify toggles the symbolic allocation verifier on every result
// (on by default).
func WithVerify(on bool) Option {
	return func(e *Engine) error {
		e.passes.Verify = on
		return nil
	}
}

// WithParallelism bounds the worker pool AllocateProgram fans
// procedures out over. Values below 1 select runtime.GOMAXPROCS(0),
// which is also the default. Results are deterministic regardless of
// the parallelism level.
func WithParallelism(n int) Option {
	return func(e *Engine) error {
		if n < 1 {
			n = runtime.GOMAXPROCS(0)
		}
		e.parallelism = n
		return nil
	}
}

// WithPhaseProfile annotates the per-phase nanosecond timings every
// Report carries with heap-allocation counters, sampled from
// runtime/metrics at each phase boundary. Sampling is cheap but not
// free, so it is off by default; timings alone are always collected.
// Every allocator is profiled alike: the engine's phase timer is the
// one it receives. Heap counters are process-global, so per-phase
// allocation figures are only exact under WithParallelism(1).
func WithPhaseProfile(on bool) Option {
	return func(e *Engine) error {
		e.profilePhases = on
		return nil
	}
}

// WithObserver installs a hook that receives one Event per procedure as
// AllocateProgram completes it. Events are delivered serially (the
// engine holds a lock), but under parallelism they may arrive out of
// input order; use Event.Index to correlate. The hook must not call
// back into the engine.
func WithObserver(fn Observer) Option {
	return func(e *Engine) error {
		e.observer = fn
		return nil
	}
}

// Observer receives per-procedure progress events from AllocateProgram.
type Observer func(Event)

// Event describes one allocated (or failed) procedure.
type Event struct {
	// Proc is the procedure name; Index its position in prog.Procs.
	Proc  string
	Index int
	// Stats is the allocation's statistics (zero when Err is set).
	Stats Stats
	// Elapsed is the wall time of this procedure's full pipeline.
	Elapsed time.Duration
	// Err is the pipeline error, if the procedure failed.
	Err error
}

// ProcReport is one procedure's slice of a Report.
type ProcReport struct {
	Proc    string        `json:"proc"`
	Stats   Stats         `json:"stats"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// PhaseStat is one pipeline phase's aggregate cost across a batch:
// summed wall time, its share of the total phase time, and — when the
// engine was built WithPhaseProfile — heap allocations attributed to
// the phase.
type PhaseStat struct {
	Phase  string  `json:"phase"`
	Ns     int64   `json:"ns"`
	Share  float64 `json:"share"`
	Allocs uint64  `json:"allocs,omitempty"`
	Bytes  uint64  `json:"bytes,omitempty"`
}

// Report aggregates one AllocateProgram run: per-procedure statistics in
// input order, their totals, the per-phase cost breakdown, and the batch
// wall time. HeapAllocs/HeapBytes are the process's heap-allocation
// deltas over the batch (approximate: concurrent activity outside the
// engine is included), the coarse steady-state allocs-per-batch figure
// the bench suite regresses on.
type Report struct {
	Algorithm   string        `json:"algorithm"`
	Machine     string        `json:"machine"`
	Parallelism int           `json:"parallelism"`
	Procs       []ProcReport  `json:"procs"`
	Totals      Stats         `json:"totals"`
	PhaseStats  []PhaseStat   `json:"phase_stats,omitempty"`
	HeapAllocs  uint64        `json:"heap_allocs"`
	HeapBytes   uint64        `json:"heap_bytes"`
	WallTime    time.Duration `json:"wall_time_ns"`
	// Cached marks a report returned from the result cache by
	// AllocateCached: the statistics describe the original allocation
	// that populated the entry, and no pipeline phase ran for this
	// request.
	Cached bool `json:"cached,omitempty"`
}

// New constructs an Engine for a machine. With no options it mirrors
// the paper's experimental pipeline: second-chance binpacking with DCE,
// peephole and verification on, fanning batches out over
// runtime.GOMAXPROCS(0) workers.
func New(mach *Machine, opts ...Option) (*Engine, error) {
	if mach == nil {
		return nil, fmt.Errorf("regalloc: New: nil machine")
	}
	e := &Engine{
		mach:        mach,
		algorithm:   "binpack",
		passes:      opt.Passes{DCE: true, Verify: true, Peephole: true},
		parallelism: runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o(e); err != nil {
			return nil, err
		}
	}
	switch e.algorithm {
	case "binpack", "twopass":
		bo := core.DefaultOptions()
		if e.binpackSet {
			bo = e.binpack
		}
		bo.SecondChance = e.algorithm == "binpack"
		e.binpackEff = bo
		e.factory = func(m *Machine) Allocator { return core.New(m, bo) }
	default:
		f, ok := alloc.Lookup(e.algorithm)
		if !ok {
			return nil, fmt.Errorf("regalloc: unknown algorithm %q (have %v)", e.algorithm, Algorithms())
		}
		e.factory = f
	}
	e.pool.New = func() any { return &opt.Worker{A: e.factory(e.mach)} }
	return e, nil
}

// Machine returns the machine the engine allocates for.
func (e *Engine) Machine() *Machine { return e.mach }

// Algorithm returns the registry name of the engine's allocator.
func (e *Engine) Algorithm() string { return e.algorithm }

// AllocateProc runs the configured pipeline (opt.Worker.Allocate) on
// one procedure and returns the rewritten procedure with statistics.
// The input is not modified. Safe for concurrent use.
func (e *Engine) AllocateProc(p *Proc) (*Result, error) {
	w := e.pool.Get().(*opt.Worker)
	defer e.pool.Put(w)
	return w.Allocate(p, e.mach, e.passes, e.profilePhases)
}

// AllocateProgram allocates every procedure of prog over the engine's
// bounded worker pool and returns the allocated program plus an
// aggregate report. Results are deterministic: procedures, report rows
// and the output program are in prog.Procs order regardless of
// parallelism, and on failure the error of the earliest failing
// procedure is returned. Cancelling ctx stops the batch early with
// ctx's error. The observer hook, if installed, sees every completed
// procedure.
func (e *Engine) AllocateProgram(ctx context.Context, prog *Program) (*Program, *Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	heapAllocs0, heapBytes0 := alloc.HeapCounters()
	procs := prog.Procs
	results := make([]*Result, len(procs))
	elapsed := make([]time.Duration, len(procs))

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
		errIndex = len(procs)
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < errIndex {
			firstErr, errIndex = err, i
		}
		mu.Unlock()
		cancel()
	}

	workers := e.parallelism
	if workers > len(procs) {
		workers = len(procs)
	}
	if workers < 1 {
		workers = 1
	}
	work := func(i int) {
		if ctx.Err() != nil {
			return // drain: the batch is already failing
		}
		procStart := time.Now()
		res, err := e.AllocateProc(procs[i])
		elapsed[i] = time.Since(procStart)
		ev := Event{Proc: procs[i].Name, Index: i, Elapsed: elapsed[i], Err: err}
		if err == nil {
			results[i] = res
			ev.Stats = res.Stats
		}
		e.observe(ev)
		if err != nil {
			fail(i, err)
		}
	}
	if workers == 1 {
		// Inline fast path: a single worker gains nothing from the pool,
		// and the per-proc channel rendezvous is pure scheduler traffic —
		// measurably so when other goroutines (a decode-ahead stage, the
		// service's accept loop) are runnable on the same core.
		for i := range procs {
			work(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					work(i)
				}
			}()
		}
		for i := range procs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	if firstErr != nil {
		return nil, nil, firstErr
	}
	if err := context.Cause(ctx); err != nil {
		return nil, nil, err
	}

	out := ir.NewProgram(prog.MemWords)
	out.Main = prog.Main
	for addr, v := range prog.MemInit {
		out.SetMem(addr, v)
	}
	rep := &Report{
		Algorithm:   e.algorithm,
		Machine:     e.mach.Name,
		Parallelism: workers,
		Procs:       make([]ProcReport, 0, len(procs)),
	}
	for i, res := range results {
		out.AddProc(res.Proc)
		rep.Procs = append(rep.Procs, ProcReport{Proc: procs[i].Name, Stats: res.Stats, Elapsed: elapsed[i]})
		rep.Totals.Add(res.Stats)
	}
	rep.PhaseStats = phaseStats(rep.Totals.Phases)
	heapAllocs1, heapBytes1 := alloc.HeapCounters()
	rep.HeapAllocs = heapAllocs1 - heapAllocs0
	rep.HeapBytes = heapBytes1 - heapBytes0
	rep.WallTime = time.Since(start)
	return out, rep, nil
}

// phaseStats renders aggregated phase samples as the Report's PhaseStats
// section, in phase declaration order.
func phaseStats(pt alloc.PhaseTimes) []PhaseStat {
	total := pt.TotalNs()
	stats := make([]PhaseStat, 0, alloc.NumPhases)
	for i := range pt {
		s := PhaseStat{
			Phase:  alloc.Phase(i).String(),
			Ns:     pt[i].Ns,
			Allocs: pt[i].Allocs,
			Bytes:  pt[i].Bytes,
		}
		if total > 0 {
			s.Share = float64(pt[i].Ns) / float64(total)
		}
		stats = append(stats, s)
	}
	return stats
}

// observe delivers one event to the observer hook, serialized so the
// hook needs no locking of its own.
func (e *Engine) observe(ev Event) {
	if e.observer == nil {
		return
	}
	e.obsMu.Lock()
	defer e.obsMu.Unlock()
	e.observer(ev)
}
