// Package pipeline overlaps binary-IR decode with register allocation
// over a corpus; perfbench's stream workload drives it. A loop that
// alternates decode and allocation in one goroutine idles each phase
// while the other runs and lets the two working sets evict each other;
// here a decode worker runs ahead of the allocator workers through a
// bounded ring of reusable slots:
//
//	source ─▶ decode worker ─▶ [filled ring] ─▶ allocator workers ─▶ sink
//	             ▲                                      │
//	             └───────────── [free ring] ◀───────────┘
//
// A slot owns a batch of decode arenas, so the per-program channel cost
// is amortized across the batch and the steady state allocates nothing.
// The slot count bounds how far decode runs ahead: when allocators fall
// behind, the free ring empties and the decode worker blocks —
// backpressure, measured.
// Every stage records busy and stall nanoseconds, so a run proves which
// side saturates instead of leaving it to folklore: with the free ring
// always empty the bottleneck is allocation; with the filled ring
// always empty it is decode.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	regalloc "repro"
	"repro/internal/ir"
	"repro/internal/irbin"
)

// Source is a random-access frame store: corpus.Reader and corpus.Set
// both satisfy it. Frame(i) must be valid for concurrent calls.
type Source interface {
	Count() int
	Frame(i int) []byte
}

// The ring's sizes. One goroutine decodes: decode is a few percent of
// decode+allocate, so one keeps ahead of several allocators. Allocator
// workers are GOMAXPROCS, read when Run starts.
const (
	// batch is the programs per ring slot: channel operations are paid
	// once per slot, not per program.
	batch = 64
	// slotsPerAllocator lets decode run 2×batch programs ahead per
	// allocator worker. More absorbs longer allocation stalls, but
	// memory — and GC scan work — grows with it (one warm decode arena
	// per in-flight program), which is why it scales with the consumers
	// rather than being a flat high-water mark.
	slotsPerAllocator = 2
)

// Config tunes one Run.
type Config struct {
	// Programs is the total number of decodes (cycling the source when
	// larger than Source.Count). Required.
	Programs int
}

// Result is one allocated program's outcome, delivered to the sink.
type Result struct {
	// Index is the global pipeline index (0 ≤ Index < Config.Programs);
	// the decoded source program was Index mod Source.Count().
	Index int
	// Report is the engine's allocation report for the program.
	Report *regalloc.Report
}

// Stats is one Run's measurement. The stall/busy splits attribute the
// wall time: a stage's stall is time spent blocked on its input ring.
type Stats struct {
	Programs      int
	DecodeWorkers int
	AllocWorkers  int
	WallNs        int64
	// Decoded and Allocated count programs through each stage (equal
	// after a clean run; they diverge on error or cancellation).
	Decoded   uint64
	Allocated uint64
	// DecodeBusyNs is the decode worker's decode time; DecodeStallNs
	// the time it spent waiting for a free slot (allocators behind —
	// backpressure). AllocBusyNs and AllocStallNs are the allocator-side
	// mirror, summed over allocator workers: busy is allocation plus
	// the sink's time, stall is waiting for a filled slot (decode
	// behind).
	DecodeBusyNs  int64
	DecodeStallNs int64
	AllocBusyNs   int64
	AllocStallNs  int64
	// DecodeUtilization and AllocUtilization are busy/(busy+stall) per
	// stage: the saturation proof. ≈1 for the bottleneck stage, low for
	// the stage that waits.
	DecodeUtilization float64
	AllocUtilization  float64
	ProgramsPerSec    float64
}

// Bottleneck names the saturated stage: the one with the higher
// utilization.
func (s *Stats) Bottleneck() string {
	if s.DecodeUtilization > s.AllocUtilization {
		return "decode"
	}
	return "allocate"
}

// warmFrame picks the largest of the source's first frames: decoding
// it grows an arena to (near) its high-water capacity in one step, the
// pre-timer warmup. Decode errors during warmup are
// ignored — the real decode loop reports them with an index attached.
func warmFrame(src Source) []byte {
	n := min(src.Count(), 256)
	best := src.Frame(0)
	for i := 1; i < n; i++ {
		if f := src.Frame(i); len(f) > len(best) {
			best = f
		}
	}
	return best
}

// slot is one ring entry: a batch of decoded programs, each pinned in
// its own arena so the batch survives until the allocator stage is
// done with it. Slots cycle free → filled → free; arenas keep their
// high-water capacity, so a warmed ring decodes without allocating.
type slot struct {
	arenas  []*irbin.Arena
	progs   []*ir.Program
	indexes []int
	n       int // programs in this batch
}

// Run streams cfg.Programs decodes from src through the bounded ring
// into eng, calling sink (when non-nil) once per program, concurrently
// from the allocator workers and in no particular order.
// It returns when every program is through, the context is cancelled,
// or a stage fails; in every case all pipeline goroutines have exited
// by the time Run returns.
func Run(ctx context.Context, src Source, eng *regalloc.Engine, cfg Config, sink func(Result)) (*Stats, error) {
	if src.Count() == 0 {
		return nil, errors.New("pipeline: empty source")
	}
	if cfg.Programs <= 0 {
		return nil, fmt.Errorf("pipeline: non-positive program count %d", cfg.Programs)
	}
	allocWorkers := runtime.GOMAXPROCS(0)
	nslots := slotsPerAllocator * allocWorkers

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Both rings hold every slot, so sends never block: a decode worker
	// can only stall receiving from free, an allocator only receiving
	// from filled. That makes the stall counters exact attributions.
	// Every arena is warmed to near its steady-state footprint before
	// the clock starts, so the ring decodes without allocating from the
	// first slot instead of paying one cold growth per arena mid-run.
	warm := warmFrame(src)
	free := make(chan *slot, nslots)
	filled := make(chan *slot, nslots)
	for i := 0; i < nslots; i++ {
		s := &slot{
			arenas:  make([]*irbin.Arena, batch),
			progs:   make([]*ir.Program, batch),
			indexes: make([]int, batch),
		}
		for j := range s.arenas {
			s.arenas[j] = irbin.NewArena()
			s.arenas[j].Decode(warm)
		}
		free <- s
	}

	st := &Stats{
		Programs:      cfg.Programs,
		DecodeWorkers: 1,
		AllocWorkers:  allocWorkers,
	}
	var (
		allocated             atomic.Uint64
		allocBusy, allocStall atomic.Int64
		runErr                error
		errOnce               sync.Once
	)
	fail := func(err error) {
		errOnce.Do(func() { runErr = err })
		cancel()
	}

	// Settle the heap goal now that the ring is live: without this, the
	// warmup's allocations spend the headroom of whatever goal predated
	// the ring, and the collector's catch-up cycle lands inside the
	// measured region — charged to the pipeline instead of to setup.
	runtime.GC()
	start := time.Now()

	// Decode stage. It alone writes its counters, and Run reads them
	// only after decodeDone closes. Closing the filled ring when it is
	// done lets allocator workers drain the tail and exit.
	decodeDone := make(chan struct{})
	go func() {
		defer close(decodeDone)
		defer close(filled)
		for lo := 0; lo < cfg.Programs; lo += batch {
			t0 := time.Now()
			var s *slot
			select {
			case s = <-free:
			case <-ctx.Done():
				return
			}
			st.DecodeStallNs += time.Since(t0).Nanoseconds()
			t1 := time.Now()
			s.n = min(batch, cfg.Programs-lo)
			for j := 0; j < s.n; j++ {
				idx := lo + j
				prog, _, err := s.arenas[j].Decode(src.Frame(idx % src.Count()))
				if err != nil {
					fail(fmt.Errorf("pipeline: decode program %d: %w", idx, err))
					return
				}
				s.progs[j] = prog
				s.indexes[j] = idx
			}
			st.Decoded += uint64(s.n)
			st.DecodeBusyNs += time.Since(t1).Nanoseconds()
			select {
			case filled <- s:
			case <-ctx.Done():
				return
			}
		}
	}()

	// Allocation stage.
	var allocWG sync.WaitGroup
	for w := 0; w < allocWorkers; w++ {
		allocWG.Add(1)
		go func() {
			defer allocWG.Done()
			// One results slice per worker: the sink drains it before
			// the worker takes its next slot.
			var results []Result
			if sink != nil {
				results = make([]Result, 0, batch)
			}
			for {
				t0 := time.Now()
				var s *slot
				var ok bool
				select {
				case s, ok = <-filled:
				case <-ctx.Done():
					return
				}
				allocStall.Add(time.Since(t0).Nanoseconds())
				if !ok {
					return
				}
				// Busy runs until the sink has returned, so busy and
				// stall together cover the whole loop.
				t1 := time.Now()
				results = results[:0]
				failed := false
				for j := 0; j < s.n; j++ {
					_, rep, err := eng.AllocateProgram(ctx, s.progs[j])
					if err != nil {
						if ctx.Err() == nil {
							fail(fmt.Errorf("pipeline: allocate program %d: %w", s.indexes[j], err))
						}
						failed = true
						break
					}
					if sink != nil {
						results = append(results, Result{Index: s.indexes[j], Report: rep})
					}
				}
				if !failed {
					allocated.Add(uint64(s.n))
				}
				// Recycle before delivering: the reports do not alias the
				// arenas, and a waiting decode worker should not idle on
				// sink latency.
				select {
				case free <- s:
				case <-ctx.Done():
					failed = true
				}
				if !failed {
					for _, r := range results {
						sink(r)
					}
				}
				allocBusy.Add(time.Since(t1).Nanoseconds())
				if failed {
					return
				}
			}
		}()
	}

	allocWG.Wait()
	<-decodeDone
	st.WallNs = time.Since(start).Nanoseconds()

	st.Allocated = allocated.Load()
	st.AllocBusyNs = allocBusy.Load()
	st.AllocStallNs = allocStall.Load()
	if d := st.DecodeBusyNs + st.DecodeStallNs; d > 0 {
		st.DecodeUtilization = float64(st.DecodeBusyNs) / float64(d)
	}
	if d := st.AllocBusyNs + st.AllocStallNs; d > 0 {
		st.AllocUtilization = float64(st.AllocBusyNs) / float64(d)
	}
	if s := float64(st.WallNs) / 1e9; s > 0 {
		st.ProgramsPerSec = float64(st.Allocated) / s
	}

	if runErr != nil {
		return st, runErr
	}
	if err := ctx.Err(); err != nil {
		return st, err
	}
	return st, nil
}
