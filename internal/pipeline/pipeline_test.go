package pipeline

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	regalloc "repro"
	"repro/internal/corpus"
)

// testSource opens a small generated shard set for pipeline runs.
func testSource(t *testing.T, n, shards int) *corpus.Set {
	t.Helper()
	base := filepath.Join(t.TempDir(), "pipe.lsco")
	if err := corpus.Generate(base, corpus.GenOptions{Count: n, Seed: 11, Shards: shards}); err != nil {
		t.Fatal(err)
	}
	set, err := corpus.OpenSet(base)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	return set
}

func testEngine(t *testing.T) *regalloc.Engine {
	t.Helper()
	eng, err := regalloc.New(regalloc.Alpha(), regalloc.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestRunAllocatesEverything(t *testing.T) {
	src := testSource(t, 24, 3)
	eng := testEngine(t)
	// Two full batches and a partial one, cycling the source.
	const programs = 2*batch + 7
	var mu sync.Mutex
	seen := make(map[int]bool)
	st, err := Run(context.Background(), src, eng, Config{Programs: programs}, func(r Result) {
		mu.Lock()
		defer mu.Unlock()
		if r.Report == nil || seen[r.Index] {
			t.Errorf("result %d: report %v, seen before %v", r.Index, r.Report, seen[r.Index])
		}
		seen[r.Index] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Decoded != programs || st.Allocated != programs {
		t.Fatalf("decoded %d allocated %d, want %d/%d", st.Decoded, st.Allocated, programs, programs)
	}
	if len(seen) != programs {
		t.Fatalf("sink saw %d distinct indexes, want %d", len(seen), programs)
	}
	for i := range programs {
		if !seen[i] {
			t.Fatalf("index %d never delivered", i)
		}
	}
	if st.DecodeWorkers != 1 || st.AllocWorkers != runtime.GOMAXPROCS(0) {
		t.Fatalf("workers decode %d alloc %d, want 1/%d", st.DecodeWorkers, st.AllocWorkers, runtime.GOMAXPROCS(0))
	}
	if st.DecodeUtilization < 0 || st.DecodeUtilization > 1 || st.AllocUtilization < 0 || st.AllocUtilization > 1 {
		t.Fatalf("utilizations out of range: decode %f alloc %f", st.DecodeUtilization, st.AllocUtilization)
	}
	if st.Bottleneck() != "decode" && st.Bottleneck() != "allocate" {
		t.Fatalf("Bottleneck() = %q", st.Bottleneck())
	}
}

// TestBackpressure: a deliberately slow allocator stage must throttle
// decode through the bounded ring — decode-ahead never exceeds the ring
// capacity, and the decode stage records stall time while the allocator
// records none worth speaking of.
func TestBackpressure(t *testing.T) {
	src := testSource(t, 8, 1)
	eng := testEngine(t)
	// One batch more than the ring and the allocators can hold, so
	// decode must wait for a recycled slot.
	programs := (ringSlots() + runtime.GOMAXPROCS(0) + 1) * batch
	st, err := Run(context.Background(), src, eng, Config{Programs: programs}, func(r Result) {
		time.Sleep(time.Millisecond) // the slow consumer
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Allocated != uint64(programs) {
		t.Fatalf("allocated %d, want %d", st.Allocated, programs)
	}
	// The ring bounds decode-ahead: with every allocator sleeping per
	// delivered program, decode must have finished long before
	// allocation, and the stall counter proves it waited.
	if st.DecodeStallNs == 0 {
		t.Fatal("slow allocator produced no decode stall — backpressure not engaged")
	}
	if st.DecodeUtilization >= st.AllocUtilization {
		t.Fatalf("decode utilization %.3f >= alloc %.3f under a slow allocator", st.DecodeUtilization, st.AllocUtilization)
	}
	if st.Bottleneck() != "allocate" {
		t.Fatalf("Bottleneck() = %q, want allocate", st.Bottleneck())
	}
}

// countingSource tallies Frame calls: every frame the pipeline asks
// for, warmup included.
type countingSource struct {
	Source
	frames atomic.Int64
}

func (c *countingSource) Frame(i int) []byte {
	c.frames.Add(1)
	return c.Source.Frame(i)
}

// ringSlots is the ring's slot count at the current GOMAXPROCS.
func ringSlots() int { return slotsPerAllocator * runtime.GOMAXPROCS(0) }

// TestBackpressureBoundsDecodeAhead pins the memory-bound claim: with
// the sink parked, decode can request no more frames than the ring
// holds plus the batch each allocator took before parking. Each
// allocator recycles its slot and then parks in the sink, so at most
// ringSlots + allocWorkers slot fills can ever happen; that is an upper
// bound, so it cannot depend on goroutine timing. Programs exceed it,
// so without the ring decode would run on.
func TestBackpressureBoundsDecodeAhead(t *testing.T) {
	src := &countingSource{Source: testSource(t, 8, 1)}
	eng := testEngine(t)
	allocWorkers := runtime.GOMAXPROCS(0)
	warmup := min(src.Count(), 256)
	bound := int64(warmup + (ringSlots()+allocWorkers)*batch)
	programs := 2 * int(bound)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{})
	done := make(chan struct{})
	var st *Stats
	var runErr error
	go func() {
		defer close(done)
		st, runErr = Run(ctx, src, eng, Config{Programs: programs}, func(Result) {
			<-release // park the consumer
		})
	}()
	// Every allocator parks after its first batch, so decode fills the
	// whole ring: wait for the bound to be reached, then give decode
	// every chance to run past it.
	deadline := time.Now().Add(60 * time.Second)
	for src.frames.Load() < bound && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	got := src.frames.Load()
	cancel()
	close(release)
	<-done
	if got > bound {
		t.Fatalf("decode requested %d frames with the sink parked, bound %d (warmup %d + (%d slots + %d allocators) × batch %d)",
			got, bound, warmup, ringSlots(), allocWorkers, batch)
	}
	if got < bound {
		t.Fatalf("decode requested %d frames, want the ring to fill to %d", got, bound)
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", runErr)
	}
	if st.Allocated >= uint64(programs) || st.DecodeStallNs == 0 {
		t.Fatalf("allocated %d of %d, decode stall %d ns: the parked sink did not hold the ring", st.Allocated, programs, st.DecodeStallNs)
	}
}

// TestCancelDrains: cancelling the context mid-run returns promptly
// with ctx.Err and leaks no pipeline goroutines (the -race build makes
// this a scheduling-honest check).
func TestCancelDrains(t *testing.T) {
	src := testSource(t, 8, 1)
	eng := testEngine(t)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	_, err := Run(ctx, src, eng, Config{Programs: 100000}, func(r Result) {
		once.Do(cancel) // cancel as soon as the pipeline is visibly flowing
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// All pipeline goroutines must be gone once Run returns. Poll
	// briefly: the runtime needs a beat to unwind stacks.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancel", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	src := testSource(t, 4, 1)
	eng := testEngine(t)
	if _, err := Run(context.Background(), src, eng, Config{Programs: 0}, nil); err == nil {
		t.Fatal("Run accepted zero programs")
	}
	if _, err := Run(context.Background(), src, eng, Config{Programs: -1}, nil); err == nil {
		t.Fatal("Run accepted negative programs")
	}
}
