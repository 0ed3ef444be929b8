package main

import (
	"context"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	regalloc "repro"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/irbin"
	"repro/internal/pipeline"
	"repro/internal/target"
)

// streamBench runs the corpus pipeline: a generated binary corpus
// cycling every generator profile, one decode worker and one allocation
// worker per CPU, the engine at its shipped defaults (verifier on). Many
// small procedures per second make per-call overhead, heap allocation,
// GC and the verifier dominate, and binary decode shows at its true
// share.
type streamBench struct {
	mach    *target.Machine
	eng     *regalloc.Engine
	reader  *corpus.Reader
	rate    float64 // programs per second measured at set-up, sizes a run
	samples int
	seed    int64
	fixed   []*ir.Program // the quality set
}

func setupStream(e *env) (workload, error) {
	count, samples := 4096, 48
	if e.small {
		count, samples = 64, 8
	}
	qualityPrograms := 256
	if e.small {
		qualityPrograms = 14
	}
	mach := target.Alpha()
	path := filepath.Join(e.dir, "stream.lsco")
	if err := corpus.Generate(path, corpus.GenOptions{Count: count, Seed: e.seed << 20, Machine: mach}); err != nil {
		return nil, err
	}
	r, err := corpus.Open(path)
	if err != nil {
		return nil, err
	}
	eng, err := regalloc.New(mach, regalloc.WithParallelism(1))
	if err != nil {
		r.Close()
		return nil, err
	}
	// Warm the pipeline and measure its rate, which sizes each run to
	// the requested duration.
	st, err := pipeline.Run(context.Background(), r, eng, pipeline.Config{Programs: min(count, 256)}, nil)
	if err != nil {
		r.Close()
		return nil, err
	}
	fixed, err := profilePrograms(mach, 0, qualityPrograms)
	if err != nil {
		r.Close()
		return nil, err
	}
	return &streamBench{mach: mach, eng: eng, reader: r, rate: st.ProgramsPerSec, samples: samples, seed: e.seed, fixed: fixed}, nil
}

func (s *streamBench) close() { s.reader.Close() }

func (s *streamBench) measure(d time.Duration, tr *tracer) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	n := max(int(s.rate*d.Seconds()), 64)
	count := s.reader.Count()
	rng := rand.New(rand.NewSource(s.seed))
	checked := make([]bool, n)
	for i := 0; i < s.samples; i++ {
		checked[rng.Intn(min(n, count))] = true
	}
	lat := make([]float64, n)
	reports := make([]*regalloc.Report, n)
	var mu sync.Mutex
	var eng engineTotals
	sink := func(r pipeline.Result) {
		lat[r.Index] = ms(r.Report.WallTime)
		if checked[r.Index] {
			reports[r.Index] = r.Report
		}
		if tr != nil {
			end := time.Now()
			tr.add("engine.alloc", r.Index, -1, end.Add(-r.Report.WallTime), end)
			mu.Lock()
			eng.add(r.Report)
			mu.Unlock()
		}
	}
	rt0, cpu0 := sampleRuntime(), cpuTime()
	st, err := pipeline.Run(context.Background(), s.reader, s.eng, pipeline.Config{Programs: n}, sink)
	rt1, cpu := sampleRuntime(), cpuTime()-cpu0
	if st == nil {
		return nil, err
	}
	o.attempted = n
	if err != nil {
		o.fail("pipeline: %v", err)
		o.failed = max(o.failed, n-int(st.Allocated))
	}

	// Checks, outside the timed region: each sampled program is decoded
	// again, allocated by the same engine — its report must match the
	// pipeline's, the guard against nondeterminism — and run on the VM
	// against the unallocated program.
	for i, want := range checked {
		if !want || reports[i] == nil {
			continue
		}
		prog, _, err := irbin.NewArena().Decode(s.reader.Frame(i % count))
		if err != nil {
			o.fail("program %d: decode: %v", i, err)
			continue
		}
		a, rep, err := s.eng.AllocateProgram(context.Background(), prog)
		if err != nil {
			o.fail("program %d: allocate: %v", i, err)
			continue
		}
		if rep.Totals.Inserted != reports[i].Totals.Inserted || rep.Totals.SpilledTemps != reports[i].Totals.SpilledTemps {
			o.fail("program %d: nondeterministic allocation", i)
			continue
		}
		if _, err := runChecked(prog, a, s.mach, nil); err != nil {
			o.fail("program %d: %v", i, err)
		}
	}
	q, err := fixedQuality(s.eng, s.mach, s.fixed)
	if err != nil {
		o.fail("%v", err)
	}

	l := summarize(lat[:st.Allocated])
	o.e2e["p50_ms"] = l.p50
	o.e2e["cpu_rate"] = float64(st.Allocated) / cpu.Seconds()
	o.e2e["code_instrs"] = float64(q.codeInstrs)
	o.e2e["sim_cycles"] = float64(q.simCycles)
	o.e2e["spill_dyn_ops"] = float64(q.spillDynOps)
	o.line("  programs_per_s %.2f wall (decode+allocate: %d programs in %.3f s, %d decode + %d alloc workers), %.2f per CPU-second",
		st.ProgramsPerSec, st.Allocated, float64(st.WallNs)/1e9, st.DecodeWorkers, st.AllocWorkers, o.e2e["cpu_rate"])
	o.line("  per-program AllocateProgram time: p50 %.4f ms, %s %.4f ms (n=%d, %d beyond)", l.p50, pctName(l.tailPm), l.tail, l.n, l.beyond)
	o.line("  pipeline: decode util %.3f, alloc util %.3f, alloc stall %.1f ms, bottleneck %s",
		st.DecodeUtilization, st.AllocUtilization, float64(st.AllocStallNs)/1e6, st.Bottleneck())
	o.line("  %d sampled programs checked on the VM; quality over the %d fixed programs: code_instrs %d, sim_cycles %d, spill_dyn_ops %d",
		s.samples, len(s.fixed), q.codeInstrs, q.simCycles, q.spillDynOps)

	if tr != nil {
		progs := int(st.Allocated)
		self := selfTimes(tr.spans)
		o.layers["engine.alloc_us"] = float64(self["engine.alloc"]) / 1e3 / float64(progs)
		eng.layers(o.layers, progs)
		o.layers["heap.allocs_per_program"], o.layers["gc.cpu_frac"] = heapDelta(rt0, rt1, progs)
		o.layers["pipeline.decode_util"] = st.DecodeUtilization
		o.layers["pipeline.alloc_util"] = st.AllocUtilization
		o.layers["pipeline.alloc_stall_ms"] = float64(st.AllocStallNs) / 1e6
		s.decodeLayer(tr, min(progs, count), o.layers)
	}
	return o, nil
}

// decodeLayer times irbin.Arena.Decode from outside: the pipeline's
// decode stage is not reachable, so the frames the run decoded are
// decoded again, each in a span, through one warm arena.
func (s *streamBench) decodeLayer(tr *tracer, n int, layers map[string]float64) {
	arena := irbin.NewArena()
	var bytes int
	var ns int64
	for i := 0; i < n; i++ {
		f := s.reader.Frame(i)
		id := tr.begin("irbin.decode", i, -1)
		t0 := time.Now()
		_, _, err := arena.Decode(f)
		ns += int64(time.Since(t0))
		tr.end(id)
		if err != nil {
			continue // the pipeline run already reported it
		}
		bytes += len(f)
	}
	if n > 0 && ns > 0 {
		layers["irbin.decode_us"] = float64(selfTimes(tr.spans)["irbin.decode"]) / 1e3 / float64(n)
		layers["irbin.decode_mb_s"] = float64(bytes) / 1e6 / (float64(ns) / 1e9)
	}
}
