package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	regalloc "repro"
	"repro/internal/alloc"
	"repro/internal/ir"
	"repro/internal/progs"
	"repro/internal/target"
	"repro/internal/verify"
)

var phaseNames = alloc.PhaseNames()

// compileInput is one program of the compile workload. Suite programs
// are executed to check their allocation; Table 3 modules are never run
// and are checked with the symbolic verifier instead.
type compileInput struct {
	name  string
	prog  *ir.Program
	input []byte
	run   bool
}

// compileBench is the paper's own compile-time setting: one caller, one
// procedure at a time, verifier off — the configuration of
// BenchmarkEngineSteadyState — over the Table 1 suite at its default
// scale and the three Table 3 modules. A few very large procedures put
// nearly all the time in the engine phases.
type compileBench struct {
	mach   *target.Machine
	eng    *regalloc.Engine
	inputs []compileInput
}

// compileProgramNames lists the workload's programs, the rows behind
// compile_ms.
func compileProgramNames() []string {
	var names []string
	for _, b := range progs.Suite() {
		names = append(names, b.Name)
	}
	for _, m := range []string{"cvrin.c", "twldrv.f", "fpppp.f"} {
		names = append(names, m)
	}
	return names
}

func setupCompile(e *env) (workload, error) {
	mach := target.Alpha()
	eng, err := regalloc.New(mach, regalloc.WithVerify(false), regalloc.WithParallelism(1))
	if err != nil {
		return nil, err
	}
	c := &compileBench{mach: mach, eng: eng}
	for _, b := range progs.Suite() {
		scale := b.DefaultScale
		if e.small {
			scale = 1
		}
		in := compileInput{name: b.Name, prog: b.Build(mach, scale), run: true}
		if b.Input != nil {
			in.input = b.Input(scale)
		}
		c.inputs = append(c.inputs, in)
	}
	modules := progs.Table3Modules(mach)
	if e.small {
		modules = []*progs.Module{
			progs.BuildModule(mach, "cvrin.c", 2, 40, 1),
			progs.BuildModule(mach, "twldrv.f", 1, 60, 2),
			progs.BuildModule(mach, "fpppp.f", 1, 70, 3),
		}
	}
	for _, m := range modules {
		c.inputs = append(c.inputs, compileInput{name: m.Name, prog: m.Prog})
	}
	// The seed only orders the round; the inputs are the paper's.
	rand.New(rand.NewSource(e.seed)).Shuffle(len(c.inputs), func(i, j int) {
		c.inputs[i], c.inputs[j] = c.inputs[j], c.inputs[i]
	})
	// Warm the pooled allocator's scratch buffers, as a long-lived
	// compiler would have.
	for _, in := range c.inputs {
		if _, _, err := eng.AllocateProgram(context.Background(), in.prog); err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
	}
	return c, nil
}

func (c *compileBench) close() {}

func (c *compileBench) measure(d time.Duration, tr *tracer) (*outcome, error) {
	ctx := context.Background()
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	times := make([][]float64, len(c.inputs))
	cpus := make([][]float64, len(c.inputs))
	first := make([]*ir.Program, len(c.inputs))
	last := make([]*ir.Program, len(c.inputs))
	var eng engineTotals
	var all []float64
	rt0 := sampleRuntime()
	start := time.Now()
	// Whole rounds only, so every program has the same sample count.
	for round := 0; round == 0 || time.Since(start) < d; round++ {
		for i, in := range c.inputs {
			id := tr.begin("engine.alloc", i, -1)
			t0, c0 := time.Now(), cpuTime()
			out, rep, err := c.eng.AllocateProgram(ctx, in.prog)
			dt, dc := time.Since(t0), cpuTime()-c0
			tr.end(id)
			o.attempted++
			if err != nil {
				o.fail("%s: %v", in.name, err)
				continue
			}
			times[i] = append(times[i], ms(dt))
			cpus[i] = append(cpus[i], ms(dc))
			all = append(all, ms(dc))
			if first[i] == nil {
				first[i] = out
			}
			last[i] = out
			if tr != nil {
				eng.add(rep)
			}
		}
	}
	wall := time.Since(start)
	rt1 := sampleRuntime()

	// Checks, outside the timed region.
	var q quality
	var medians, cpuMedians []float64
	for i, in := range c.inputs {
		if first[i] == nil {
			continue
		}
		fail := func(format string, args ...any) {
			o.fail("%s: "+format, append([]any{in.name}, args...)...)
			o.failed += len(times[i]) - 1 // every call returned this output
		}
		if digest(first[i], c.mach) != digest(last[i], c.mach) {
			fail("nondeterministic allocation: first and last round differ")
			continue
		}
		q.addCode(first[i])
		if in.run {
			counters, err := runChecked(in.prog, first[i], c.mach, in.input)
			if err != nil {
				fail("%v", err)
				continue
			}
			q.addRun(counters)
		} else {
			for _, p := range first[i].Procs {
				if err := verify.Verify(p, c.mach); err != nil {
					fail("verify %s: %v", p.Name, err)
					break
				}
			}
		}
		medians = append(medians, median(times[i]))
		cpuMedians = append(cpuMedians, median(cpus[i]))
		o.layers["compile_ms."+in.name] = median(cpus[i])
	}

	lat := summarize(all)
	calls := len(all)
	o.e2e["p50_ms"] = geomean(cpuMedians)
	o.e2e["cpu_rate"] = float64(len(cpuMedians)) / (sum(cpuMedians) / 1e3)
	o.e2e["code_instrs"] = float64(q.codeInstrs)
	o.e2e["sim_cycles"] = float64(q.simCycles)
	o.e2e["spill_dyn_ops"] = float64(q.spillDynOps)
	o.line("  compile_ms %.4f ms CPU, %.4f ms wall (geomean over %d programs of each one's median AllocateProgram time, %d rounds)",
		o.e2e["p50_ms"], geomean(medians), len(medians), calls/max(len(c.inputs), 1))
	for i, in := range c.inputs {
		if len(cpus[i]) > 0 {
			o.line("    compile_ms.%-10s %.4f ms CPU, %.4f ms wall", in.name, median(cpus[i]), median(times[i]))
		}
	}
	o.line("  per-call CPU time: p50 %.4f ms, %s %.4f ms (n=%d, %d beyond)", lat.p50, pctName(lat.tailPm), lat.tail, lat.n, lat.beyond)
	o.line("  programs_per_s %.2f wall (whole run), %.2f per CPU-second (a pass at each program's median)", float64(calls)/wall.Seconds(), o.e2e["cpu_rate"])
	o.line("  quality: code_instrs %d, sim_cycles %d, spill_dyn_ops %d", q.codeInstrs, q.simCycles, q.spillDynOps)

	if tr != nil {
		self := selfTimes(tr.spans)
		o.layers["engine.alloc_us"] = float64(self["engine.alloc"]) / 1e3 / float64(calls)
		eng.layers(o.layers, calls)
		o.layers["heap.allocs_per_program"], o.layers["gc.cpu_frac"] = heapDelta(rt0, rt1, calls)
	}
	return o, nil
}

// engineTotals sums the engine's own reports: per-phase time and heap
// allocations.
type engineTotals struct {
	phaseNs    map[string]int64
	heapAllocs uint64
}

func (t *engineTotals) add(rep *regalloc.Report) {
	if t.phaseNs == nil {
		t.phaseNs = map[string]int64{}
	}
	for _, ps := range rep.PhaseStats {
		t.phaseNs[ps.Phase] += ps.Ns
	}
	t.heapAllocs += rep.HeapAllocs
}

// layers writes the engine.<phase>_us and engine.heap_allocs metrics,
// per program.
func (t *engineTotals) layers(m map[string]float64, programs int) {
	if programs == 0 {
		return
	}
	for _, ph := range phaseNames {
		m["engine."+ph+"_us"] = float64(t.phaseNs[ph]) / 1e3 / float64(programs)
	}
	m["engine.heap_allocs"] = float64(t.heapAllocs) / float64(programs)
}
