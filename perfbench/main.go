// Command perfbench is the repository's end-to-end benchmark: it times
// register allocation on three workloads, checks every output against
// an independent reference, and attributes time to the layers from a
// separate traced run. Run it from the repository root:
//
//	python3 perfbench/run.py --workload compile --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the fields
// correct, attempted, failed and metrics; the lines before it are the
// human-readable report. With --trace 0 the metrics are the end-to-end
// metrics of BENCHMARK.json, with --trace 1 the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupReps is how many times a run builds its workload; setup_s is the
// median, and the last build is the one measured.
const setupReps = 9

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"cpu_rate", "1/s"},
	{"rss_peak_mb", "MB"},
	{"code_instrs", "count"},
	{"spill_dyn_ops", "count"},
	{"sim_cycles", "count"},
}

// perLayer are the metrics a traced run reports, on every workload. A
// layer a workload never calls reads 0 there. Time metrics are per
// program the workload processed.
func perLayer() []metricDef {
	defs := []metricDef{
		{"ir.parse_us", "us"},
		{"ir.validate_us", "us"},
		{"ir.print_us", "us"},
		{"irbin.decode_us", "us"},
		{"irbin.decode_mb_s", "MB/s"},
		{"cache.key_us", "us"},
		{"cache.get_us", "us"},
		{"cache.clone_us", "us"},
		{"cache.put_us", "us"},
		{"cache.hit_ratio", "ratio"},
		{"engine.alloc_us", "us"},
	}
	for _, ph := range phaseNames {
		defs = append(defs, metricDef{"engine." + ph + "_us", "us"})
	}
	defs = append(defs,
		metricDef{"engine.heap_allocs", "count"},
		metricDef{"heap.allocs_per_program", "count"},
		metricDef{"gc.cpu_frac", "ratio"},
		metricDef{"pipeline.decode_util", "ratio"},
		metricDef{"pipeline.alloc_util", "ratio"},
		metricDef{"pipeline.alloc_stall_ms", "ms"},
		metricDef{"serve.json_us", "us"},
		metricDef{"serve.handler_us", "us"},
		metricDef{"serve.unattributed_us", "us"},
		metricDef{"serve.rejected", "count"},
		metricDef{"loadgen.late_ms", "ms"},
		metricDef{"trace.overhead_pct", "%"},
	)
	for _, name := range compileProgramNames() {
		defs = append(defs, metricDef{"compile_ms." + name, "ms"})
	}
	return defs
}

// env is what a workload is built from.
type env struct {
	seed    int64
	seconds float64
	// small shrinks every input to a few milliseconds of work; the
	// smoke tests use it.
	small bool
	// dir is a scratch directory inside the checkout.
	dir string
}

// workload is one built workload. measure runs the timed region for d
// — with tr nil for the untraced run — and then checks the outputs.
type workload interface {
	measure(d time.Duration, tr *tracer) (*outcome, error)
	close()
}

// outcome is one measured region.
type outcome struct {
	attempted, failed int
	problems          []string
	// e2e holds the end-to-end values the workload measures (all but
	// setup_s and rss_peak_mb); layers the per-layer values of a traced
	// region.
	e2e    map[string]float64
	layers map[string]float64
	// lines is the human-readable report under the workload's own
	// metric names.
	lines []string
	// invalid explains why the region measured nothing trustworthy
	// (the load generator fell behind); the run is reported, not failed.
	invalid string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) line(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*env) (workload, error){
	"compile": setupCompile,
	"stream":  setupStream,
	"serve":   setupServe,
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: compile, stream or serve")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured region")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	res, report, err := run(*name, *seed, *seconds, *trace == 1, false, ".bench_build")
	for _, l := range report {
		fmt.Println(l)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run builds and measures one workload and returns the result line and
// the human-readable report. work is the directory scratch files and
// traces go under.
func run(name string, seed int64, seconds float64, traced, small bool, work string) (*result, []string, error) {
	setup, ok := workloads[name]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (have compile, stream, serve)", name)
	}
	if seconds <= 0 {
		return nil, nil, fmt.Errorf("non-positive --seconds %g", seconds)
	}
	dir, err := os.MkdirTemp(ensureDir(work), "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, seconds: seconds, small: small, dir: dir}

	var w workload
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		runtime.GC() // the previous set-up's garbage is not this one's cost
		start := time.Now()
		if w, err = setup(e); err != nil {
			return nil, nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()

	report := []string{fmt.Sprintf("workload %s  seed %d  seconds %g  trace %t", name, seed, seconds, traced)}
	report = append(report, fmt.Sprintf("  setup_s %.4f s (median of %d set-ups: %s)", median(setups), len(setups), fmtList(setups)))
	d := time.Duration(seconds * float64(time.Second))
	// Each measured region starts from a collected heap, so set-up
	// garbage is not charged to it.
	measure := func(d time.Duration, tr *tracer) (*outcome, error) {
		runtime.GC()
		o, err := w.measure(d, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return o, nil
	}
	var o *outcome
	if !traced {
		if o, err = measure(d, nil); err != nil {
			return nil, nil, err
		}
	} else {
		// The traced run measures twice, half the time each: untraced
		// first, then with spans on; the difference is the overhead.
		plain, err := measure(d/2, nil)
		if err != nil {
			return nil, nil, err
		}
		tr := newTracer()
		if o, err = measure(d/2, tr); err != nil {
			return nil, nil, err
		}
		o.attempted += plain.attempted
		o.failed += plain.failed
		o.problems = append(plain.problems, o.problems...)
		if o.invalid == "" {
			o.invalid = plain.invalid
		}
		report = append(report, "  tracing overhead (traced vs untraced, half the time each):")
		for _, m := range endToEnd {
			a, ok1 := plain.e2e[m.name]
			b, ok2 := o.e2e[m.name]
			if ok1 && ok2 {
				report = append(report, fmt.Sprintf("    %-14s untraced %.4f  traced %.4f %s  (%+.2f%%)", m.name, a, b, m.unit, pctDiff(a, b)))
			}
		}
		o.layers["trace.overhead_pct"] = pctDiff(plain.e2e["p50_ms"], o.e2e["p50_ms"])
		path := filepath.Join(ensureDir(filepath.Join(work, "traces")), fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			return nil, nil, err
		}
		report = append(report, fmt.Sprintf("  %d spans written to %s", len(tr.spans), path))
	}

	report = append(report, o.lines...)
	o.e2e["setup_s"] = median(setups)
	o.e2e["rss_peak_mb"] = peakRSSMB()
	res := &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	defs := endToEnd
	vals := o.e2e
	if traced {
		defs, vals = perLayer(), o.layers
	}
	for _, m := range defs {
		v, ok := vals[m.name]
		if !ok && !traced {
			return nil, report, fmt.Errorf("%s: end-to-end metric %s not measured", name, m.name)
		}
		res.Metrics[m.name] = metricValue{Value: finite(v), Unit: m.unit}
	}
	if res.Attempted < 1 {
		return nil, report, fmt.Errorf("%s: no operation attempted", name)
	}
	report = append(report, "  end-to-end:")
	for _, m := range endToEnd {
		if v, ok := o.e2e[m.name]; ok {
			report = append(report, fmt.Sprintf("    %-14s %.4f %s", m.name, v, m.unit))
		}
	}
	if traced {
		report = append(report, "  per-layer (traced half):")
		for _, m := range perLayer() {
			report = append(report, fmt.Sprintf("    %-26s %.4f %s", m.name, o.layers[m.name], m.unit))
		}
	}
	report = append(report, fmt.Sprintf("  fail_ratio %.4f (%d of %d operations failed)", float64(o.failed)/float64(o.attempted), o.failed, o.attempted))
	for _, p := range o.problems {
		report = append(report, "  FAILURE: "+p)
	}
	if o.invalid != "" {
		report = append(report, "  INVALID RUN: "+o.invalid)
	}
	return res, report, nil
}

func ensureDir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp or Create reports the failure
	return dir
}

func pctDiff(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (v - base) / base
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// finite maps NaN and infinities to 0 so a degenerate ratio cannot
// break the JSON line.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
