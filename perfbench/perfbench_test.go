package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestTailPermille(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1, 500}, {99, 500}, {100, 900}, {999, 900}, {1000, 990}, {9999, 990}, {10000, 999},
	} {
		if got := tailPermille(c.n); got != c.want {
			t.Errorf("tailPermille(%d) = %d, want %d", c.n, got, c.want)
		}
		// The rule's promise: at least ten samples beyond, unless it
		// fell back to the median.
		if pm := tailPermille(c.n); pm != 500 && c.n-rankOf(c.n, pm) < 10 {
			t.Errorf("n=%d: %s leaves %d samples beyond", c.n, pctName(pm), c.n-rankOf(c.n, pm))
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, unsorted
	}
	l := summarize(xs)
	if l.n != 1000 || l.p50 != 500 || l.tailPm != 990 || l.tail != 990 || l.beyond != 10 {
		t.Errorf("summarize(1..1000) = %+v", l)
	}
	if pctName(999) != "p99.9" || pctName(990) != "p99" || pctName(500) != "p50" {
		t.Errorf("pctName: %s %s %s", pctName(999), pctName(990), pctName(500))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		// Children overlap each other and the last runs past the parent:
		// together they cover [10,50) and [90,100) of it.
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},
		{Name: "a", Parent: 0, Start: 90, End: 120},
		// A grandchild is subtracted from its parent only.
		{Name: "c", Parent: 2, Start: 25, End: 35},
		{Name: "other", Parent: -1, Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]int64{"root": 50, "a": 20 + 30, "b": 20, "c": 10, "other": 10}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %d, want %d", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// benchmarkDoc reads the metric names and units BENCHMARK.json promises.
func benchmarkDoc(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that exactly the metrics BENCHMARK.json names are emitted with
// their units and that no operation failed.
func TestSmoke(t *testing.T) {
	e2e, layers := benchmarkDoc(t)
	for _, name := range []string{"compile", "stream", "serve"} {
		for _, traced := range []bool{false, true} {
			want := e2e
			if traced {
				want = layers
			}
			res, report, err := run(name, 3, 0.4, traced, true, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%t: %v\n%v", name, traced, err, report)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				switch {
				case !ok:
					t.Errorf("%s traced=%t: metric %s not emitted", name, traced, m)
				case got.Unit != unit:
					t.Errorf("%s traced=%t: metric %s unit %q, want %q", name, traced, m, got.Unit, unit)
				}
			}
			if res.Attempted < 1 || res.Failed != 0 || !res.Correct {
				t.Errorf("%s traced=%t: fail_ratio %d/%d, want 0\n%v", name, traced, res.Failed, res.Attempted, report)
			}
		}
	}
}

// TestQualityRepeats is the determinism guard across runs: the quality
// counts of two runs with the same seed are identical.
func TestQualityRepeats(t *testing.T) {
	for _, name := range []string{"compile", "stream", "serve"} {
		var first map[string]metricValue
		for i := 0; i < 2; i++ {
			res, report, err := run(name, 5, 0.2, false, true, t.TempDir())
			if err != nil {
				t.Fatalf("%s: %v\n%v", name, err, report)
			}
			if first == nil {
				first = res.Metrics
				continue
			}
			for _, m := range []string{"code_instrs", "spill_dyn_ops", "sim_cycles"} {
				if first[m].Value == 0 || res.Metrics[m] != first[m] {
					t.Errorf("%s: %s %v then %v", name, m, first[m].Value, res.Metrics[m].Value)
				}
			}
		}
	}
}
