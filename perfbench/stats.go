package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailPermille picks the percentile a timing is reported at: the highest
// of p99.9, p99 and p90 that leaves at least ten samples beyond it, or
// the median when even p90 does not. Percentiles are in per-mille so the
// rule is exact integer arithmetic.
func tailPermille(n int) int {
	for _, pm := range []int{999, 990, 900} {
		if n-rankOf(n, pm) >= 10 {
			return pm
		}
	}
	return 500
}

// rankOf is the 1-based nearest rank of per-mille pm among n samples.
func rankOf(n, pm int) int {
	r := (n*pm + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank per-mille percentile of sorted,
// which must be ascending and non-empty.
func percentile(sorted []float64, pm int) float64 {
	return sorted[rankOf(len(sorted), pm)-1]
}

// latencies summarizes a set of timings by the reporting rule: median,
// the rule's tail percentile, and the sample count.
type latencies struct {
	n      int
	p50    float64
	tailPm int
	tail   float64
	beyond int
}

func summarize(xs []float64) latencies {
	if len(xs) == 0 {
		return latencies{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pm := tailPermille(len(s))
	return latencies{
		n:      len(s),
		p50:    percentile(s, 500),
		tailPm: pm,
		tail:   percentile(s, pm),
		beyond: len(s) - rankOf(len(s), pm),
	}
}

// pctName renders a per-mille percentile as "p99", "p99.9" or "p50".
func pctName(pm int) string {
	if pm%10 == 0 {
		return "p" + strconv.Itoa(pm/10)
	}
	return "p" + strconv.FormatFloat(float64(pm)/10, 'f', 1, 64)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runtimeSample is a snapshot of the process-wide counters the heap and
// GC layer metrics are deltas of.
type runtimeSample struct {
	allocs, gcCPU, totalCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocs: val(ss[0]), gcCPU: val(ss[1]), totalCPU: val(ss[2])}
}

// heapDelta turns two runtime samples around a measured region into the
// heap.allocs_per_program and gc.cpu_frac layer metrics.
func heapDelta(a, b runtimeSample, programs int) (allocsPerProgram, gcFrac float64) {
	if programs > 0 {
		allocsPerProgram = (b.allocs - a.allocs) / float64(programs)
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		gcFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	return
}

// cpuTime is the process's user plus system CPU time. Time the
// hypervisor gives to other guests is not in it, so on a shared host it
// is steadier than wall time; it includes the runtime's own threads
// (GC workers), so work moved off the calling goroutine still counts.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
