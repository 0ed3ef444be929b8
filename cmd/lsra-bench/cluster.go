package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	regalloc "repro"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/serve"
)

// clusterBench is the -cluster section: a 3-node consistent-hash
// cluster driven by the deterministic hot/cold workload, measuring the
// sharded steady state, the hedged-request tail-latency win against an
// artificially slow node, cost-aware disk admission, and the
// persistent tier's warm hit rate across a full cluster restart.
type clusterBench struct {
	Machine string `json:"machine"`
	Nodes   int    `json:"nodes"`
	// Requests is the cold-pass stream length (hot×repeats + cold).
	Requests int `json:"requests"`
	// ColdNsPerRequest is the mean over the first full pass (misses and
	// first repeats mixed); WarmNsPerRequest over a replay of the hot
	// set once every owner's cache holds it.
	ColdNsPerRequest int64 `json:"cold_ns_per_request"`
	WarmNsPerRequest int64 `json:"warm_ns_per_request"`
	// WarmHitRate is the hot-set replay's cache-hit fraction.
	WarmHitRate float64 `json:"warm_hit_rate"`

	// Tail latency against a cluster with one slow node (fixed injected
	// stall on its allocate path), same warm workload, with and without
	// hedging. The win is UnhedgedP99Ns / HedgedP99Ns.
	StallNs        int64   `json:"stall_ns"`
	UnhedgedP50Ns  int64   `json:"unhedged_p50_ns"`
	UnhedgedP99Ns  int64   `json:"unhedged_p99_ns"`
	HedgedP50Ns    int64   `json:"hedged_p50_ns"`
	HedgedP99Ns    int64   `json:"hedged_p99_ns"`
	HedgeWins      uint64  `json:"hedge_wins"`
	TailSpeedupP99 float64 `json:"tail_speedup_p99"`

	// Cost-aware admission of the disk tier under the default bar,
	// measured on a separate single-node probe fed the same stream (the
	// main fleet admits everything so RestartWarmHitRate isolates the
	// disk tier rather than the admission policy).
	PersistAdmitted     uint64 `json:"persist_admitted"`
	PersistRejectedCost uint64 `json:"persist_rejected_cost"`
	// RestartWarmHitRate is the hot-set hit fraction served by a fresh
	// cluster over the previous run's persist directories (memory tiers
	// cold, disk tiers warm).
	RestartWarmHitRate float64 `json:"restart_warm_hit_rate"`
}

// percentile returns the p-th percentile (0..1) of sorted durations.
func percentile(sorted []time.Duration, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i].Nanoseconds()
}

// replayCluster posts each job through the cluster client, returning
// per-request latencies and the cache-hit count.
func replayCluster(cl *cluster.Client, machine string, jobs []experiments.ClusterJob) ([]time.Duration, int, error) {
	lats := make([]time.Duration, 0, len(jobs))
	hits := 0
	for _, j := range jobs {
		start := time.Now()
		resp, _, err := cl.Allocate(context.Background(), serve.AllocateRequest{
			Machine: machine, Program: j.Text, Priority: j.Priority,
		})
		if err != nil {
			return nil, 0, err
		}
		lats = append(lats, time.Since(start))
		if len(resp.Results) > 0 && resp.Results[0].Cached {
			hits++
		}
	}
	return lats, hits, nil
}

// hotOnce returns one instance of each distinct hot job in the stream.
func hotOnce(stream []experiments.ClusterJob) []experiments.ClusterJob {
	seen := map[string]bool{}
	var out []experiments.ClusterJob
	for _, j := range stream {
		if j.Hot && !seen[j.Text] {
			seen[j.Text] = true
			out = append(out, j)
		}
	}
	return out
}

// runClusterBench measures the sharded service: a 3-node cluster with
// per-node disk tiers, the hot/cold stream, a hedging duel against an
// injected-latency node, and a restart over the same persist
// directories.
func runClusterBench(machine string) (*clusterBench, error) {
	mach, err := regalloc.ParseMachine(machine)
	if err != nil {
		return nil, err
	}
	const hotN, hotRepeats, coldN = 8, 3, 8
	stream, err := experiments.ClusterWorkload(mach, 100, hotN, hotRepeats, coldN)
	if err != nil {
		return nil, err
	}
	hot := hotOnce(stream)

	persistRoot, err := os.MkdirTemp("", "lsra-cluster-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(persistRoot)
	nodeCfg := func(i int, addr string) cluster.NodeConfig {
		return cluster.NodeConfig{
			Name: fmt.Sprintf("node-%d", i),
			Addr: addr,
			Serve: serve.Config{
				Workers: 2, QueueDepth: 64,
				PersistDir: fmt.Sprintf("%s/node-%d", persistRoot, i),
				// Admit everything: the restart pass below measures the
				// disk tier itself; admission policy is probed separately.
				PersistCostFactor: -1,
			},
		}
	}

	const nodes = 3
	c := cluster.NewCluster(cluster.Options{})
	addrs := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		n, err := c.Join(nodeCfg(i, ""))
		if err != nil {
			return nil, err
		}
		// Remember each node's address: ownership is consistent-hashed
		// over the node table, so the restarted fleet must come back on
		// the same addresses (as a real daemon restart does) for each
		// disk tier to hold its own share of the key space.
		addrs[i] = strings.TrimPrefix(n.URL, "http://")
	}
	cl := c.Client(cluster.ClientConfig{MaxAttempts: nodes})

	out := &clusterBench{Machine: machine, Nodes: nodes, Requests: len(stream)}

	coldLats, _, err := replayCluster(cl, machine, stream)
	if err != nil {
		return nil, err
	}
	var coldTotal time.Duration
	for _, d := range coldLats {
		coldTotal += d
	}
	out.ColdNsPerRequest = coldTotal.Nanoseconds() / int64(len(coldLats))

	warmLats, warmHits, err := replayCluster(cl, machine, hot)
	if err != nil {
		return nil, err
	}
	var warmTotal time.Duration
	for _, d := range warmLats {
		warmTotal += d
	}
	out.WarmNsPerRequest = warmTotal.Nanoseconds() / int64(len(warmLats))
	out.WarmHitRate = float64(warmHits) / float64(len(hot))

	// Cost-aware admission under the default bar: a single-node probe
	// sees the same distinct programs and decides, per entry, whether
	// the measured allocation time clears the serialization-cost bar.
	probe := cluster.NewCluster(cluster.Options{})
	pn, err := probe.Join(cluster.NodeConfig{
		Name: "admission-probe",
		Serve: serve.Config{
			Workers: 2, QueueDepth: 64,
			PersistDir: fmt.Sprintf("%s/admission-probe", persistRoot),
		},
	})
	if err != nil {
		return nil, err
	}
	pcl := probe.Client(cluster.ClientConfig{})
	if _, _, err := replayCluster(pcl, machine, stream); err != nil {
		return nil, err
	}
	if adm := pn.Server().Metrics().Persist; adm != nil {
		out.PersistAdmitted = adm.Admission.Admitted
		out.PersistRejectedCost = adm.Admission.RejectedCost
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := probe.Shutdown(ctx); err != nil {
		return nil, err
	}
	if err := c.Shutdown(ctx); err != nil {
		return nil, err
	}

	// Restart: fresh daemons over the same persist directories. The
	// memory tiers start cold; every hit is the disk tier's.
	c2 := cluster.NewCluster(cluster.Options{})
	for i := 0; i < nodes; i++ {
		if _, err := c2.Join(nodeCfg(i, addrs[i])); err != nil {
			return nil, err
		}
	}
	cl2 := c2.Client(cluster.ClientConfig{MaxAttempts: nodes})
	_, restartHits, err := replayCluster(cl2, machine, hot)
	if err != nil {
		return nil, err
	}
	out.RestartWarmHitRate = float64(restartHits) / float64(len(hot))
	if err := c2.Shutdown(ctx); err != nil {
		return nil, err
	}

	// Hedging duel: a 2-node cluster whose first node stalls every
	// allocate. Warm both caches first so service time is lookup-bound
	// and the stall dominates the unhedged tail. The stall must sit well
	// above in-process scheduler noise (warm lookups occasionally take
	// 10-15ms wall time when client and both servers share one process),
	// or the tail comparison drowns in that noise.
	const stall = 25 * time.Millisecond
	out.StallNs = stall.Nanoseconds()
	c3 := cluster.NewCluster(cluster.Options{})
	slowCfg := cluster.NodeConfig{Name: "slow", Serve: serve.Config{Workers: 2, QueueDepth: 64},
		Middleware: func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/allocate" {
					time.Sleep(stall)
				}
				next.ServeHTTP(w, r)
			})
		}}
	if _, err := c3.Join(slowCfg); err != nil {
		return nil, err
	}
	if _, err := c3.Join(cluster.NodeConfig{Name: "fast", Serve: serve.Config{Workers: 2, QueueDepth: 64}}); err != nil {
		return nil, err
	}
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		_ = c3.Shutdown(sctx)
	}()

	warmup := c3.Client(cluster.ClientConfig{MaxAttempts: 2})
	if _, _, err := replayCluster(warmup, machine, hot); err != nil {
		return nil, err
	}
	if _, err := c3.Replicate(); err != nil { // both nodes hold the hot set
		return nil, err
	}

	const rounds = 12
	duel := func(hedge time.Duration) ([]time.Duration, *cluster.Client, error) {
		dcl := c3.Client(cluster.ClientConfig{MaxAttempts: 2, HedgeDelay: hedge})
		var all []time.Duration
		for r := 0; r < rounds; r++ {
			lats, _, err := replayCluster(dcl, machine, hot)
			if err != nil {
				return nil, nil, err
			}
			all = append(all, lats...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		return all, dcl, nil
	}
	unhedged, _, err := duel(0)
	if err != nil {
		return nil, err
	}
	// Hedge just above the healthy warm service time: requests the fast
	// node answers promptly never spawn a duplicate (on a small host the
	// duplicate work would contend with the winner and inflate the very
	// tail being measured), while stalled-node requests hedge early
	// enough to cap the tail well below the stall.
	hedged, hcl, err := duel(8 * time.Millisecond)
	if err != nil {
		return nil, err
	}
	out.UnhedgedP50Ns = percentile(unhedged, 0.50)
	out.UnhedgedP99Ns = percentile(unhedged, 0.99)
	out.HedgedP50Ns = percentile(hedged, 0.50)
	out.HedgedP99Ns = percentile(hedged, 0.99)
	out.HedgeWins = hcl.Stats().HedgeWins
	if out.HedgedP99Ns > 0 {
		out.TailSpeedupP99 = float64(out.UnhedgedP99Ns) / float64(out.HedgedP99Ns)
	}
	return out, nil
}
