package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/target"
)

const testMachine = "tiny:6,4"

// testJobs builds a deterministic workload in wire form.
func testJobs(t *testing.T, n int) []experiments.LoadJob {
	t.Helper()
	mach, err := target.Parse(testMachine)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := experiments.Workload(mach, []string{"default"}, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// startCluster joins n identically configured nodes.
func startCluster(t *testing.T, n int, node NodeConfig) *Cluster {
	t.Helper()
	c := NewCluster(Options{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	})
	for i := 0; i < n; i++ {
		cfg := node
		cfg.Name = "node-" + strconv.Itoa(i)
		if _, err := c.Join(cfg); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// mirrorRing rebuilds the routing ring a client would hold, so tests
// can predict owners and failover order.
func mirrorRing(urls []string) *Ring {
	r := NewRing(0)
	for _, u := range urls {
		r.Add(u)
	}
	return r
}

func jobKey(j experiments.LoadJob) uint64 {
	return RouteKey(testMachine, "", []string{j.Text})
}

func allocJob(t *testing.T, cl *Client, j experiments.LoadJob) (*serve.AllocateResponse, string) {
	t.Helper()
	resp, node, err := cl.Allocate(context.Background(), serve.AllocateRequest{Machine: testMachine, Program: j.Text})
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("%d results, want 1", len(resp.Results))
	}
	return resp, node
}

// TestClusterFailoverZeroLoss kills one of three nodes mid-stream and
// requires every request to complete via failover — the acceptance
// criterion for node loss.
func TestClusterFailoverZeroLoss(t *testing.T) {
	c := startCluster(t, 3, NodeConfig{})
	cl := c.Client(ClientConfig{MaxAttempts: 3, DownCooldown: 200 * time.Millisecond})

	jobs := testJobs(t, 48)
	// Warm pass so the kill hits a cluster under steady state.
	for _, j := range jobs[:6] {
		allocJob(t, cl, j)
	}

	victim := c.Node("node-1")
	if victim == nil {
		t.Fatal("no node-1")
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	const workers = 6
	feed := make(chan experiments.LoadJob)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range feed {
				_, _, err := cl.Allocate(context.Background(), serve.AllocateRequest{Machine: testMachine, Program: j.Text})
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	killed := make(chan struct{})
	go func() {
		time.Sleep(10 * time.Millisecond) // mid-stream, not before it
		c.Kill("node-1")
		close(killed)
	}()
	for _, j := range jobs {
		feed <- j
	}
	close(feed)
	wg.Wait()
	<-killed
	close(errs)
	for err := range errs {
		t.Errorf("request lost: %v", err)
	}
	if st := cl.Stats(); st.Failovers == 0 {
		t.Log("note: no failovers recorded (victim owned none of the stream)")
	}
}

// TestClusterReplicationWarmFailover checks that a hot entry replicated
// to the ring successor still hits warm after its owner dies.
func TestClusterReplicationWarmFailover(t *testing.T) {
	c := startCluster(t, 3, NodeConfig{})
	cl := c.Client(ClientConfig{MaxAttempts: 3, DownCooldown: 100 * time.Millisecond})
	ring := mirrorRing(c.URLs())

	// Find a job whose first failover target is also its owner's
	// replication successor — that is the pair replication protects.
	jobs := testJobs(t, 64)
	var job *experiments.LoadJob
	for i := range jobs {
		seq := ring.Sequence(jobKey(jobs[i]), 2)
		if len(seq) == 2 && ring.Successor(seq[0]) == seq[1] {
			job = &jobs[i]
			break
		}
	}
	if job == nil {
		t.Fatal("no job routed owner→successor in 64 seeds; vnode layout changed?")
	}
	seq := ring.Sequence(jobKey(*job), 2)

	// Populate the owner's cache, then replicate hot entries forward.
	if _, node := allocJob(t, cl, *job); node != seq[0] {
		t.Fatalf("served by %s, want owner %s", node, seq[0])
	}
	if n, err := c.Replicate(); err != nil {
		t.Fatalf("replicate: %v", err)
	} else if n == 0 {
		t.Fatal("replication moved zero entries")
	}

	// Kill the owner; the retry must land on the successor and hit warm.
	var victimName string
	for _, info := range c.Topology() {
		if info.URL == seq[0] {
			victimName = info.Name
		}
	}
	c.Kill(victimName)
	resp, node := allocJob(t, cl, *job)
	if node != seq[1] {
		t.Fatalf("failover served by %s, want successor %s", node, seq[1])
	}
	if !resp.Results[0].Cached {
		t.Error("failover request missed the replicated cache entry (cold)")
	}
}

// TestClusterJoinLeaveStableRouting checks consistent hashing end to
// end: a join moves keys only onto the joiner, and a leave restores the
// original owners.
func TestClusterJoinLeaveStableRouting(t *testing.T) {
	c := startCluster(t, 2, NodeConfig{})
	cl := c.Client(ClientConfig{MaxAttempts: 2})

	jobs := testJobs(t, 10)
	before := make([]string, len(jobs))
	for i, j := range jobs {
		_, before[i] = allocJob(t, cl, j)
	}

	joiner, err := c.Join(NodeConfig{Name: "node-2"})
	if err != nil {
		t.Fatal(err)
	}
	cl.SetNodes(c.URLs())
	for i, j := range jobs {
		_, node := allocJob(t, cl, j)
		if node != before[i] && node != joiner.URL {
			t.Errorf("job %d moved %s → %s, not to the joiner %s", i, before[i], node, joiner.URL)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Leave(ctx, "node-2"); err != nil {
		t.Fatal(err)
	}
	cl.SetNodes(c.URLs())
	for i, j := range jobs {
		if _, node := allocJob(t, cl, j); node != before[i] {
			t.Errorf("job %d owner after join+leave = %s, want original %s", i, node, before[i])
		}
	}
}

// TestClusterJoinWarmsFromSuccessor checks that a joining node inherits
// hot entries, so keys that move to it can hit warm immediately.
func TestClusterJoinWarmsFromSuccessor(t *testing.T) {
	c := startCluster(t, 1, NodeConfig{})
	cl := c.Client(ClientConfig{})
	jobs := testJobs(t, 8)
	for _, j := range jobs {
		allocJob(t, cl, j)
	}

	joiner, err := c.Join(NodeConfig{Name: "node-1"})
	if err != nil {
		t.Fatal(err)
	}
	cl.SetNodes(c.URLs())
	ring := mirrorRing(c.URLs())
	warmed := false
	for _, j := range jobs {
		if ring.Owner(jobKey(j)) != joiner.URL {
			continue
		}
		resp, node := allocJob(t, cl, j)
		if node != joiner.URL {
			t.Fatalf("served by %s, want joiner", node)
		}
		if resp.Results[0].Cached {
			warmed = true
		}
	}
	if !warmed {
		t.Error("no key that moved to the joiner hit its warmed cache")
	}
}

// TestClusterHedgedRequests parks one node behind injected latency and
// checks that a hedged request wins from the successor instead of
// waiting out the slow owner.
func TestClusterHedgedRequests(t *testing.T) {
	const stall = 400 * time.Millisecond
	c := NewCluster(Options{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	})
	slow, err := c.Join(NodeConfig{Name: "slow", Middleware: func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/allocate" {
				time.Sleep(stall)
			}
			next.ServeHTTP(w, r)
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := c.Join(NodeConfig{Name: "fast"})
	if err != nil {
		t.Fatal(err)
	}

	cl := c.Client(ClientConfig{MaxAttempts: 2, HedgeDelay: 20 * time.Millisecond})
	ring := mirrorRing(c.URLs())
	jobs := testJobs(t, 64)
	var job *experiments.LoadJob
	for i := range jobs {
		if ring.Owner(jobKey(jobs[i])) == slow.URL {
			job = &jobs[i]
			break
		}
	}
	if job == nil {
		t.Fatal("no job owned by the slow node in 64 seeds")
	}

	_, node := allocJob(t, cl, *job)
	if node != fast.URL {
		t.Fatalf("served by %s, want the hedged fast node %s", node, fast.URL)
	}
	st := cl.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Errorf("stats = %+v, want at least one hedge and one hedge win", st)
	}
}

// Test429RetryAfterHonored checks the bounded-backoff contract: the
// client sleeps per Retry-After (capped) and re-sends instead of
// failing, up to the retry budget.
func Test429RetryAfterHonored(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		n := attempts
		mu.Unlock()
		if n <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(serve.ErrorResponse{Error: "busy"})
			return
		}
		_ = json.NewEncoder(w).Encode(serve.AllocateResponse{Results: []serve.AllocatedProgram{{}}})
	}))
	t.Cleanup(ts.Close)

	cl := NewClient(ClientConfig{
		Nodes:         []string{ts.URL},
		Max429Retries: 2,
		MaxRetryAfter: 60 * time.Millisecond, // cap the 1s header
	})
	job := testJobs(t, 1)[0]
	start := time.Now()
	_, _, err := cl.Allocate(context.Background(), serve.AllocateRequest{Machine: testMachine, Program: job.Text})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("allocate failed despite retry budget: %v", err)
	}
	if st := cl.Stats(); st.Retries429 != 2 {
		t.Errorf("Retries429 = %d, want 2", st.Retries429)
	}
	if elapsed < 100*time.Millisecond {
		t.Errorf("elapsed %v: backoff not honored (want >= 2 × 60ms cap, minus scheduling slop)", elapsed)
	}
	if elapsed > 1500*time.Millisecond {
		t.Errorf("elapsed %v: Retry-After cap not applied (raw header was 1s × 2)", elapsed)
	}
}

// Test429BudgetExhausted checks that a node that never stops saying 429
// eventually counts as failed rather than retried forever.
func Test429BudgetExhausted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(serve.ErrorResponse{Error: "busy"})
	}))
	t.Cleanup(ts.Close)
	cl := NewClient(ClientConfig{Nodes: []string{ts.URL}, Max429Retries: 1, MaxRetryAfter: time.Millisecond})
	job := testJobs(t, 1)[0]
	if _, _, err := cl.Allocate(context.Background(), serve.AllocateRequest{Machine: testMachine, Program: job.Text}); err == nil {
		t.Fatal("allocate succeeded against a permanently saturated node")
	}
	if st := cl.Stats(); st.Errors != 1 || st.Retries429 != 1 {
		t.Errorf("Errors = %d, Retries429 = %d, want 1 and 1", st.Errors, st.Retries429)
	}
}
