package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/serve"
	"repro/internal/target"
)

// TestBinaryTransportRoundTrip drives the client's binary wire form
// against live serve nodes and checks the answers are byte-identical
// to posting the JSON form straight to each program's owner — the two
// arms share the engine, so any drift is a codec bug. Concurrent
// clients keep the test meaningful under -race.
func TestBinaryTransportRoundTrip(t *testing.T) {
	c := startCluster(t, 2, NodeConfig{})
	cl := c.Client(ClientConfig{MaxAttempts: 2})
	ring := mirrorRing(c.URLs())

	jobs := testJobs(t, 12)
	var wg sync.WaitGroup
	out := make([]string, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, text string) {
			defer wg.Done()
			resp, _, err := cl.Allocate(context.Background(), serve.AllocateRequest{Machine: testMachine, Program: text})
			if err != nil {
				t.Errorf("binary allocate %d: %v", i, err)
				return
			}
			if len(resp.Results) != 1 || resp.Results[0].Program == "" {
				t.Errorf("binary allocate %d: empty result", i)
				return
			}
			out[i] = resp.Results[0].Program
		}(i, j.Text)
	}
	wg.Wait()

	for i, j := range jobs {
		body, err := json.Marshal(serve.AllocateRequest{Machine: testMachine, Program: j.Text})
		if err != nil {
			t.Fatal(err)
		}
		hresp, err := http.Post(ring.Owner(jobKey(j))+"/allocate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("json allocate %d: %v", i, err)
		}
		var resp serve.AllocateResponse
		err = json.NewDecoder(hresp.Body).Decode(&resp)
		hresp.Body.Close()
		if err != nil || hresp.StatusCode != http.StatusOK || len(resp.Results) != 1 {
			t.Fatalf("json allocate %d: status %d, %v", i, hresp.StatusCode, err)
		}
		if got := resp.Results[0].Program; got != out[i] {
			t.Fatalf("program %d: binary and JSON wire forms disagree:\nbinary:\n%s\njson:\n%s", i, out[i], got)
		}
	}

	if st := cl.Stats(); st.BinaryRequests < uint64(len(jobs)) {
		t.Fatalf("client posted %d binary requests for %d programs: %+v", st.BinaryRequests, len(jobs), st)
	}
}

// nodeRequestTotal sums every node's /allocate request counter.
func nodeRequestTotal(c *Cluster) uint64 {
	var total uint64
	for _, ni := range c.Topology() {
		total += c.Node(ni.Name).Server().Metrics().Requests.Total
	}
	return total
}

// TestUnparsableProgramRejectedLocally: a program or machine spec the
// client cannot parse would fail identically on every node, so the
// client returns the parse error itself and contacts no node.
func TestUnparsableProgramRejectedLocally(t *testing.T) {
	c := startCluster(t, 2, NodeConfig{})
	cl := c.Client(ClientConfig{})

	const bad = "this is not a program"
	mach, err := target.Parse(testMachine)
	if err != nil {
		t.Fatal(err)
	}
	_, parseErr := ir.ParseProgramString(bad, mach)
	if parseErr == nil {
		t.Fatal("test program unexpectedly parses")
	}
	_, _, err = cl.Allocate(context.Background(), serve.AllocateRequest{Machine: testMachine, Program: bad})
	if err == nil {
		t.Fatal("unparsable program allocated")
	}
	if !strings.Contains(err.Error(), parseErr.Error()) {
		t.Fatalf("error %q does not name the parse failure %q", err, parseErr)
	}

	job := testJobs(t, 1)[0]
	if _, _, err := cl.Allocate(context.Background(), serve.AllocateRequest{Machine: "no-such-machine", Program: job.Text}); err == nil {
		t.Fatal("unknown machine spec accepted")
	}

	st := cl.Stats()
	if st.Failovers != 0 || st.BinaryRequests != 0 || st.Errors != 2 {
		t.Fatalf("local rejections touched the fleet: %+v", st)
	}
	if n := nodeRequestTotal(c); n != 0 {
		t.Fatalf("nodes saw %d /allocate requests, want 0", n)
	}
}

// TestRejectedRequestIsFinal: a 4xx other than 429 says the request is
// at fault, not the node, so the client neither fails over nor takes
// the node out of rotation — the next request still reaches its owner.
func TestRejectedRequestIsFinal(t *testing.T) {
	c := startCluster(t, 3, NodeConfig{})
	cl := c.Client(ClientConfig{MaxAttempts: 3})
	job := testJobs(t, 1)[0]

	_, _, err := cl.Allocate(context.Background(), serve.AllocateRequest{
		Machine: testMachine, Algorithm: "no-such-allocator", Program: job.Text,
	})
	if err == nil {
		t.Fatal("unknown algorithm allocated")
	}
	if !strings.Contains(err.Error(), "status 400") || !strings.Contains(err.Error(), "no-such-allocator") {
		t.Fatalf("want the server's 400 naming the algorithm, got: %v", err)
	}
	st := cl.Stats()
	if st.Failovers != 0 || st.Errors != 1 {
		t.Fatalf("a 4xx counted as node failure: %+v", st)
	}
	if n := nodeRequestTotal(c); n != 1 {
		t.Fatalf("nodes saw %d /allocate requests, want exactly the owner's 1", n)
	}

	_, node := allocJob(t, cl, job)
	if owner := mirrorRing(c.URLs()).Owner(jobKey(job)); node != owner {
		t.Fatalf("valid request served by %s, want its ring owner %s", node, owner)
	}
	if st := cl.Stats(); st.Failovers != 0 {
		t.Fatalf("valid request failed over: %+v", st)
	}
}
