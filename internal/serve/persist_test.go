package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/diskcache"
	"repro/internal/ir"
)

// TestPersistTierSurvivesRestart allocates against a daemon with a
// disk-backed tier, "restarts" it (a fresh Server over the same
// directory, so the in-memory tier starts cold), and requires the
// repeat request to hit warm from disk.
func TestPersistTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{PersistDir: dir, PersistCostFactor: -1}
	text := workloadText(t, "tiny:6,4", 21)

	_, ts1 := newTestServer(t, cfg)
	var out AllocateResponse
	post(t, ts1.URL, AllocateRequest{Machine: "tiny:6,4", Program: text}, http.StatusOK, &out)
	if out.Results[0].Cached {
		t.Fatal("first allocation reported a cache hit")
	}
	m := getMetrics(t, ts1.URL)
	if m.Persist == nil {
		t.Fatal("no persist section in metrics despite PersistDir")
	}
	if m.Persist.Admission.Admitted != 1 {
		t.Fatalf("admitted = %d, want 1", m.Persist.Admission.Admitted)
	}
	ts1.Close()

	_, ts2 := newTestServer(t, cfg)
	post(t, ts2.URL, AllocateRequest{Machine: "tiny:6,4", Program: text}, http.StatusOK, &out)
	if !out.Results[0].Cached {
		t.Fatal("repeat request after restart was cold; persistent tier did not serve it")
	}
	m = getMetrics(t, ts2.URL)
	if m.Persist.Hits != 1 {
		t.Errorf("persist hits = %d, want 1", m.Persist.Hits)
	}
}

// TestPersistCostAwareAdmission checks that an impossible admission bar
// keeps cheap allocations out of the disk tier while the in-memory tier
// still serves them.
func TestPersistCostAwareAdmission(t *testing.T) {
	cfg := Config{PersistDir: t.TempDir(), PersistCostFactor: 1e12}
	_, ts := newTestServer(t, cfg)
	text := workloadText(t, "tiny:6,4", 22)

	var out AllocateResponse
	post(t, ts.URL, AllocateRequest{Machine: "tiny:6,4", Program: text}, http.StatusOK, &out)
	m := getMetrics(t, ts.URL)
	if m.Persist.Admission.RejectedCost != 1 || m.Persist.Admission.Admitted != 0 {
		t.Errorf("admission = %+v, want 1 cost rejection", m.Persist.Admission)
	}
	// The memory tier still hits.
	post(t, ts.URL, AllocateRequest{Machine: "tiny:6,4", Program: text}, http.StatusOK, &out)
	if !out.Results[0].Cached {
		t.Error("memory tier missed a repeat the disk tier declined")
	}
}

func TestPersistRequiresCaching(t *testing.T) {
	if _, err := New(Config{CacheEntries: -1, PersistDir: t.TempDir()}); err == nil {
		t.Fatal("New accepted PersistDir with caching disabled")
	}
}

// TestCacheExportSeed moves a hot entry between two daemons through the
// peering endpoints and requires the receiver to serve it warm.
func TestCacheExportSeed(t *testing.T) {
	_, src := newTestServer(t, Config{})
	_, dst := newTestServer(t, Config{})
	text := workloadText(t, "tiny:6,4", 23)

	var out AllocateResponse
	post(t, src.URL, AllocateRequest{Machine: "tiny:6,4", Program: text}, http.StatusOK, &out)

	resp, err := http.Get(src.URL + "/cache/export?n=8")
	if err != nil {
		t.Fatal(err)
	}
	var exp CacheExportResponse
	if err := json.NewDecoder(resp.Body).Decode(&exp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(exp.Entries) != 1 {
		t.Fatalf("exported %d entries, want 1", len(exp.Entries))
	}

	body, _ := json.Marshal(&CacheSeedRequest{Entries: exp.Entries})
	sresp, err := http.Post(dst.URL+"/cache/seed", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var seeded CacheSeedResponse
	if err := json.NewDecoder(sresp.Body).Decode(&seeded); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK || seeded.Seeded != 1 || seeded.Rejected != 0 {
		t.Fatalf("seed: status %d, %+v; want 200 with 1 seeded", sresp.StatusCode, seeded)
	}

	post(t, dst.URL, AllocateRequest{Machine: "tiny:6,4", Program: text}, http.StatusOK, &out)
	if !out.Results[0].Cached {
		t.Error("seeded entry did not serve the repeat request warm")
	}
	if m := getMetrics(t, dst.URL); m.Peering.Seeded != 1 {
		t.Errorf("peering.seeded = %d, want 1", m.Peering.Seeded)
	}
	if m := getMetrics(t, src.URL); m.Peering.Exported != 1 {
		t.Errorf("peering.exported = %d, want 1", m.Peering.Exported)
	}
}

// exportOne allocates text on a fresh daemon and returns the one entry
// its /cache/export serves.
func exportOne(t *testing.T, text string) []byte {
	t.Helper()
	_, src := newTestServer(t, Config{})
	var out AllocateResponse
	post(t, src.URL, AllocateRequest{Machine: "tiny:6,4", Program: text}, http.StatusOK, &out)
	resp, err := http.Get(src.URL + "/cache/export?n=8")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var exp CacheExportResponse
	if err := json.NewDecoder(resp.Body).Decode(&exp); err != nil {
		t.Fatal(err)
	}
	if len(exp.Entries) != 1 {
		t.Fatalf("exported %d entries, want 1", len(exp.Entries))
	}
	return exp.Entries[0]
}

// TestCacheSeedRejectsGarbage checks that undecodable entries — a
// JSON text-form entry or truncated binary bytes — are counted, not
// installed, and that a cacheless daemon refuses seeding.
func TestCacheSeedRejectsGarbage(t *testing.T) {
	text := workloadText(t, "tiny:6,4", 24)
	valid := exportOne(t, text)
	key, entry, err := diskcache.Decode(valid)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	(&ir.Printer{}).WriteProgram(&sb, entry.Program)
	textForm, err := json.Marshal(map[string]any{"key": string(key), "program": sb.String(), "report": entry.Report})
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{})
	var body []byte
	for name, bad := range map[string][]byte{
		"json text form":   textForm,
		"truncated binary": valid[:len(valid)/2],
	} {
		body, _ = json.Marshal(&CacheSeedRequest{Entries: [][]byte{bad}})
		resp, err := http.Post(ts.URL+"/cache/seed", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var seeded CacheSeedResponse
		if err := json.NewDecoder(resp.Body).Decode(&seeded); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if seeded.Rejected != 1 || seeded.Seeded != 0 {
			t.Errorf("seed of %s = %+v, want 1 rejection", name, seeded)
		}
	}
	var out AllocateResponse
	post(t, ts.URL, AllocateRequest{Machine: "tiny:6,4", Program: text}, http.StatusOK, &out)
	if out.Results[0].Cached {
		t.Error("a rejected seed entry served a request")
	}

	_, nocache := newTestServer(t, Config{CacheEntries: -1})
	resp, err := http.Post(nocache.URL+"/cache/seed", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("seed to cacheless daemon: status %d, want 409", resp.StatusCode)
	}
}
