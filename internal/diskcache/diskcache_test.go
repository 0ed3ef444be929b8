package diskcache

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	regalloc "repro"
	"repro/internal/progs"
)

// testEntry runs one real allocation and returns its content address
// and cache entry, exactly as the engine would hand them to a cache.
func testEntry(t testing.TB, seed int64) (regalloc.CacheKey, *regalloc.CachedAllocation) {
	t.Helper()
	m := regalloc.Tiny(6, 4)
	eng, err := regalloc.New(m, regalloc.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	prog := progs.Random(m, progs.DefaultGen(seed))
	prog.SetMem(3, 42)
	key := eng.CacheKey(prog)
	out, rep, err := eng.AllocateProgram(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	return key, &regalloc.CachedAllocation{Program: out, Report: rep}
}

func TestWireRoundTrip(t *testing.T) {
	key, entry := testEntry(t, 7)
	data, err := EncodeBinary(key, entry)
	if err != nil {
		t.Fatal(err)
	}
	gotKey, got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if gotKey != key {
		t.Errorf("key %s round-tripped to %s", key, gotKey)
	}
	if got.Report.Algorithm != entry.Report.Algorithm {
		t.Errorf("report algorithm %q → %q", entry.Report.Algorithm, got.Report.Algorithm)
	}
	if got.Program.MemInit[3] != 42 {
		t.Errorf("MemInit lost: %v", got.Program.MemInit)
	}
	// The wire form is canonical: encode(decode(x)) reproduces x.
	again, err := EncodeBinary(gotKey, got)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Error("wire form is not a round-trip fixpoint")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"", "{", `{"key":""}`, `{"key":"sha256:ab","program":"@#$%","report":{}}`} {
		if _, _, err := Decode([]byte(bad)); err == nil {
			t.Errorf("Decode(%q) succeeded", bad)
		}
	}
}

func TestPersistAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	key, entry := testEntry(t, 11)

	c1, err := Open(Config{Dir: dir, CostFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(key, entry)
	if _, ok := c1.Get(key); !ok {
		t.Fatal("entry not readable from the tier that wrote it")
	}

	// A "restart": a second Cache over the same directory must serve the
	// entry warm.
	c2, err := Open(Config{Dir: dir, CostFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok {
		t.Fatal("entry did not survive reopen")
	}
	if got.Report.Algorithm != entry.Report.Algorithm {
		t.Errorf("reopened entry algorithm %q, want %q", got.Report.Algorithm, entry.Report.Algorithm)
	}
	if st := c2.Stats(); st.Entries != 1 || st.Hits != 1 {
		t.Errorf("stats after reopen+hit = %+v, want 1 entry, 1 hit", st)
	}
}

func TestCostAwareAdmission(t *testing.T) {
	key, entry := testEntry(t, 13)

	// An impossible bar rejects everything.
	picky, err := Open(Config{Dir: t.TempDir(), CostFactor: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	picky.Put(key, entry)
	if _, ok := picky.Get(key); ok {
		t.Error("entry admitted past a 1e12× cost bar")
	}
	adm := picky.Admission()
	if adm.RejectedCost != 1 || adm.Admitted != 0 {
		t.Errorf("admission = %+v, want 1 rejection, 0 admissions", adm)
	}
	if adm.LastWorkNs <= 0 || adm.LastSerNs <= 0 {
		t.Errorf("admission comparison sides not recorded: %+v", adm)
	}

	// A negative factor admits everything, however cheap.
	eager, err := Open(Config{Dir: t.TempDir(), CostFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	eager.Put(key, entry)
	if _, ok := eager.Get(key); !ok {
		t.Error("CostFactor<0 did not admit the entry")
	}
	if adm := eager.Admission(); adm.Admitted != 1 {
		t.Errorf("admission = %+v, want 1 admission", adm)
	}
}

func TestCorruptEntryDropped(t *testing.T) {
	dir := t.TempDir()
	key, entry := testEntry(t, 17)
	c1, err := Open(Config{Dir: dir, CostFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(key, entry)

	// Tear the file, then reopen: the scan must drop it, not serve it.
	files, err := filepath.Glob(filepath.Join(dir, "*"+entrySuffix))
	if err != nil || len(files) != 1 {
		t.Fatalf("entry files = %v (err %v), want exactly one", files, err)
	}
	if err := os.WriteFile(files[0], []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(Config{Dir: dir, CostFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key); ok {
		t.Fatal("corrupt entry served")
	}
	if adm := c2.Admission(); adm.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want 1", adm.Corrupt)
	}
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Error("corrupt entry file not removed")
	}
}

func TestEvictionBound(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Config{Dir: dir, MaxEntries: 2, CostFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	var keys []regalloc.CacheKey
	for seed := int64(20); seed < 23; seed++ {
		key, entry := testEntry(t, seed)
		c.Put(key, entry)
		keys = append(keys, key)
		time.Sleep(2 * time.Millisecond) // distinct mtimes for the reopen check
	}
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries after 1 eviction", st)
	}
	if _, ok := c.Get(keys[0]); ok {
		t.Error("least-recently-used entry survived eviction")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"+entrySuffix))
	if len(files) != 2 {
		t.Errorf("%d entry files on disk, want 2", len(files))
	}

	// Reopen with a tighter bound: recovery must evict the stalest file.
	c2, err := Open(Config{Dir: dir, MaxEntries: 1, CostFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Entries != 1 {
		t.Errorf("entries after bounded reopen = %d, want 1", st.Entries)
	}
	if _, ok := c2.Get(keys[2]); !ok {
		t.Error("most recently written entry evicted by recovery, want the stalest")
	}
}

func TestEntryFileNames(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Config{Dir: dir, CostFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	key, entry := testEntry(t, 29)
	c.Put(key, entry)
	files, _ := filepath.Glob(filepath.Join(dir, "*"+entrySuffix))
	if len(files) != 1 {
		t.Fatalf("%d entry files, want 1", len(files))
	}
	// Content-addressed name: the key's hex digest.
	_, hex, _ := strings.Cut(string(key), ":")
	if want := hex + entrySuffix; filepath.Base(files[0]) != want {
		t.Errorf("entry file %s, want %s", filepath.Base(files[0]), want)
	}
}
