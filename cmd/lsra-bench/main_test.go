package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/perfdb"
)

// TestMain lets a test run the command itself: with LSRA_BENCH_MAIN set,
// the test binary behaves as lsra-bench over its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("LSRA_BENCH_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBench runs lsra-bench with args in a child process and returns its
// exit error (nil on success).
func runBench(t *testing.T, args ...string) error {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LSRA_BENCH_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	t.Logf("lsra-bench %v: %v\n%s", args, err, stderr.String())
	return err
}

func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestFailedRunLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	if err := runBench(t, "-alloc", "-algo", "no-such-allocator", "-json", "-o", out); err == nil {
		t.Fatal("run with an unknown allocator succeeded")
	}
	if names := dirEntries(t, dir); len(names) != 0 {
		t.Fatalf("failed run left files behind: %v", names)
	}
}

func TestRunWritesCompleteDocument(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	if err := runBench(t, "-table1", "-scale", "0.01", "-json", "-o", out, "-commit", "test"); err != nil {
		t.Fatal(err)
	}
	if names := dirEntries(t, dir); len(names) != 1 || names[0] != "bench.json" {
		t.Fatalf("directory holds %v, want just bench.json", names)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchOutput
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("document does not parse: %v", err)
	}
	if doc.Meta == nil || doc.Meta.Commit != "test" || len(doc.Table1) == 0 {
		t.Fatalf("document lacks its stamp or section: %.200s", data)
	}
}

// TestCorpusDocumentFeedsObservatory runs -corpus end to end and reads
// the document back the way the observatory does: the ladder, the
// decode+allocate pass and the shard count must come through as
// series, and no section of the deleted serve or pipeline duels may.
func TestCorpusDocumentFeedsObservatory(t *testing.T) {
	out := filepath.Join(t.TempDir(), "corpus.json")
	if err := runBench(t, "-corpus", "-corpus-programs", "200", "-corpus-shards", "2",
		"-corpus-rungs", "1000", "-json", "-o", out, "-commit", "test"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := perfdb.Extract(data, perfdb.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"corpus_programs_per_sec_1k", "corpus_alloc_ns", "corpus_shard_count"} {
		if _, ok := rec.Series[name]; !ok {
			t.Errorf("series %s missing", name)
		}
	}
	if n := rec.Series["corpus_shard_count"]; n != 2 {
		t.Errorf("corpus_shard_count = %v, want 2", n)
	}
	for name := range rec.Series {
		if strings.HasPrefix(name, "pipeline_") || name == "serve_cold_text_ns" || name == "serve_cold_ns" {
			t.Errorf("series %s from a deleted section", name)
		}
	}
}

// TestRemovedFlagsRejected: the flags of the deleted serve and pipeline
// duels are unknown, so the flag package exits 2.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-serve"},
		{"-corpus", "-pipeline-workers", "1"},
		{"-corpus", "-decode-ahead", "8"},
	} {
		var exit *exec.ExitError
		if err := runBench(t, args...); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("lsra-bench %v: %v, want exit status 2", args, err)
		}
	}
}

func TestWriteAtomicKeepsOldFileOnError(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(out, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The target's directory does not exist, so nothing can be written.
	if err := writeAtomic(filepath.Join(dir, "missing", "bench.json"), []byte("new")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	if err := writeAtomic(out, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(out); string(data) != "new" {
		t.Fatalf("file holds %q", data)
	}
	if names := dirEntries(t, dir); len(names) != 1 {
		t.Fatalf("temporary files left behind: %v", names)
	}
}
