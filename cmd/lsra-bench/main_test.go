package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
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
