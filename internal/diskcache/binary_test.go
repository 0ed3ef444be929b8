package diskcache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	regalloc "repro"
	"repro/internal/ir"
)

func TestBinaryWireRoundTrip(t *testing.T) {
	key, entry := testEntry(t, 19)
	data, err := EncodeBinary(key, entry)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), binaryMagic) {
		t.Fatalf("binary entry does not open with %q", binaryMagic)
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
	// The decoded program prints as the allocated one did, apart from
	// the loop-depth comments: depth is an analysis result, not part of
	// the program, and the frame does not carry it.
	var a, b strings.Builder
	(&ir.Printer{}).WriteProgram(&a, got.Program)
	(&ir.Printer{}).WriteProgram(&b, entry.Program)
	if a.String() != depthComment.ReplaceAllString(b.String(), "") {
		t.Errorf("wire form changed the program:\ndecoded:\n%s\nallocated:\n%s", a.String(), b.String())
	}
}

var depthComment = regexp.MustCompile(`  ; depth=\d+`)

func TestBinaryDecodeRejectsGarbage(t *testing.T) {
	key, entry := testEntry(t, 23)
	data, err := EncodeBinary(key, entry)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{
		[]byte(binaryMagic),
		[]byte(binaryMagic + "\x05abc"),                 // key overruns buffer
		data[:len(data)/2],                              // truncated mid-frame or mid-report
		append(append([]byte{}, data...), "garbage"...), // trailing junk breaks the report JSON
	} {
		if _, _, err := Decode(bad); err == nil {
			t.Errorf("Decode(%q...) succeeded", bad[:min(len(bad), 12)])
		}
	}
}

// textFormEntry renders an entry as a JSON object carrying the printed
// program — a text form the tier does not read.
func textFormEntry(t testing.TB, key regalloc.CacheKey, e *regalloc.CachedAllocation) []byte {
	t.Helper()
	var sb strings.Builder
	(&ir.Printer{}).WriteProgram(&sb, e.Program)
	data, err := json.Marshal(map[string]any{
		"key": string(key), "program": sb.String(), "mem_init": e.Program.MemInit, "report": e.Report,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTextFormEntryRejected: an entry file in the JSON text form is
// outside input the tier does not read, so Open treats it exactly as a
// corrupt entry — counted, removed, never served.
func TestTextFormEntryRejected(t *testing.T) {
	dir := t.TempDir()
	key, entry := testEntry(t, 29)
	text := textFormEntry(t, key, entry)
	if _, _, err := Decode(text); err == nil {
		t.Fatal("Decode accepted a text-form entry")
	}
	_, hex, _ := strings.Cut(string(key), ":")
	path := filepath.Join(dir, hex+entrySuffix)
	if err := os.WriteFile(path, text, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(Config{Dir: dir, CostFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	if adm := c.Admission(); adm.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want 1", adm.Corrupt)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("text-form entry file not removed")
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("text-form entry served")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("entries = %d, want 0", st.Entries)
	}
}
