package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/irbin"
	"repro/internal/target"
)

// postBinary sends concatenated irbin frames to /allocate under the
// binary content type.
func postBinary(t *testing.T, url string, query string, frames []byte, wantCode int, out any) {
	t.Helper()
	resp, err := http.Post(url+"/allocate?"+query, ContentTypeBinaryIR, bytes.NewReader(frames))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("status %d, want %d (error: %s)", resp.StatusCode, wantCode, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAllocateBinaryConformance proves the binary arm of /allocate is
// observationally identical to the text arm: the same program sent both
// ways yields the same content-address key, the same allocated program
// text, and the same report shape.
func TestAllocateBinaryConformance(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const machine = "tiny:6,4"
	text := workloadText(t, machine, 3)

	var fromText AllocateResponse
	post(t, ts.URL, AllocateRequest{Machine: machine, Program: text}, http.StatusOK, &fromText)

	mach0, err := target.Parse(machine)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.ParseProgramString(text, mach0)
	if err != nil {
		t.Fatal(err)
	}
	var fromBin AllocateResponse
	postBinary(t, ts.URL, "machine="+machine, irbin.EncodeProgram(prog), http.StatusOK, &fromBin)

	if len(fromBin.Results) != 1 {
		t.Fatalf("%d results, want 1", len(fromBin.Results))
	}
	tr, br := fromText.Results[0], fromBin.Results[0]
	if br.Key != tr.Key {
		t.Errorf("binary key %s != text key %s: the two front ends hit different cache lines", br.Key, tr.Key)
	}
	if br.Program != tr.Program {
		t.Errorf("binary and text arms allocated differently:\ntext:\n%s\nbinary:\n%s", tr.Program, br.Program)
	}
	if !br.Cached {
		t.Error("binary request after identical text request missed the cache")
	}
	if br.Report == nil {
		t.Error("binary response missing report")
	}

	// Allocated output must still be valid, independently of the duel.
	mach, err := target.Parse(machine)
	if err != nil {
		t.Fatal(err)
	}
	allocated, err := ir.ParseProgramString(br.Program, mach)
	if err != nil {
		t.Fatalf("binary response program does not parse: %v", err)
	}
	if err := ir.ValidateAllocated(allocated.Proc("main"), mach); err != nil {
		t.Errorf("binary response not validly allocated: %v", err)
	}
}

func TestAllocateBinaryBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const machine = "tiny:8,4"
	mach, err := target.Parse(machine)
	if err != nil {
		t.Fatal(err)
	}
	var frames []byte
	var want []string
	for seed := int64(1); seed <= 3; seed++ {
		text := workloadText(t, machine, seed)
		prog, err := ir.ParseProgramString(text, mach)
		if err != nil {
			t.Fatal(err)
		}
		frames = irbin.AppendProgram(frames, prog)
		want = append(want, text)
	}
	var out AllocateResponse
	postBinary(t, ts.URL, "machine="+machine+"&priority=batch", frames, http.StatusOK, &out)
	if len(out.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(out.Results), len(want))
	}
	seen := map[string]bool{}
	for i, res := range out.Results {
		if !strings.HasPrefix(res.Key, "sha256:") {
			t.Errorf("result %d key %q is not a content address", i, res.Key)
		}
		if seen[res.Key] {
			t.Errorf("result %d repeats key %s", i, res.Key)
		}
		seen[res.Key] = true
	}
}

func TestAllocateBinaryRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mach, err := target.Parse("tiny:6,4")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.ParseProgramString(workloadText(t, "tiny:6,4", 1), mach)
	if err != nil {
		t.Fatal(err)
	}
	valid := irbin.EncodeProgram(prog)

	// Empty body.
	postBinary(t, ts.URL, "machine=tiny:6,4", nil, http.StatusBadRequest, nil)
	// Garbage bytes.
	postBinary(t, ts.URL, "machine=tiny:6,4", []byte("garbage"), http.StatusBadRequest, nil)
	// Truncated frame.
	postBinary(t, ts.URL, "machine=tiny:6,4", valid[:len(valid)-4], http.StatusBadRequest, nil)
	// Trailing garbage after a valid frame.
	postBinary(t, ts.URL, "machine=tiny:6,4", append(bytes.Clone(valid), 'x'), http.StatusBadRequest, nil)
	// Missing machine.
	postBinary(t, ts.URL, "", valid, http.StatusBadRequest, nil)
	// Bad priority.
	postBinary(t, ts.URL, "machine=tiny:6,4&priority=bogus", valid, http.StatusBadRequest, nil)
}

// TestAllocateAdmissionBothArms drives each pre-allocation outcome of
// POST /allocate through both content types: the arms share one
// handler, so an over-limit body, a full admission queue and a draining
// server must answer with the same status whichever front end parsed
// the request. Admission is filled by occupying slots directly, and
// draining is entered before the request: no timing is involved.
func TestAllocateAdmissionBothArms(t *testing.T) {
	const machine = "tiny:6,4"
	text := workloadText(t, machine, 5)
	mach, err := target.Parse(machine)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.ParseProgramString(text, mach)
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, err := json.Marshal(&AllocateRequest{Machine: machine, Program: text})
	if err != nil {
		t.Fatal(err)
	}
	arms := []struct {
		name, path, contentType string
		body                    []byte
	}{
		{"json", "/allocate", "application/json", jsonBody},
		{"binary", "/allocate?machine=" + machine, ContentTypeBinaryIR, irbin.EncodeProgram(prog)},
	}
	cases := []struct {
		name  string
		cfg   Config
		setup func(t *testing.T, s *Server)
		want  int
	}{
		{"over MaxRequestBytes", Config{MaxRequestBytes: 64}, nil, http.StatusRequestEntityTooLarge},
		{"admission full", Config{Workers: 1, QueueDepth: 1}, func(t *testing.T, s *Server) {
			s.slots <- struct{}{}
			s.slots <- struct{}{}
			t.Cleanup(func() { <-s.slots; <-s.slots })
		}, http.StatusTooManyRequests},
		{"draining", Config{}, func(t *testing.T, s *Server) {
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
		}, http.StatusServiceUnavailable},
	}
	for _, c := range cases {
		for _, arm := range arms {
			t.Run(c.name+"/"+arm.name, func(t *testing.T) {
				if c.want == http.StatusRequestEntityTooLarge && int64(len(arm.body)) <= c.cfg.MaxRequestBytes {
					t.Fatalf("body of %d bytes does not exceed the %d-byte limit", len(arm.body), c.cfg.MaxRequestBytes)
				}
				s, ts := newTestServer(t, c.cfg)
				if c.setup != nil {
					c.setup(t, s)
				}
				resp, err := http.Post(ts.URL+arm.path, arm.contentType, bytes.NewReader(arm.body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != c.want {
					var e ErrorResponse
					_ = json.NewDecoder(resp.Body).Decode(&e)
					t.Fatalf("status %d, want %d (error: %s)", resp.StatusCode, c.want, e.Error)
				}
				if c.want == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
			})
		}
	}
}
