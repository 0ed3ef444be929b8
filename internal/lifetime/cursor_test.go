package lifetime

import (
	"math/rand"
	"testing"

	"repro/internal/target"
)

// randomRegBusy builds a busy table of nr registers over positions
// [0, span): sorted, disjoint, non-adjacent segments, some registers
// with none at all.
func randomRegBusy(rng *rand.Rand, nr int, span int32) *RegBusy {
	rb := &RegBusy{segs: make([][]Segment, nr)}
	for r := range rb.segs {
		if rng.Intn(5) == 0 {
			continue // never busy
		}
		pos := int32(rng.Intn(4))
		for pos < span {
			end := pos + int32(rng.Intn(3))
			if rng.Intn(4) == 0 {
				end += int32(rng.Intn(10))
			}
			rb.segs[r] = append(rb.segs[r], Segment{pos, end})
			pos = end + 2 + int32(rng.Intn(12))
		}
	}
	return rb
}

// TestCursorMatchesRegBusy drives a Cursor with nondecreasing query
// positions — repeats included, as the scan asks several questions at
// one instruction — and checks every answer against RegBusy's binary
// search. Every so often a query goes below the last position, which
// must fall back without disturbing later monotone answers.
func TestCursorMatchesRegBusy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var c Cursor // reused across tables, as the scan's scratch does
	for iter := 0; iter < 300; iter++ {
		nr := 1 + rng.Intn(12)
		span := int32(20 + rng.Intn(300))
		rb := randomRegBusy(rng, nr, span)
		c.Reset(rb)
		pos := int32(rng.Intn(3)) - 1
		for pos < span+5 {
			for q := rng.Intn(3); q >= 0; q-- {
				r := target.Reg(rng.Intn(nr))
				at := pos
				if rng.Intn(8) == 0 {
					at = pos - int32(rng.Intn(40)) // below the last position
				}
				if got, want := c.NextBusy(r, at), rb.NextBusy(r, at); got != want {
					t.Fatalf("iter %d: NextBusy(r%d, %d) = %d, want %d (segs %v)", iter, r, at, got, want, rb.segs[r])
				}
				if got, want := c.BusyAt(r, at), rb.BusyAt(r, at); got != want {
					t.Fatalf("iter %d: BusyAt(r%d, %d) = %v, want %v (segs %v)", iter, r, at, got, want, rb.segs[r])
				}
			}
			pos += int32(rng.Intn(4))
		}
	}
}

// TestCursorSkipsManySegments jumps over many busy segments at once and
// then asks below them.
func TestCursorSkipsManySegments(t *testing.T) {
	rb := &RegBusy{segs: [][]Segment{{{2, 3}, {6, 6}, {9, 12}, {20, 20}}}}
	var c Cursor
	c.Reset(rb)
	for _, q := range []struct {
		pos, want int32
	}{{0, 2}, {19, 20}, {20, 20}, {3, 3}, {4, 6}, {21, noBusy}, {12, 12}, {21, noBusy}, {100, noBusy}} {
		if got := c.NextBusy(0, q.pos); got != q.want {
			t.Fatalf("NextBusy(%d) = %d, want %d", q.pos, got, q.want)
		}
	}
}
