package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if !s.Empty() {
		t.Fatal("new set not empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("Contains(%d) = false after Add", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("Contains(64) after Remove")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
	s.Clear()
	if !s.Empty() {
		t.Fatal("not empty after Clear")
	}
}

func TestContainsOutOfRange(t *testing.T) {
	s := New(10)
	if s.Contains(-1) || s.Contains(10) || s.Contains(100) {
		t.Fatal("Contains out of range should be false")
	}
}

func TestAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of range did not panic")
		}
	}()
	New(4).Add(4)
}

func TestUnionSubtractIntersect(t *testing.T) {
	a := New(100)
	b := New(100)
	for i := 0; i < 100; i += 2 {
		a.Add(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Add(i)
	}
	u := a.Clone()
	if !u.Union(b) {
		t.Fatal("Union reported no change")
	}
	if u.Union(b) {
		t.Fatal("second Union reported change")
	}
	for i := 0; i < 100; i++ {
		want := i%2 == 0 || i%3 == 0
		if u.Contains(i) != want {
			t.Fatalf("union Contains(%d) = %v, want %v", i, u.Contains(i), want)
		}
	}
	d := a.Clone()
	d.Subtract(b)
	for i := 0; i < 100; i++ {
		want := i%2 == 0 && i%3 != 0
		if d.Contains(i) != want {
			t.Fatalf("diff Contains(%d) = %v, want %v", i, d.Contains(i), want)
		}
	}
	x := a.Clone()
	if !x.Intersect(b) {
		t.Fatal("Intersect reported no change")
	}
	if x.Intersect(b) {
		t.Fatal("second Intersect reported change")
	}
	for i := 0; i < 100; i++ {
		want := i%6 == 0
		if x.Contains(i) != want {
			t.Fatalf("intersect Contains(%d) = %v, want %v", i, x.Contains(i), want)
		}
	}
}

func TestEqualCopyClone(t *testing.T) {
	a := New(70)
	a.Add(3)
	a.Add(69)
	b := New(70)
	if a.Equal(b) {
		t.Fatal("unequal sets reported equal")
	}
	b.Copy(a)
	if !a.Equal(b) {
		t.Fatal("Copy did not produce equal set")
	}
	c := a.Clone()
	c.Remove(3)
	if a.Equal(c) {
		t.Fatal("Clone aliases original")
	}
	if a.Equal(New(71)) {
		t.Fatal("different-size sets reported equal")
	}
}

func TestForEachMembersOrder(t *testing.T) {
	s := New(200)
	want := []int{5, 64, 65, 128, 199}
	for _, i := range want {
		s.Add(i)
	}
	got := s.Members()
	if len(got) != len(want) {
		t.Fatalf("Members len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if s.String() != "{5 64 65 128 199}" {
		t.Fatalf("String = %q", s.String())
	}
}

// TestQuickAgainstModel checks the property that set operations agree
// with a map-based model.
func TestQuickAgainstModel(t *testing.T) {
	f := func(adds []uint8, removes []uint8) bool {
		s := New(256)
		model := map[int]bool{}
		for _, a := range adds {
			s.Add(int(a))
			model[int(a)] = true
		}
		for _, r := range removes {
			s.Remove(int(r))
			delete(model, int(r))
		}
		if s.Count() != len(model) {
			return false
		}
		for i := 0; i < 256; i++ {
			if s.Contains(i) != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAlgebra checks that union is commutative and idempotent, and
// that subtract then union restores a superset relationship.
func TestQuickAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randSet := func() *Set {
		s := New(128)
		for i := 0; i < 40; i++ {
			s.Add(rng.Intn(128))
		}
		return s
	}
	for iter := 0; iter < 200; iter++ {
		a, b := randSet(), randSet()
		ab := a.Clone()
		ab.Union(b)
		ba := b.Clone()
		ba.Union(a)
		if !ab.Equal(ba) {
			t.Fatal("union not commutative")
		}
		ab2 := ab.Clone()
		ab2.Union(b)
		if !ab2.Equal(ab) {
			t.Fatal("union not idempotent")
		}
		d := a.Clone()
		d.Subtract(b)
		d.Intersect(b)
		if !d.Empty() {
			t.Fatal("(a-b) ∩ b not empty")
		}
	}
}

func TestFillWordBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s := New(n)
		s.Fill()
		if s.Count() != n {
			t.Errorf("Fill(n=%d): Count = %d", n, s.Count())
		}
		if n > 0 && !s.Contains(n-1) {
			t.Errorf("Fill(n=%d): missing %d", n, n-1)
		}
		if s.Contains(n) {
			t.Errorf("Fill(n=%d): contains out-of-universe %d", n, n)
		}
	}
}

func TestRankWordBoundaries(t *testing.T) {
	s := New(130)
	members := []int{0, 5, 63, 64, 65, 127, 128, 129}
	for _, i := range members {
		s.Add(i)
	}
	for q := 0; q <= 131; q++ {
		want := 0
		for _, m := range members {
			if m < q {
				want++
			}
		}
		if got := s.Rank(q); got != want {
			t.Fatalf("Rank(%d) = %d, want %d", q, got, want)
		}
	}
	if got := s.Rank(-3); got != 0 {
		t.Fatalf("Rank(-3) = %d", got)
	}
}

func TestRankMatchesForEachOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		s := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				s.Add(i)
			}
		}
		k := 0
		s.ForEach(func(i int) {
			if got := s.Rank(i); got != k {
				t.Fatalf("n=%d: member %d visited at position %d but Rank=%d", n, i, k, got)
			}
			k++
		})
	}
}

func TestCountRangeAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(200)
		s := New(n)
		members := map[int]bool{}
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				s.Add(i)
				members[i] = true
			}
		}
		for q := 0; q < 30; q++ {
			lo := rng.Intn(n+4) - 2
			hi := rng.Intn(n+4) - 2
			want := 0
			for m := range members {
				if m >= lo && m < hi {
					want++
				}
			}
			if got := s.CountRange(lo, hi); got != want {
				t.Fatalf("n=%d CountRange(%d,%d) = %d, want %d", n, lo, hi, got, want)
			}
		}
		// The incremental-rank identity the resolve cursor relies on.
		prevGi, prevRank := 0, 0
		s.ForEach(func(i int) {
			r := prevRank + s.CountRange(prevGi, i)
			if r != s.Rank(i) {
				t.Fatalf("n=%d cursor rank %d != Rank(%d)=%d", n, r, i, s.Rank(i))
			}
			prevGi, prevRank = i, r
		})
	}
}

// TestResetReuse pins the growth/reuse contract the pooled scratch
// arenas depend on: Reset reshapes in place when capacity allows and
// never leaks members from the previous shape.
func TestResetReuse(t *testing.T) {
	s := New(64)
	s.Add(0)
	s.Add(63)
	s.Reset(10)
	if s.Len() != 10 || !s.Empty() {
		t.Fatalf("after Reset(10): Len=%d Empty=%v", s.Len(), s.Empty())
	}
	s.Add(9)
	// Growing within the same word capacity must not resurrect bit 63.
	s.Reset(64)
	if !s.Empty() {
		t.Fatalf("after Reset(64): stale members %v", s.Members())
	}
	// Growing beyond capacity allocates fresh zeroed words.
	s.Add(1)
	s.Reset(300)
	if s.Len() != 300 || !s.Empty() {
		t.Fatalf("after Reset(300): Len=%d Empty=%v", s.Len(), s.Empty())
	}
	s.Add(299)
	if !s.Contains(299) || s.Count() != 1 {
		t.Fatal("set unusable after growth")
	}
	// Shrinking to the empty universe is legal.
	s.Reset(0)
	if s.Len() != 0 || !s.Empty() {
		t.Fatal("Reset(0) broken")
	}
}

func TestSlabIndependentSets(t *testing.T) {
	sl := NewSlab(3, 65) // 65 forces a two-word stride
	if sl.Count() != 3 {
		t.Fatalf("Count = %d", sl.Count())
	}
	sl.Set(0).Add(64)
	sl.Set(1).Add(0)
	if sl.Set(2).Count() != 0 {
		t.Fatal("neighbor set polluted")
	}
	if !sl.Set(0).Contains(64) || sl.Set(0).Count() != 1 {
		t.Fatal("set 0 lost its member")
	}
	if sl.Set(1).Contains(64) {
		t.Fatal("adjacent words shared between sets")
	}
	// Sets from a slab interoperate with standalone sets.
	other := New(65)
	other.Add(64)
	if !sl.Set(0).Equal(other) {
		t.Fatal("slab set not equal to equivalent standalone set")
	}

	// Reset reshapes and clears; reuse must not leak previous members.
	sl.Reset(5, 64)
	for i := 0; i < 5; i++ {
		if !sl.Set(i).Empty() || sl.Set(i).Len() != 64 {
			t.Fatalf("set %d not reset: %v", i, sl.Set(i).Members())
		}
	}
	// Zero-universe and zero-count shapes are legal.
	sl.Reset(0, 64)
	if sl.Count() != 0 {
		t.Fatal("Reset(0, 64) kept sets")
	}
	sl.Reset(2, 0)
	if sl.Count() != 2 || sl.Set(1).Len() != 0 {
		t.Fatal("Reset(2, 0) broken")
	}
}

func TestMatrix(t *testing.T) {
	m := NewMatrix(50)
	pairs := [][2]int{{0, 0}, {1, 0}, {49, 48}, {10, 20}, {20, 10}, {33, 33}}
	for _, p := range pairs {
		m.Set(p[0], p[1])
	}
	if !m.Has(0, 0) || !m.Has(0, 1) || !m.Has(48, 49) || !m.Has(20, 10) || !m.Has(10, 20) {
		t.Fatal("Has missing recorded pair")
	}
	if m.Has(5, 6) {
		t.Fatal("Has reports unrecorded pair")
	}
	// {0,0},{1,0},{49,48},{10,20} (dup),{33,33} => 5 distinct cells
	if m.Count() != 5 {
		t.Fatalf("Count = %d, want 5", m.Count())
	}
	m.Reset()
	if m.Count() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestMatrixSymmetryQuick(t *testing.T) {
	f := func(a, b uint8) bool {
		m := NewMatrix(256)
		m.Set(int(a), int(b))
		return m.Has(int(b), int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestUnionDiffAgainstModel checks s ∪= t − u against the copy,
// subtract and union it replaces, including the change report, over
// universes that end mid-word as well as on a word boundary.
func TestUnionDiffAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128, 191, 200} {
		randSet := func() *Set {
			s := New(n)
			for i := 0; i < n/2; i++ {
				s.Add(rng.Intn(n))
			}
			return s
		}
		for iter := 0; iter < 100; iter++ {
			s, tt, u := randSet(), randSet(), randSet()
			want := tt.Clone()
			want.Subtract(u)
			want.Union(s)
			got := s.Clone()
			changed := got.UnionDiff(tt, u)
			if !got.Equal(want) {
				t.Fatalf("n=%d: %v ∪ (%v − %v) = %v, want %v", n, s, tt, u, got, want)
			}
			if changed != !want.Equal(s) {
				t.Fatalf("n=%d: UnionDiff reported changed=%v, set went %v → %v", n, changed, s, got)
			}
			if got.UnionDiff(tt, u) {
				t.Fatalf("n=%d: repeated UnionDiff reported a change", n)
			}
		}
	}
}

func TestUnionDiffEdgeCases(t *testing.T) {
	s, tt, u := New(70), New(70), New(70)
	tt.Add(69)
	tt.Add(3)
	u.Add(3)
	if !s.UnionDiff(tt, u) || !s.Contains(69) || s.Contains(3) {
		t.Fatalf("got %v, want {69}", s)
	}
	// A member of s stays even when u holds it: only t's bits are masked.
	s.Add(3)
	if s.UnionDiff(tt, u) || !s.Contains(3) {
		t.Fatalf("got %v, want {3 69} unchanged", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	s.UnionDiff(tt, New(64))
}

// TestIntersectsDiffAgainstNaive checks the word-wise s ∩ (t − u) ≠ ∅
// predicate against a member-by-member loop, over universes that end
// mid-word as well as on a word boundary, with sparse and dense sets.
func TestIntersectsDiffAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n <= 200; n++ {
		for iter := 0; iter < 20; iter++ {
			randSet := func() *Set {
				s := New(n)
				if n == 0 {
					return s
				}
				for i, k := 0, rng.Intn(n+1); i < k; i++ {
					s.Add(rng.Intn(n))
				}
				return s
			}
			s, tt, u := randSet(), randSet(), randSet()
			if iter%4 == 0 && n > 0 {
				// Force a near miss: t − u loses exactly the common bits.
				u = s.Clone()
			}
			want := false
			for i := 0; i < n; i++ {
				if s.Contains(i) && tt.Contains(i) && !u.Contains(i) {
					want = true
					break
				}
			}
			if got := s.IntersectsDiff(tt, u); got != want {
				t.Fatalf("n=%d: %v ∩ (%v − %v) non-empty = %v, want %v", n, s, tt, u, got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	New(70).IntersectsDiff(New(70), New(64))
}
