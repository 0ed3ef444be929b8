// Package bitset provides dense bit vectors sized for dataflow analysis.
//
// The allocators and dataflow solvers in this repository manipulate sets of
// temporaries whose universe size is known up front, so a fixed-width dense
// representation is both the fastest and the simplest choice. The API is
// deliberately small: the operations below are exactly the ones the
// iterative bit-vector dataflow of Traub et al. §2.4 needs (union,
// difference, copy, equality) plus the set operations liveness analysis
// needs.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dense bit vector. The zero value is an empty set of capacity 0;
// use New to create a set with a fixed universe size.
type Set struct {
	words []uint64
	n     int // universe size in bits
}

// New returns an empty set over a universe of n elements (0..n-1).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative size")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the universe size the set was created with.
func (s *Set) Len() int { return s.n }

// Reset reshapes s to an empty set over a universe of n elements. The
// backing array is reused whenever its capacity allows, so steady-state
// reuse of one Set across analyses of similar size performs no
// allocation. This is the growth/reuse primitive the pooled dataflow and
// allocator scratch arenas are built on.
func (s *Set) Reset(n int) {
	if n < 0 {
		panic("bitset: negative size")
	}
	nw := (n + wordBits - 1) / wordBits
	if cap(s.words) < nw {
		s.words = make([]uint64, nw)
	} else {
		s.words = s.words[:nw]
		clear(s.words)
	}
	s.n = n
}

// Rank returns the number of members of s strictly less than i. Together
// with ForEach's ascending order this lets dense side arrays be indexed
// by set membership: the k-th member visited has rank k.
func (s *Set) Rank(i int) int {
	if i <= 0 {
		return 0
	}
	if i > s.n {
		i = s.n
	}
	wi := i / wordBits
	c := 0
	for _, w := range s.words[:wi] {
		c += bits.OnesCount64(w)
	}
	if b := i % wordBits; b != 0 {
		c += bits.OnesCount64(s.words[wi] & (1<<uint(b) - 1))
	}
	return c
}

// Contains reports whether i is a member of s.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Add inserts i into s.
func (s *Set) Add(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: Add(%d) out of range [0,%d)", i, s.n))
	}
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove deletes i from s.
func (s *Set) Remove(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: Remove(%d) out of range [0,%d)", i, s.n))
	}
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Clear empties the set.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill makes s the full universe {0..n-1} (the top element of a
// must-analysis lattice).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if r := s.n % wordBits; r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = 1<<uint(r) - 1
	}
}

// Copy overwrites s with the contents of t. The sets must have equal size.
func (s *Set) Copy(t *Set) {
	s.check(t)
	copy(s.words, t.words)
}

// Clone returns a fresh set with the same contents as s.
func (s *Set) Clone() *Set {
	c := New(s.n)
	copy(c.words, s.words)
	return c
}

// Union sets s = s ∪ t and reports whether s changed.
func (s *Set) Union(t *Set) bool {
	s.check(t)
	changed := false
	for i, w := range t.words {
		old := s.words[i]
		nw := old | w
		if nw != old {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// UnionDiff sets s = s ∪ (t − u) and reports whether s changed. It is
// the transfer function of a backward union problem applied in place:
// In(b) grows by Out(b) − Kill(b) without a temporary copy.
func (s *Set) UnionDiff(t, u *Set) bool {
	s.check(t)
	s.check(u)
	sw, uw := s.words[:len(t.words)], u.words[:len(t.words)]
	changed := false
	for i, w := range t.words {
		old := sw[i]
		nw := old | w&^uw[i]
		if nw != old {
			sw[i] = nw
			changed = true
		}
	}
	return changed
}

// Intersect sets s = s ∩ t and reports whether s changed.
func (s *Set) Intersect(t *Set) bool {
	s.check(t)
	changed := false
	for i, w := range t.words {
		old := s.words[i]
		nw := old & w
		if nw != old {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Subtract sets s = s − t.
func (s *Set) Subtract(t *Set) {
	s.check(t)
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// Equal reports whether s and t contain exactly the same members.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range t.words {
		if s.words[i] != w {
			return false
		}
	}
	return true
}

// IntersectsDiff reports whether s ∩ (t − u) has a member, word by
// word and without materializing the set.
func (s *Set) IntersectsDiff(t, u *Set) bool {
	s.check(t)
	s.check(u)
	tw, uw := t.words[:len(s.words)], u.words[:len(s.words)]
	for i, w := range s.words {
		if w&tw[i]&^uw[i] != 0 {
			return true
		}
	}
	return false
}

// Empty reports whether the set has no members.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of members.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// ForEach calls f for every member in ascending order.
func (s *Set) ForEach(f func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*wordBits + b)
			w &^= 1 << uint(b)
		}
	}
}

// Members returns the elements in ascending order.
func (s *Set) Members() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// String renders the set as "{a b c}" for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}

// CountRange returns the number of members of s in [lo, hi). Together
// with Rank it supports incremental rank cursors: for ascending queries
// g0 < g1, Rank(g1) = Rank(g0) + CountRange(g0, g1), which turns a
// sequence of rank lookups into one overall pass over the words.
func (s *Set) CountRange(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > s.n {
		hi = s.n
	}
	if lo >= hi {
		return 0
	}
	lw, hw := lo/wordBits, hi/wordBits
	loMask := ^uint64(0) << uint(lo%wordBits)
	if lw == hw {
		hiMask := uint64(1)<<uint(hi%wordBits) - 1
		return bits.OnesCount64(s.words[lw] & loMask & hiMask)
	}
	c := bits.OnesCount64(s.words[lw] & loMask)
	for i := lw + 1; i < hw; i++ {
		c += bits.OnesCount64(s.words[i])
	}
	if r := hi % wordBits; r != 0 {
		c += bits.OnesCount64(s.words[hw] & (1<<uint(r) - 1))
	}
	return c
}

// Slab carves many equally-sized Sets out of a single backing array. A
// dataflow problem over nb blocks needs O(nb) sets of one universe size;
// allocating them individually is the dominant allocation cost of the
// analysis, while a slab costs two allocations — and zero once it is
// reused, because Reset reshapes the existing backing in place. Sets
// handed out by a slab remain valid until the next Reset; they must not
// be retained beyond it. The zero value is an empty slab ready for Reset.
type Slab struct {
	sets  []Set
	words []uint64
}

// NewSlab returns a slab of count empty sets, each over a universe of n
// elements.
func NewSlab(count, n int) *Slab {
	sl := &Slab{}
	sl.Reset(count, n)
	return sl
}

// Reset reshapes the slab to count empty sets of universe n each,
// reusing the backing storage whenever capacity allows.
func (sl *Slab) Reset(count, n int) {
	if count < 0 || n < 0 {
		panic("bitset: negative slab shape")
	}
	per := (n + wordBits - 1) / wordBits
	total := count * per
	if cap(sl.words) < total {
		sl.words = make([]uint64, total)
	} else {
		sl.words = sl.words[:total]
		clear(sl.words)
	}
	if cap(sl.sets) < count {
		sl.sets = make([]Set, count)
	} else {
		sl.sets = sl.sets[:count]
	}
	for i := range sl.sets {
		sl.sets[i] = Set{words: sl.words[i*per : (i+1)*per : (i+1)*per], n: n}
	}
}

// Set returns the i-th set of the slab.
func (sl *Slab) Set(i int) *Set { return &sl.sets[i] }

// Count returns the number of sets the slab currently holds.
func (sl *Slab) Count() int { return len(sl.sets) }

func (s *Set) check(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: size mismatch %d vs %d", s.n, t.n))
	}
}

// Matrix is a lower-triangular bit matrix recording a symmetric relation
// over n elements. This is the adjacency representation the paper's
// coloring implementation uses instead of a hash table ("We use a
// lower-triangular bit matrix ... to record the adjacency relation of the
// interference graph", §3).
type Matrix struct {
	bits []uint64
	n    int
}

// NewMatrix returns an empty symmetric relation over n elements.
func NewMatrix(n int) *Matrix {
	if n < 0 {
		panic("bitset: negative matrix size")
	}
	// Row i has i+1 entries (lower triangle including the diagonal).
	total := n * (n + 1) / 2
	return &Matrix{bits: make([]uint64, (total+wordBits-1)/wordBits), n: n}
}

func (m *Matrix) index(i, j int) int {
	if i < j {
		i, j = j, i
	}
	if i >= m.n || j < 0 {
		panic(fmt.Sprintf("bitset: matrix index (%d,%d) out of range n=%d", i, j, m.n))
	}
	return i*(i+1)/2 + j
}

// Set records the symmetric pair (i, j).
func (m *Matrix) Set(i, j int) {
	k := m.index(i, j)
	m.bits[k/wordBits] |= 1 << uint(k%wordBits)
}

// Has reports whether the pair (i, j) has been recorded.
func (m *Matrix) Has(i, j int) bool {
	k := m.index(i, j)
	return m.bits[k/wordBits]&(1<<uint(k%wordBits)) != 0
}

// Count returns the number of recorded pairs (counting (i,i) once).
func (m *Matrix) Count() int {
	c := 0
	for _, w := range m.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset clears every recorded pair.
func (m *Matrix) Reset() {
	for i := range m.bits {
		m.bits[i] = 0
	}
}
