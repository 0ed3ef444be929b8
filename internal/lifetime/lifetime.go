// Package lifetime computes temporary lifetimes, lifetime holes, and
// reference tables in the linear (layout) position space, plus the busy
// intervals of physical registers.
//
// These are the §2.1–§2.2 concepts of the paper: a temporary's lifetime
// runs from the first position where it is live in the static linear
// order to the last, and may contain holes — sub-intervals "during which
// no useful value is maintained". Liveness at each position is the
// CFG-accurate dataflow fact; only the ordering is linear. Registers are
// "bins" whose own availability is described the same way: a register is
// free exactly inside its lifetime holes, which are bounded by explicit
// physical-register references (calling-convention moves, call argument
// and return registers) and by call sites clobbering caller-saved
// registers (§2.5).
package lifetime

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/scratch"
	"repro/internal/target"
)

// Segment is a maximal run of positions [Start, End] (inclusive) where a
// temporary is live.
type Segment struct {
	Start, End int32
}

// Ref is one reference to a temporary.
type Ref struct {
	Pos   int32
	Use   bool // the instruction reads the temporary
	Def   bool // the instruction writes it
	Depth int32
}

// Interval is the lifetime of one temporary: its live segments (sorted,
// disjoint, maximal) and its references (sorted by position).
type Interval struct {
	Temp     ir.Temp
	Segments []Segment
	Refs     []Ref
}

// Empty reports whether the temporary is never live (dead or unused).
func (iv *Interval) Empty() bool { return len(iv.Segments) == 0 }

// Start returns the first live position.
func (iv *Interval) Start() int32 { return iv.Segments[0].Start }

// End returns the last live position.
func (iv *Interval) End() int32 { return iv.Segments[len(iv.Segments)-1].End }

// LiveAt reports whether the temporary is live at pos.
func (iv *Interval) LiveAt(pos int32) bool {
	i := sort.Search(len(iv.Segments), func(i int) bool { return iv.Segments[i].End >= pos })
	return i < len(iv.Segments) && iv.Segments[i].Start <= pos
}

// InHoleAt reports whether pos falls in a lifetime hole: inside the
// overall lifetime but between live segments. A temporary evicted while
// in a hole needs no spill store — its next reference must be a write
// (§2.3).
func (iv *Interval) InHoleAt(pos int32) bool {
	if iv.Empty() {
		return false
	}
	return pos > iv.Start() && pos < iv.End() && !iv.LiveAt(pos)
}

// NextRefIdx returns the index of the first reference at or after pos, or
// len(Refs).
func (iv *Interval) NextRefIdx(pos int32) int {
	return sort.Search(len(iv.Refs), func(i int) bool { return iv.Refs[i].Pos >= pos })
}

// NextRef returns the first reference at or after pos, or nil.
func (iv *Interval) NextRef(pos int32) *Ref {
	i := iv.NextRefIdx(pos)
	if i >= len(iv.Refs) {
		return nil
	}
	return &iv.Refs[i]
}

// NextRefAfter returns the first reference strictly after pos, or nil.
func (iv *Interval) NextRefAfter(pos int32) *Ref {
	i := sort.Search(len(iv.Refs), func(i int) bool { return iv.Refs[i].Pos > pos })
	if i >= len(iv.Refs) {
		return nil
	}
	return &iv.Refs[i]
}

// String renders the interval for diagnostics, e.g. "[3,9] hole(5,7)".
func (iv *Interval) String() string {
	if iv.Empty() {
		return "[]"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "[%d,%d]", iv.Start(), iv.End())
	for i := 0; i+1 < len(iv.Segments); i++ {
		fmt.Fprintf(&sb, " hole(%d,%d)", iv.Segments[i].End, iv.Segments[i+1].Start)
	}
	return sb.String()
}

// Table holds every temporary's interval, indexed by temp.
type Table struct {
	Intervals []*Interval
	// NumPos is the total number of positions (instructions).
	NumPos int
}

// Scratch holds the reusable working storage of lifetime analysis. The
// interval table a Compute returns is owned by the scratch: per-interval
// segment and reference arrays keep their capacity across calls, so
// repeated analyses on one allocator instance (the engine's batch hot
// path) build thousand-candidate tables without allocating. The zero
// value is ready to use; one scratch serves one goroutine, and a
// returned Table is valid until the next Compute on the same scratch.
type Scratch struct {
	tab        Table
	backing    []Interval
	openEnd    []int32
	ubuf, dbuf []ir.Temp
}

// Compute builds the lifetime table with a single reverse pass over the
// linearized procedure, as §2.1 describes. The procedure must be
// Renumber()ed and lv must be its liveness.
func Compute(p *ir.Proc, lv *dataflow.Liveness) *Table {
	return new(Scratch).Compute(p, lv)
}

// Compute builds the lifetime table into the scratch's pooled storage.
func (sc *Scratch) Compute(p *ir.Proc, lv *dataflow.Liveness) *Table {
	nt := p.NumTemps()
	tab := &sc.tab
	tab.NumPos = p.NumInstrs()
	// One backing array instead of one allocation per interval, reused
	// across calls: intervals beyond nt keep their (stale) contents so
	// their Segments/Refs capacity survives for the next large
	// procedure — deliberately trading bounded retention for
	// steady-state zero allocation, the opposite of the throwaway path.
	if cap(sc.backing) < nt {
		sc.backing = make([]Interval, nt)
	} else {
		sc.backing = sc.backing[:nt]
	}
	if cap(tab.Intervals) < nt {
		tab.Intervals = make([]*Interval, nt)
	} else {
		tab.Intervals = tab.Intervals[:nt]
	}
	for t := 0; t < nt; t++ {
		iv := &sc.backing[t]
		iv.Temp = ir.Temp(t)
		iv.Segments = iv.Segments[:0]
		iv.Refs = iv.Refs[:0]
		tab.Intervals[t] = iv
	}

	// openEnd[t] >= 0 means a live segment of t is open, ending (in
	// forward terms) at that position.
	openEnd := scratch.Grow(sc.openEnd, nt)
	sc.openEnd = openEnd
	for i := range openEnd {
		openEnd[i] = -1
	}
	// Segments are appended in reverse order and reversed at the end.
	ubuf, dbuf := sc.ubuf, sc.dbuf

	for bi := len(p.Blocks) - 1; bi >= 0; bi-- {
		b := p.Blocks[bi]
		if len(b.Instrs) == 0 {
			continue
		}
		blockStart := b.Instrs[0].Pos
		blockEnd := b.Instrs[len(b.Instrs)-1].Pos

		// Open a segment for everything live out of the block.
		lv.LiveOut[b.Order].ForEach(func(gi int) {
			t := lv.Globals[gi]
			openEnd[t] = blockEnd
		})

		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			pos := in.Pos
			// Defs close the segment (the value is born here).
			dbuf = in.DefTemps(dbuf[:0])
			for _, t := range dbuf {
				iv := tab.Intervals[t]
				if openEnd[t] >= 0 {
					appendSegRev(iv, Segment{pos, openEnd[t]})
					openEnd[t] = -1
				} else {
					// Dead def: the value is never read. Keep a
					// point segment so the allocator still has a
					// register to write into.
					appendSegRev(iv, Segment{pos, pos})
				}
			}
			// Uses open a segment ending here.
			ubuf = in.UseTemps(ubuf[:0])
			for _, t := range ubuf {
				if openEnd[t] < 0 {
					openEnd[t] = pos
				}
			}
		}

		// Close segments still open at block top. Whether the segment
		// continues into the linearly previous block is decided when
		// that block opens segments for its live-out set; adjacent
		// segments merge in appendSegRev.
		for t := 0; t < nt; t++ {
			if openEnd[t] >= 0 {
				appendSegRev(tab.Intervals[t], Segment{blockStart, openEnd[t]})
				openEnd[t] = -1
			}
		}
	}

	// Segments were collected in reverse; restore forward order.
	for _, iv := range tab.Intervals {
		for i, j := 0, len(iv.Segments)-1; i < j; i, j = i+1, j-1 {
			iv.Segments[i], iv.Segments[j] = iv.Segments[j], iv.Segments[i]
		}
	}

	// Reference table, forward.
	for _, b := range p.Blocks {
		depth := int32(b.Depth)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			pos := in.Pos
			ubuf = in.UseTemps(ubuf[:0])
			dbuf = in.DefTemps(dbuf[:0])
			for _, t := range ubuf {
				addRef(tab.Intervals[t], pos, true, false, depth)
			}
			for _, t := range dbuf {
				addRef(tab.Intervals[t], pos, false, true, depth)
			}
		}
	}
	sc.ubuf, sc.dbuf = ubuf, dbuf
	return tab
}

// appendSegRev appends a segment during the reverse sweep, merging with
// the previously appended (later-in-program) segment when they touch or
// overlap.
func appendSegRev(iv *Interval, s Segment) {
	if n := len(iv.Segments); n > 0 {
		prev := &iv.Segments[n-1] // later in program order
		if prev.Start <= s.End+1 {
			if s.Start < prev.Start {
				prev.Start = s.Start
			}
			if s.End > prev.End {
				prev.End = s.End
			}
			return
		}
	}
	iv.Segments = append(iv.Segments, s)
}

func addRef(iv *Interval, pos int32, use, def bool, depth int32) {
	if n := len(iv.Refs); n > 0 && iv.Refs[n-1].Pos == pos {
		iv.Refs[n-1].Use = iv.Refs[n-1].Use || use
		iv.Refs[n-1].Def = iv.Refs[n-1].Def || def
		return
	}
	iv.Refs = append(iv.Refs, Ref{Pos: pos, Use: use, Def: def, Depth: depth})
}

// RegBusy records, per physical register, the sorted positions where the
// register is unavailable to the allocator: explicit convention
// references and (for caller-saved registers) call sites. The complement
// of these intervals is the register's lifetime holes in the sense of
// §2.5.
type RegBusy struct {
	mach *target.Machine
	segs [][]Segment // indexed by Reg
}

// RegScratch holds the reusable working storage of ComputeRegBusy. As
// with Scratch, the RegBusy a Compute returns is owned by the scratch
// and valid until the next Compute on it; per-register segment arrays
// keep their capacity across calls. The zero value is ready to use.
type RegScratch struct {
	rb          RegBusy
	callerSaved []target.Reg
	openEnd     []int32
	ubuf, dbuf  []target.Reg
}

// ComputeRegBusy scans the procedure once and builds the busy table.
// Physical registers are block-local (validated builder invariant), so a
// per-block backward scan suffices; parameter registers in the entry
// block are busy from the block top.
func ComputeRegBusy(p *ir.Proc, mach *target.Machine) *RegBusy {
	return new(RegScratch).Compute(p, mach)
}

// Compute builds the busy table into the scratch's pooled storage.
func (sc *RegScratch) Compute(p *ir.Proc, mach *target.Machine) *RegBusy {
	rb := &sc.rb
	rb.mach = mach
	nr := mach.NumRegs()
	if cap(rb.segs) < nr {
		rb.segs = make([][]Segment, nr)
	} else {
		rb.segs = rb.segs[:nr]
	}
	for r := range rb.segs {
		rb.segs[r] = rb.segs[r][:0]
	}
	callerSaved := sc.callerSaved[:0]
	for c := target.Class(0); c < target.NumClasses; c++ {
		callerSaved = append(callerSaved, mach.CallerSavedRegs(c)...)
	}
	sc.callerSaved = callerSaved
	openEnd := scratch.Grow(sc.openEnd, nr)
	sc.openEnd = openEnd
	ubuf, dbuf := sc.ubuf, sc.dbuf

	for bi := len(p.Blocks) - 1; bi >= 0; bi-- {
		b := p.Blocks[bi]
		for i := range openEnd {
			openEnd[i] = -1
		}
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			pos := in.Pos
			if in.Op == ir.Call {
				// A call clobbers every caller-saved register: each is
				// busy at exactly the call position, ending any hole a
				// temporary might be squatting in (§2.5: "When a
				// register's lifetime hole expires ... we evict").
				for _, r := range callerSaved {
					if openEnd[r] < 0 {
						rb.addRev(r, Segment{pos, pos})
					}
				}
			}
			dbuf = in.DefRegs(dbuf[:0])
			for _, r := range dbuf {
				if openEnd[r] >= 0 {
					rb.addRev(r, Segment{pos, openEnd[r]})
					openEnd[r] = -1
				} else {
					rb.addRev(r, Segment{pos, pos})
				}
			}
			ubuf = in.UseRegs(ubuf[:0])
			for _, r := range ubuf {
				if openEnd[r] < 0 {
					openEnd[r] = pos
				}
			}
		}
		for r := range openEnd {
			if openEnd[r] >= 0 {
				// Live into block top: only legal for parameter
				// registers in the entry block.
				rb.addRev(target.Reg(r), Segment{b.Instrs[0].Pos, openEnd[r]})
				openEnd[r] = -1
			}
		}
	}
	for r := range rb.segs {
		s := rb.segs[r]
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	sc.ubuf, sc.dbuf = ubuf, dbuf
	return rb
}

func (rb *RegBusy) addRev(r target.Reg, s Segment) {
	segs := rb.segs[r]
	if n := len(segs); n > 0 {
		prev := &segs[n-1]
		if prev.Start <= s.End+1 {
			if s.Start < prev.Start {
				prev.Start = s.Start
			}
			if s.End > prev.End {
				prev.End = s.End
			}
			return
		}
	}
	rb.segs[r] = append(segs, s)
}

// BusyAt reports whether r is unavailable at pos.
func (rb *RegBusy) BusyAt(r target.Reg, pos int32) bool {
	segs := rb.segs[r]
	i := sort.Search(len(segs), func(i int) bool { return segs[i].End >= pos })
	return i < len(segs) && segs[i].Start <= pos
}

// NextBusy returns the first busy position of r at or after pos, or a
// value greater than any position if r stays free.
func (rb *RegBusy) NextBusy(r target.Reg, pos int32) int32 {
	segs := rb.segs[r]
	i := sort.Search(len(segs), func(i int) bool { return segs[i].End >= pos })
	if i >= len(segs) {
		return int32(1) << 30
	}
	if segs[i].Start <= pos {
		return pos // busy right now
	}
	return segs[i].Start
}

// FreeThrough reports whether r has no busy position in [from, to].
func (rb *RegBusy) FreeThrough(r target.Reg, from, to int32) bool {
	return rb.NextBusy(r, from) > to
}

// Cursor answers RegBusy queries for a sweep whose positions never
// decrease, as the allocation scan's are. Per register it keeps the
// index of the first busy segment that may still matter and that
// segment's bounds, so a query is a compare against the cached bounds
// and the index only moves forward: a monotone sweep costs amortized
// O(1) per query instead of a binary search. A query below the cached
// window falls back to the RegBusy binary search and leaves the cursor
// where it was. Call Reset before the first query.
type Cursor struct {
	rb   *RegBusy
	regs []regCursor
}

// regCursor is one register's cursor state.
type regCursor struct {
	idx        int32 // first segment ending at or after floor
	floor      int32 // smallest position the cached segment answers for
	start, end int32 // bounds of segment idx (start = next busy), or noBusy
}

// noBusy is NextBusy's "stays free" answer: above every position.
const noBusy = int32(1) << 30

// Reset points the cursor at rb, before its first position.
func (c *Cursor) Reset(rb *RegBusy) {
	c.rb = rb
	c.regs = scratch.Grow(c.regs, len(rb.segs))
	for r := range c.regs {
		c.regs[r] = regCursor{floor: -1 << 31}
		c.load(r)
	}
}

// load caches the bounds of register r's segment idx.
func (c *Cursor) load(r int) {
	rc, segs := &c.regs[r], c.rb.segs[r]
	if int(rc.idx) < len(segs) {
		rc.start, rc.end = segs[rc.idx].Start, segs[rc.idx].End
	} else {
		rc.start, rc.end = noBusy, noBusy
	}
}

// NextBusy is RegBusy.NextBusy.
func (c *Cursor) NextBusy(r target.Reg, pos int32) int32 {
	rc := &c.regs[r]
	if pos < rc.floor {
		return c.rb.NextBusy(r, pos)
	}
	if pos > rc.end {
		segs := c.rb.segs[r]
		i := rc.idx
		for int(i) < len(segs) && segs[i].End < pos {
			i++
		}
		rc.idx, rc.floor = i, segs[i-1].End+1
		c.load(int(r))
	}
	if rc.start <= pos {
		return pos // busy right now
	}
	return rc.start
}

// BusyAt is RegBusy.BusyAt.
func (c *Cursor) BusyAt(r target.Reg, pos int32) bool {
	return c.NextBusy(r, pos) == pos
}
