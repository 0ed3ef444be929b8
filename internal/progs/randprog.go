// Package progs provides the workloads of the experimental evaluation:
// one synthetic IR program per benchmark in Table 1 of the paper, a
// seeded random-program generator for property-based testing, and the
// synthetic compile-time "modules" of Table 3.
package progs

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/ir"
	"repro/internal/target"
)

// GenConfig parameterizes Random. The *Pct fields are statement-mix
// weights in percent; zero selects the historical defaults (noted per
// field), so the zero-extended DefaultGen keeps producing bit-identical
// programs for a given seed. The five statement weights must sum to at
// most 100 (the remainder emits fresh constants), as must If+Loop;
// Random panics on an oversubscribed mix.
type GenConfig struct {
	Seed       int64
	IntTemps   int  // integer accumulator pool (≥ 2)
	FloatTemps int  // float accumulator pool (≥ 0)
	Stmts      int  // approximate statement budget
	MaxDepth   int  // nesting depth of ifs/loops
	Calls      bool // emit intrinsic calls
	Memory     bool // emit loads/stores to a scratch array
	Helper     bool // route some work through a two-argument helper proc

	// Profile names the generator profile this config came from (set by
	// ProfileGen; informational).
	Profile string

	// Control-flow mix, per block-level statement slot (requires
	// MaxDepth > 0 to take effect).
	IfPct   int // diamond probability (default 12)
	LoopPct int // bounded-loop probability (default 10)

	// Straight-line statement mix. Whatever the five weights leave of
	// 100% emits fresh constants (live-range turnover).
	IntALUPct int // integer ALU ops (default 45)
	FloatPct  int // float ALU ops (default 15; needs FloatTemps > 0)
	CrossPct  int // int↔float conversion traffic (default 6; needs FloatTemps > 0)
	MemPct    int // loads/stores (default 10; needs Memory)
	CallPct   int // intrinsic/helper calls (default 12; needs Calls)
}

// DefaultGen returns a medium-sized configuration.
func DefaultGen(seed int64) GenConfig {
	return GenConfig{
		Seed: seed, IntTemps: 12, FloatTemps: 6, Stmts: 60,
		MaxDepth: 3, Calls: true, Memory: true, Helper: true,
	}
}

// profiles are the named workload shapes of the conformance grid. Each
// stresses a different allocator behavior: call-heavy forces values live
// across clobbering calls, loop-nest exercises depth-weighted spill
// heuristics and resolution on back edges, diamond-dense exercises
// split-point resolution, float-heavy skews pressure into the float
// file, high-pressure overflows any register file, and straightline is
// the fpppp-like basic-block giant with no control flow at all.
var profiles = map[string]func(seed int64) GenConfig{
	"default": DefaultGen,
	"call-heavy": func(seed int64) GenConfig {
		c := DefaultGen(seed)
		c.IntALUPct, c.CallPct, c.MemPct = 25, 45, 6
		c.IfPct, c.LoopPct = 10, 8
		return c
	},
	"loop-nest": func(seed int64) GenConfig {
		c := DefaultGen(seed)
		c.MaxDepth, c.Stmts = 4, 50
		c.IfPct, c.LoopPct = 6, 30
		return c
	},
	"diamond-dense": func(seed int64) GenConfig {
		c := DefaultGen(seed)
		c.MaxDepth, c.Stmts = 4, 70
		c.IfPct, c.LoopPct = 35, 4
		return c
	},
	"float-heavy": func(seed int64) GenConfig {
		c := DefaultGen(seed)
		c.IntTemps, c.FloatTemps = 6, 16
		c.IntALUPct, c.FloatPct, c.CrossPct = 20, 45, 12
		return c
	},
	"high-pressure": func(seed int64) GenConfig {
		c := DefaultGen(seed)
		c.IntTemps, c.FloatTemps, c.Stmts = 28, 14, 90
		c.MaxDepth = 2
		return c
	},
	"straightline": func(seed int64) GenConfig {
		c := DefaultGen(seed)
		c.IntTemps, c.FloatTemps, c.Stmts = 16, 8, 80
		c.MaxDepth = 0
		c.Calls = false
		return c
	},
}

// Profiles returns the named generator profile names, sorted.
func Profiles() []string {
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ProfileGen returns the GenConfig of a named profile for a seed.
func ProfileGen(name string, seed int64) (GenConfig, error) {
	mk, ok := profiles[name]
	if !ok {
		return GenConfig{}, fmt.Errorf("progs: unknown generator profile %q (have %v)", name, Profiles())
	}
	c := mk(seed)
	c.Profile = name
	return c, nil
}

// fuzzMachines is the machine axis the fuzz targets built on FuzzGen
// cycle through: every named preset plus two tiny spill-forcers.
var fuzzMachines = []string{"alpha", "x86-8", "risc-16", "wide-64", "int-heavy", "tiny", "tiny:4,3"}

// FuzzGen decodes raw fuzz arguments into a machine and a bounded
// GenConfig: the shared recipe of the fuzz targets that build random
// programs, so one corpus entry means the same program to each.
func FuzzGen(seed int64, machSel, intTemps, floatTemps, stmts, depth uint8, calls, memory, helper bool) (*target.Machine, GenConfig) {
	mach, err := target.Parse(fuzzMachines[int(machSel)%len(fuzzMachines)])
	if err != nil {
		// fuzzMachines is a fixed list; an unresolvable entry is a bug
		// in this file, not an interesting fuzz input.
		panic(err)
	}
	cfg := GenConfig{
		Seed:       seed,
		IntTemps:   2 + int(intTemps%27),
		FloatTemps: int(floatTemps % 13),
		Stmts:      1 + int(stmts)%120,
		MaxDepth:   int(depth) % 4,
		Calls:      calls,
		Memory:     memory,
		Helper:     helper,
	}
	return mach, cfg
}

// pctOr returns v, or def when v is zero (the historical weight).
func pctOr(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

// Random builds a deterministic random program: structured control flow
// (sequences, if/else diamonds, bounded while loops), integer and float
// arithmetic over a fixed pool of temporaries, optional memory traffic
// and intrinsic/helper calls, ending by printing a checksum of every
// temporary. All programs terminate: loops run a fixed 2–4 iterations.
func Random(mach *target.Machine, cfg GenConfig) *ir.Program {
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := ir.NewBuilder(mach, 256)

	// Convention-hostile machines may not fit every generator feature:
	// the two-argument helper needs two integer parameter registers
	// (narrow-1 has a single shared one), so it degrades to intrinsic
	// calls there. The statement mix rolls the same RNG sequence either
	// way, so machines with full conventions are bit-identical to the
	// historical output.
	if cfg.Helper && len(mach.ParamRegs(target.ClassInt)) < 2 {
		cfg.Helper = false
	}

	if cfg.Helper {
		buildHelper(b)
	}

	pb := b.NewProc("main")
	g := &gen{rng: rng, cfg: cfg, b: b, pb: pb}
	g.initWeights()
	for i := 0; i < cfg.IntTemps; i++ {
		t := pb.IntTemp(fmt.Sprintf("x%d", i))
		pb.Ldi(t, int64(rng.Intn(200)-100))
		g.ints = append(g.ints, t)
	}
	for i := 0; i < cfg.FloatTemps; i++ {
		t := pb.FloatTemp(fmt.Sprintf("f%d", i))
		pb.FLdi(t, float64(rng.Intn(64))/4+0.5)
		g.floats = append(g.floats, t)
	}
	g.block(cfg.Stmts, cfg.MaxDepth)

	// Checksum everything so no computation is dead.
	sum := pb.IntTemp("sum")
	pb.Ldi(sum, 0)
	for _, t := range g.ints {
		pb.Op2(ir.Xor, sum, ir.TempOp(sum), ir.TempOp(t))
		pb.Op2(ir.Add, sum, ir.TempOp(sum), ir.TempOp(t))
	}
	for _, t := range g.floats {
		ci := pb.IntTemp("")
		// Clamp floats into a stable integer range first.
		cl := pb.FloatTemp("")
		pb.Op2(ir.FMul, cl, ir.TempOp(t), ir.FImmOp(0.001))
		pb.Op1(ir.CvtFI, ci, ir.TempOp(cl))
		pb.Op2(ir.Xor, sum, ir.TempOp(sum), ir.TempOp(ci))
	}
	pb.Call("puti", ir.NoTemp, ir.TempOp(sum))
	pb.Ret(sum)
	return b.Prog
}

// buildHelper emits a small pure helper procedure main can call.
func buildHelper(b *ir.Builder) {
	pb := b.NewProc("mix", target.ClassInt, target.ClassInt)
	x, y := pb.P.Params[0], pb.P.Params[1]
	r := pb.IntTemp("r")
	t := pb.IntTemp("t")
	pb.Op2(ir.Xor, r, ir.TempOp(x), ir.TempOp(y))
	pb.Op2(ir.Shl, t, ir.TempOp(x), ir.ImmOp(3))
	pb.Op2(ir.Add, r, ir.TempOp(r), ir.TempOp(t))
	pb.Op2(ir.Shr, t, ir.TempOp(y), ir.ImmOp(2))
	pb.Op2(ir.Sub, r, ir.TempOp(r), ir.TempOp(t))
	pb.Ret(r)
}

type gen struct {
	rng *rand.Rand
	cfg GenConfig
	b   *ir.Builder
	pb  *ir.ProcBuilder

	// Cumulative statement-mix and control-flow thresholds over a
	// 100-sided roll, derived from the cfg weights by initWeights.
	intTo, floatTo, crossTo, memTo, callTo int
	ifTo, loopTo                           int

	ints   []ir.Temp
	floats []ir.Temp
	loopID int
}

// initWeights resolves the cfg's weight knobs (zero = historical
// default) into cumulative roll thresholds, panicking when a mix is
// oversubscribed: past 100%, later statement bands would silently
// become unreachable rather than rare.
func (g *gen) initWeights() {
	g.intTo = pctOr(g.cfg.IntALUPct, 45)
	g.floatTo = g.intTo + pctOr(g.cfg.FloatPct, 15)
	g.crossTo = g.floatTo + pctOr(g.cfg.CrossPct, 6)
	g.memTo = g.crossTo + pctOr(g.cfg.MemPct, 10)
	g.callTo = g.memTo + pctOr(g.cfg.CallPct, 12)
	if g.callTo > 100 {
		panic(fmt.Sprintf("progs: statement weights sum to %d%% > 100%% (IntALU+Float+Cross+Mem+Call)", g.callTo))
	}
	g.ifTo = pctOr(g.cfg.IfPct, 12)
	g.loopTo = g.ifTo + pctOr(g.cfg.LoopPct, 10)
	if g.loopTo > 100 {
		panic(fmt.Sprintf("progs: control-flow weights sum to %d%% > 100%% (If+Loop)", g.loopTo))
	}
}

func (g *gen) randInt() ir.Temp   { return g.ints[g.rng.Intn(len(g.ints))] }
func (g *gen) randFloat() ir.Temp { return g.floats[g.rng.Intn(len(g.floats))] }

// operand returns a random integer operand: usually a temp, sometimes an
// immediate.
func (g *gen) operand() ir.Operand {
	if g.rng.Intn(4) == 0 {
		return ir.ImmOp(int64(g.rng.Intn(128) - 64))
	}
	return ir.TempOp(g.randInt())
}

// block emits roughly budget statements at the given remaining nesting
// depth.
func (g *gen) block(budget, depth int) {
	for budget > 0 {
		roll := g.rng.Intn(100)
		switch {
		case depth > 0 && roll < g.ifTo:
			used := g.ifElse(budget/2, depth-1)
			budget -= used + 1
		case depth > 0 && roll < g.loopTo:
			used := g.loop(budget/2, depth-1)
			budget -= used + 2
		default:
			g.stmt()
			budget--
		}
	}
}

// stmt emits one straight-line statement.
func (g *gen) stmt() {
	pb := g.pb
	roll := g.rng.Intn(100)
	switch {
	case roll < g.intTo: // integer ALU
		ops := []ir.Op{ir.Add, ir.Sub, ir.Mul, ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr,
			ir.Div, ir.Rem, ir.CmpLT, ir.CmpEQ, ir.CmpGE}
		op := ops[g.rng.Intn(len(ops))]
		src := g.operand()
		if op == ir.Shl || op == ir.Shr {
			src = ir.ImmOp(int64(g.rng.Intn(8)))
		}
		pb.Op2(op, g.randInt(), ir.TempOp(g.randInt()), src)
	case roll < g.floatTo && len(g.floats) > 0: // float ALU
		ops := []ir.Op{ir.FAdd, ir.FSub, ir.FMul}
		op := ops[g.rng.Intn(len(ops))]
		pb.Op2(op, g.randFloat(), ir.TempOp(g.randFloat()), ir.TempOp(g.randFloat()))
	case roll < g.crossTo && len(g.floats) > 0: // cross-file traffic
		if g.rng.Intn(2) == 0 {
			pb.Op1(ir.CvtIF, g.randFloat(), ir.TempOp(g.randInt()))
		} else {
			f := g.randFloat()
			cl := pb.FloatTemp("")
			pb.Op2(ir.FMul, cl, ir.TempOp(f), ir.FImmOp(0.0001))
			pb.Op1(ir.CvtFI, g.randInt(), ir.TempOp(cl))
		}
	case roll < g.memTo && g.cfg.Memory: // memory traffic in a private window
		addr := int64(g.rng.Intn(64))
		if g.rng.Intn(2) == 0 {
			pb.St(ir.TempOp(g.randInt()), ir.ImmOp(0), addr)
		} else {
			pb.Ld(g.randInt(), ir.ImmOp(0), addr)
		}
	case roll < g.callTo && g.cfg.Calls:
		switch g.rng.Intn(3) {
		case 0:
			pb.Call("getc", g.randInt())
		case 1:
			if g.cfg.Helper {
				pb.Call("mix", g.randInt(), ir.TempOp(g.randInt()), ir.TempOp(g.randInt()))
			} else {
				pb.Call("getc", g.randInt())
			}
		case 2:
			if len(g.floats) > 0 {
				d := g.randFloat()
				a := g.randFloat()
				abs := g.pb.FloatTemp("")
				pb.Op2(ir.FMul, abs, ir.TempOp(a), ir.TempOp(a)) // square: non-negative
				pb.Call("fsqrt", d, ir.TempOp(abs))
			} else {
				pb.Call("getc", g.randInt())
			}
		}
	default: // fresh constants keep live ranges turning over
		pb.Ldi(g.randInt(), int64(g.rng.Intn(1000)))
	}
}

// ifElse emits a diamond.
func (g *gen) ifElse(budget, depth int) int {
	pb := g.pb
	cond := pb.IntTemp("")
	pb.Op2(ir.CmpLT, cond, ir.TempOp(g.randInt()), g.operand())
	thenB := pb.Block("")
	elseB := pb.Block("")
	join := pb.Block("")
	pb.Br(ir.TempOp(cond), thenB, elseB)

	half := budget / 2
	pb.StartBlock(thenB)
	g.block(max(1, half), depth)
	pb.Jmp(join)
	pb.StartBlock(elseB)
	g.block(max(1, budget-half), depth)
	pb.Jmp(join)
	pb.StartBlock(join)
	return budget
}

// loop emits a bounded counting loop (2–4 iterations).
func (g *gen) loop(budget, depth int) int {
	pb := g.pb
	g.loopID++
	i := pb.IntTemp(fmt.Sprintf("lc%d", g.loopID))
	n := int64(2 + g.rng.Intn(3))
	pb.Ldi(i, 0)
	head := pb.Block("")
	body := pb.Block("")
	exit := pb.Block("")
	pb.Jmp(head)

	pb.StartBlock(head)
	c := pb.IntTemp("")
	pb.Op2(ir.CmpLT, c, ir.TempOp(i), ir.ImmOp(n))
	pb.Br(ir.TempOp(c), body, exit)

	pb.StartBlock(body)
	g.block(max(1, budget), depth)
	pb.Op2(ir.Add, i, ir.TempOp(i), ir.ImmOp(1))
	pb.Jmp(head)

	pb.StartBlock(exit)
	return budget
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
