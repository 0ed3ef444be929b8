// Package regalloc is the public API of this repository: a reproduction
// of "Quality and Speed in Linear-scan Register Allocation" (Traub,
// Holloway, Smith; PLDI 1998).
//
// It exposes the IR and its builder, the machine descriptions, four
// register allocators — the paper's second-chance binpacking, the
// traditional two-pass binpacking it ablates against, George–Appel
// iterated-register-coalescing graph coloring, and Poletto-style linear
// scan — the bracketing optimization passes, a VM that executes both
// unallocated and allocated code while counting dynamic instructions, and
// an allocation verifier.
//
// The pipeline mirrors §3 of the paper: dead-code elimination, register
// allocation, then a peephole pass that deletes collapsed moves. The
// entry point is the Engine, constructed once per machine and reused
// for any number of allocations:
//
//	mach := regalloc.Alpha()
//	eng, err := regalloc.New(mach,
//		regalloc.WithAlgorithm("binpack"),
//		regalloc.WithParallelism(8))
//	b := regalloc.NewBuilder(mach, 64)
//	... build IR ...
//	allocated, report, err := eng.AllocateProgram(ctx, b.Prog)
//	out, err := regalloc.Execute(allocated, mach, input)
//
// Allocators are pluggable: Register adds a named factory and
// WithAlgorithm selects it; Algorithms lists what is available. The
// free functions AllocateProc, AllocateProgram and NewAllocator remain
// as deprecated wrappers over a throwaway Engine.
package regalloc

import (
	"fmt"
	"strings"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/target"
	"repro/internal/verify"
	"repro/internal/vm"

	// Imported for their registry side effects: the built-in allocators
	// self-register under "coloring", "linearscan" and "oracle"
	// ("binpack" and "twopass" ride in with the core import above).
	_ "repro/internal/coloring"
	_ "repro/internal/linearscan"
	_ "repro/internal/oracle"
)

// Re-exported IR and machine types. These aliases are the supported way
// to name the internal types from outside the module.
type (
	// Program is a set of procedures plus global memory.
	Program = ir.Program
	// Proc is one procedure.
	Proc = ir.Proc
	// Block is a basic block.
	Block = ir.Block
	// Instr is one instruction.
	Instr = ir.Instr
	// Temp names a register candidate.
	Temp = ir.Temp
	// Operand is one instruction operand.
	Operand = ir.Operand
	// Builder builds programs.
	Builder = ir.Builder
	// ProcBuilder builds one procedure.
	ProcBuilder = ir.ProcBuilder
	// Printer renders IR textually.
	Printer = ir.Printer

	// Machine describes a register target.
	Machine = target.Machine
	// Reg is a physical register.
	Reg = target.Reg
	// Class is a register file.
	Class = target.Class

	// Result is a finished allocation with statistics.
	Result = alloc.Result
	// Stats describes what an allocation did.
	Stats = alloc.Stats
	// PhaseTimes breaks a pipeline run's cost down by phase; Stats
	// carries one and Report.PhaseStats aggregates them per batch.
	PhaseTimes = alloc.PhaseTimes
	// PhaseSample is one phase's accumulated wall time and (under
	// WithPhaseProfile) heap-allocation counters.
	PhaseSample = alloc.PhaseSample
	// Allocator is the common allocator interface.
	Allocator = alloc.Allocator
	// OwnedAllocator is the optional in-place fast path an Allocator
	// can implement to skip the engine's defensive clone and liveness
	// solve: AllocateOwned(p, lv) takes ownership of p, which the engine
	// has already Renumber()ed, together with lv, p's liveness in that
	// numbering. The allocator may read lv during the call but must not
	// retain it. An allocator still implementing the older
	// AllocateOwned(p) signature does not satisfy this interface and is
	// driven through Allocate instead.
	OwnedAllocator = alloc.OwnedAllocator
	// Liveness is the per-procedure liveness an OwnedAllocator receives:
	// live-in and live-out sets over the procedure's cross-block
	// temporaries (see ComputeLiveness).
	Liveness = dataflow.Liveness
	// PhaseProfiler is the optional interface through which the engine
	// enables per-phase allocation sampling (WithPhaseProfile).
	PhaseProfiler = alloc.PhaseProfiler

	// BinpackOptions configures the binpacking allocator (the paper's
	// §2 knobs: move optimization, early second chance, strict-linear
	// consistency, eviction heuristic).
	BinpackOptions = core.Options

	// ExecResult is a VM execution outcome.
	ExecResult = vm.Result
	// ExecConfig configures VM execution.
	ExecConfig = vm.Config
	// Counters are the VM's dynamic instruction counters.
	Counters = vm.Counters
)

// Re-exported constants and constructors.
const (
	ClassInt   = target.ClassInt
	ClassFloat = target.ClassFloat
	NoTemp     = ir.NoTemp
)

// Operand constructors.
var (
	TempOp = ir.TempOp
	RegOp  = ir.RegOp
	ImmOp  = ir.ImmOp
	FImmOp = ir.FImmOp
)

// ComputeLiveness solves liveness for p with fresh storage, in the form
// the engine hands to OwnedAllocator.AllocateOwned. p must have been
// Renumber()ed. An OwnedAllocator's Allocate can use it to clone,
// renumber and analyze its input before delegating to AllocateOwned.
func ComputeLiveness(p *Proc) *Liveness { return dataflow.Compute(p) }

// Alpha returns the Alpha-like machine used by the paper's experiments.
func Alpha() *Machine { return target.Alpha() }

// Tiny returns a small machine (useful to force spilling).
func Tiny(nInt, nFloat int) *Machine { return target.Tiny(nInt, nFloat) }

// ParseMachine parses the machine spec the command-line tools share: a
// named preset ("alpha", "x86-8", "risc-16", "wide-64", "int-heavy",
// "scratch-8", "narrow-1", "tiny") or a parameterized
// "tiny:<ints>,<floats>".
func ParseMachine(s string) (*Machine, error) {
	return target.Parse(s)
}

// MachineNames lists the named machine presets ParseMachine accepts.
func MachineNames() []string { return target.PresetNames() }

// NewBuilder returns a program builder for a machine.
func NewBuilder(m *Machine, memWords int) *Builder { return ir.NewBuilder(m, memWords) }

// Algorithm selects a register allocator.
type Algorithm int

const (
	// SecondChance is the paper's contribution: second-chance
	// binpacking (§2).
	SecondChance Algorithm = iota
	// TwoPass is traditional binpacking: whole lifetimes in a register
	// or in memory (§3.1 ablation).
	TwoPass
	// Coloring is George–Appel iterated register coalescing.
	Coloring
	// LinearScan is the Poletto-style allocator (§4 related work).
	LinearScan
)

// Name returns the registry name of the built-in algorithm, as accepted
// by WithAlgorithm ("binpack", "twopass", "coloring", "linearscan").
func (a Algorithm) Name() string {
	switch a {
	case SecondChance:
		return "binpack"
	case TwoPass:
		return "twopass"
	case Coloring:
		return "coloring"
	case LinearScan:
		return "linearscan"
	}
	return fmt.Sprintf("algorithm-%d", int(a))
}

// String returns the algorithm's human-readable description (Name is
// the registry identifier).
func (a Algorithm) String() string {
	switch a {
	case SecondChance:
		return "second-chance binpacking"
	case TwoPass:
		return "two-pass binpacking"
	case Coloring:
		return "graph coloring"
	case LinearScan:
		return "linear scan (Poletto)"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Options configure the allocation pipeline of the legacy free
// functions.
//
// Deprecated: construct an Engine with New and functional options
// instead; Options remains for the thin compatibility wrappers.
type Options struct {
	Algorithm Algorithm
	// Binpack tunes the binpacking allocator; ignored by the others.
	// The zero value is replaced by the paper's defaults.
	Binpack BinpackOptions
	// DCE runs dead-code elimination before allocation (§3 pipeline).
	DCE bool
	// Peephole deletes collapsed moves after allocation (§3 pipeline).
	Peephole bool
	// ForwardStores additionally runs local store-to-load forwarding on
	// the allocated code (the §2.4 follow-on cleanup; off by default).
	ForwardStores bool
	// Verify runs the symbolic allocation verifier on every result.
	Verify bool
}

// DefaultOptions mirrors the paper's experimental pipeline with the
// second-chance allocator and verification enabled.
//
// Deprecated: an Engine constructed with New and no options is the
// equivalent configuration.
func DefaultOptions() Options {
	return Options{
		Algorithm: SecondChance,
		Binpack:   core.DefaultOptions(),
		DCE:       true,
		Peephole:  true,
		Verify:    true,
	}
}

// engineFromOptions bridges the legacy Options struct onto an Engine.
// Unknown Algorithm values select second-chance binpacking, as the old
// switch did.
func engineFromOptions(m *Machine, o Options) (*Engine, error) {
	algo := o.Algorithm
	switch algo {
	case SecondChance, TwoPass, Coloring, LinearScan:
	default:
		algo = SecondChance
	}
	opts := []Option{
		WithAlgorithm(algo.Name()),
		WithDCE(o.DCE),
		WithPeephole(o.Peephole),
		WithForwardStores(o.ForwardStores),
		WithVerify(o.Verify),
		WithParallelism(1),
	}
	// The legacy rule: a zero Binpack means "the paper's defaults" for
	// second-chance, but is taken literally (a bare two-pass) for the
	// two-pass ablation.
	if algo == TwoPass || (algo == SecondChance && o.Binpack.SecondChance) {
		opts = append(opts, WithBinpack(o.Binpack))
	}
	return New(m, opts...)
}

// NewAllocator returns the allocator an Options selects. The returned
// allocator keeps per-instance scratch buffers: it must not run
// concurrent Allocate calls (use one instance per goroutine, which is
// what the Engine's worker pool does).
//
// Deprecated: use New with WithAlgorithm; the Engine pools allocator
// instances and reuses their scratch state.
func NewAllocator(m *Machine, o Options) Allocator {
	e, err := engineFromOptions(m, o)
	if err != nil {
		// Unreachable: engineFromOptions normalizes the algorithm.
		panic(err)
	}
	return e.factory(m)
}

// AllocateProc runs the full pipeline on one procedure and returns the
// rewritten procedure with statistics. The input is not modified.
//
// Deprecated: construct an Engine with New and call its AllocateProc;
// a fresh Engine per call re-allocates the scratch state this wrapper
// cannot reuse.
func AllocateProc(p *Proc, m *Machine, o Options) (*Result, error) {
	e, err := engineFromOptions(m, o)
	if err != nil {
		return nil, err
	}
	return e.AllocateProc(p)
}

// AllocateProgram allocates every procedure of prog and returns the
// allocated program plus per-procedure results (in prog.Procs order).
//
// Deprecated: construct an Engine with New and call its
// AllocateProgram, which adds bounded parallelism, context
// cancellation and an aggregate Report.
func AllocateProgram(prog *Program, m *Machine, o Options) (*Program, []*Result, error) {
	e, err := engineFromOptions(m, o)
	if err != nil {
		return nil, nil, err
	}
	out := ir.NewProgram(prog.MemWords)
	out.Main = prog.Main
	for addr, v := range prog.MemInit {
		out.SetMem(addr, v)
	}
	var results []*Result
	for _, p := range prog.Procs {
		res, err := e.AllocateProc(p)
		if err != nil {
			return nil, nil, err
		}
		results = append(results, res)
		out.AddProc(res.Proc)
	}
	return out, results, nil
}

// Execute runs a program (allocated or not) on the VM.
func Execute(prog *Program, m *Machine, input []byte) (*ExecResult, error) {
	return vm.Run(prog, vm.Config{Mach: m, Input: input})
}

// ExecuteParanoid runs an allocated program with caller-saved registers
// poisoned at every call, which flushes out convention violations.
func ExecuteParanoid(prog *Program, m *Machine, input []byte) (*ExecResult, error) {
	return vm.Run(prog, vm.Config{Mach: m, Input: input, Paranoid: true})
}

// Verify checks an allocated procedure against its Orig annotations.
func Verify(p *Proc, m *Machine) error { return verify.Verify(p, m) }

// ValidateProgram checks the structural invariants of a source program.
func ValidateProgram(prog *Program, m *Machine) error { return ir.ValidateProgram(prog, m) }

// DumpProc renders a procedure with machine register names and spill
// tags, for debugging and examples.
func DumpProc(p *Proc, m *Machine) string {
	return dumpWith(p, m)
}

func dumpWith(p *Proc, m *Machine) string {
	pr := &ir.Printer{Mach: m, Tags: true}
	var sb strings.Builder
	pr.WriteProc(&sb, p)
	return sb.String()
}

// Re-exported opcodes for building IR through the facade.
const (
	OpNop    = ir.Nop
	OpMov    = ir.Mov
	OpLdi    = ir.Ldi
	OpAdd    = ir.Add
	OpSub    = ir.Sub
	OpMul    = ir.Mul
	OpDiv    = ir.Div
	OpRem    = ir.Rem
	OpAnd    = ir.And
	OpOr     = ir.Or
	OpXor    = ir.Xor
	OpShl    = ir.Shl
	OpShr    = ir.Shr
	OpNeg    = ir.Neg
	OpNot    = ir.Not
	OpCmpEQ  = ir.CmpEQ
	OpCmpNE  = ir.CmpNE
	OpCmpLT  = ir.CmpLT
	OpCmpLE  = ir.CmpLE
	OpCmpGT  = ir.CmpGT
	OpCmpGE  = ir.CmpGE
	OpFMov   = ir.FMov
	OpFLdi   = ir.FLdi
	OpFAdd   = ir.FAdd
	OpFSub   = ir.FSub
	OpFMul   = ir.FMul
	OpFDiv   = ir.FDiv
	OpFNeg   = ir.FNeg
	OpFCmpEQ = ir.FCmpEQ
	OpFCmpLT = ir.FCmpLT
	OpFCmpLE = ir.FCmpLE
	OpCvtIF  = ir.CvtIF
	OpCvtFI  = ir.CvtFI
	OpLd     = ir.Ld
	OpSt     = ir.St
	OpFLd    = ir.FLd
	OpFSt    = ir.FSt
)

// IROp is an instruction opcode (re-export for facade users).
type IROp = ir.Op
