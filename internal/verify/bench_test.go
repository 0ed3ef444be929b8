package verify_test

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/progs"
	"repro/internal/target"
	"repro/internal/verify"
)

// allocated runs the engine's default pass ordering up to verification
// (DCE, then second-chance binpacking) over every procedure of prog.
func allocated(b *testing.B, prog *ir.Program, mach *target.Machine) []*ir.Proc {
	f, _ := alloc.Lookup("binpack")
	var out []*ir.Proc
	for _, p := range prog.Procs {
		in := p.Clone()
		opt.DeadCodeElim(in)
		res, err := alloc.AllocateClone(f(mach), mach, in, nil)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, res.Proc)
	}
	return out
}

// BenchmarkVerify times the verifier on an allocated Table 3 module
// (one enormous straight-line procedure) and on a batch of 64 generator
// programs, one per corpus profile in turn (the stream of many small
// procedures). One op verifies every procedure of the input once.
func BenchmarkVerify(b *testing.B) {
	mach := target.Alpha()
	inputs := []struct {
		name string
		prog func() []*ir.Program
	}{
		{"twldrv.f", func() []*ir.Program {
			return []*ir.Program{progs.BuildModule(mach, "twldrv.f", 1, 6218, 2).Prog}
		}},
		{"corpus64", func() []*ir.Program {
			var out []*ir.Program
			profiles := progs.Profiles()
			for i := 0; i < 64; i++ {
				cfg, _ := progs.ProfileGen(profiles[i%len(profiles)], int64(1+i))
				out = append(out, progs.Random(mach, cfg))
			}
			return out
		}},
	}
	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			var procs []*ir.Proc
			for _, prog := range in.prog() {
				procs = append(procs, allocated(b, prog, mach)...)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range procs {
					if err := verify.Verify(p, mach); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
