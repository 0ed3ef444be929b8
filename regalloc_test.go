package regalloc_test

import (
	"bytes"
	"context"
	"testing"

	regalloc "repro"
	"repro/internal/progs"
)

func TestFacadePipelineAllAlgorithms(t *testing.T) {
	mach := regalloc.Alpha()
	prog := progs.Named("espresso").Build(mach, 1)
	want, err := regalloc.Execute(prog, mach, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"binpack", "twopass", "coloring", "linearscan"} {
		eng, err := regalloc.New(mach, regalloc.WithAlgorithm(algo))
		if err != nil {
			t.Fatal(err)
		}
		allocated, rep, err := eng.AllocateProgram(context.Background(), prog)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(rep.Procs) != len(prog.Procs) {
			t.Fatalf("%v: %d results for %d procs", algo, len(rep.Procs), len(prog.Procs))
		}
		got, err := regalloc.ExecuteParanoid(allocated, mach, nil)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !bytes.Equal(got.Output, want.Output) || got.RetValue != want.RetValue {
			t.Fatalf("%v: output mismatch", algo)
		}
	}
}

func TestFacadeOptionsPlumbing(t *testing.T) {
	mach := regalloc.Tiny(6, 3)
	prog := progs.Random(mach, progs.DefaultGen(99))
	eng, err := regalloc.New(mach, regalloc.WithForwardStores(true))
	if err != nil {
		t.Fatal(err)
	}
	allocated, _, err := eng.AllocateProgram(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	want, err := regalloc.Execute(prog, mach, []byte("xyz"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := regalloc.ExecuteParanoid(allocated, mach, []byte("xyz"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Output, want.Output) {
		t.Fatal("ForwardStores pipeline broke semantics")
	}
}

func TestFacadeBuilderQuickstartShape(t *testing.T) {
	mach := regalloc.Alpha()
	b := regalloc.NewBuilder(mach, 8)
	pb := b.NewProc("main")
	x := pb.IntTemp("x")
	pb.Ldi(x, 21)
	pb.Op2(regalloc.OpAdd, x, regalloc.TempOp(x), regalloc.TempOp(x))
	pb.Ret(x)
	if err := regalloc.ValidateProgram(b.Prog, mach); err != nil {
		t.Fatal(err)
	}
	eng, err := regalloc.New(mach)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.AllocateProc(pb.P)
	if err != nil {
		t.Fatal(err)
	}
	if err := regalloc.Verify(res.Proc, mach); err != nil {
		t.Fatal(err)
	}
	if s := regalloc.DumpProc(res.Proc, mach); len(s) == 0 {
		t.Fatal("empty dump")
	}
	allocated := regalloc.NewBuilder(mach, 8).Prog
	allocated.AddProc(res.Proc)
	out, err := regalloc.ExecuteParanoid(allocated, mach, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.RetValue != 42 {
		t.Fatalf("ret = %d", out.RetValue)
	}
}
