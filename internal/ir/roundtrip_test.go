package ir_test

import (
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/irbin"
	"repro/internal/progs"
	"repro/internal/target"
)

func printed(prog *ir.Program, mach *target.Machine) string {
	var sb strings.Builder
	(&ir.Printer{Mach: mach}).WriteProgram(&sb, prog)
	return sb.String()
}

// TestTextAndBinaryFormsAllocateAlike pins that the text and binary
// forms of one program are the same program: a generated program
// printed and parsed back, and the same program encoded and decoded,
// must agree on every procedure's NumSlots (0 when no slot operand is
// named) and allocate to byte-identical output, since both forms share
// one cache key.
func TestTextAndBinaryFormsAllocateAlike(t *testing.T) {
	for _, machName := range []string{"alpha", "x86-8"} {
		mach, err := target.Parse(machName)
		if err != nil {
			t.Fatal(err)
		}
		a, err := experiments.Resolve("binpack", mach)
		if err != nil {
			t.Fatal(err)
		}
		for _, profile := range progs.Profiles() {
			cfg, err := progs.ProfileGen(profile, 5)
			if err != nil {
				t.Fatal(err)
			}
			prog := progs.Random(mach, cfg)
			fromText, err := ir.ParseProgramString(printed(prog, mach), mach)
			if err != nil {
				t.Fatalf("%s/%s: parse: %v", machName, profile, err)
			}
			fromBin, err := irbin.DecodeProgram(irbin.EncodeProgram(prog))
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", machName, profile, err)
			}
			for i, p := range prog.Procs {
				ts, bs := fromText.Procs[i].NumSlots, fromBin.Procs[i].NumSlots
				if ts != p.NumSlots || bs != p.NumSlots {
					t.Errorf("%s/%s: proc %s: NumSlots generated %d, parsed %d, decoded %d",
						machName, profile, p.Name, p.NumSlots, ts, bs)
				}
			}
			textOut, _, err := experiments.Pipeline(fromText, mach, a, false)
			if err != nil {
				t.Fatal(err)
			}
			binOut, _, err := experiments.Pipeline(fromBin, mach, a, false)
			if err != nil {
				t.Fatal(err)
			}
			if pt, pb := printed(textOut, mach), printed(binOut, mach); pt != pb {
				t.Errorf("%s/%s: text and binary forms allocate differently:\ntext:\n%s\nbinary:\n%s",
					machName, profile, pt, pb)
			}
		}
	}
}
