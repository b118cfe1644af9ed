package program

import (
	"strings"
	"testing"

	"dynaspam/internal/isa"
)

func TestBuilderLabelsResolve(t *testing.T) {
	b := NewBuilder("loop")
	b.Li(isa.R(1), 0)
	b.Li(isa.R(2), 10)
	b.Label("head")
	b.Addi(isa.R(1), isa.R(1), 1)
	b.Blt(isa.R(1), isa.R(2), "head")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if p.Len() != 5 {
		t.Fatalf("Len = %d, want 5", p.Len())
	}
	br := p.At(3)
	if br.Op != isa.OpBlt || br.Target != 2 {
		t.Errorf("branch = %v, want blt target 2", br)
	}
}

func TestBuilderForwardLabel(t *testing.T) {
	b := NewBuilder("fwd")
	b.Li(isa.R(1), 1)
	b.Beq(isa.R(1), isa.R(0), "done")
	b.Addi(isa.R(1), isa.R(1), 1)
	b.Label("done")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := p.At(1).Target; got != 3 {
		t.Errorf("forward target = %d, want 3", got)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("bad")
	b.Jmp("nowhere")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("Build succeeded with undefined label")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder("dup")
	b.Label("x")
	b.Nop()
	b.Label("x")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("Build succeeded with duplicate label")
	}
}

func TestValidateRequiresHalt(t *testing.T) {
	b := NewBuilder("nohalt")
	b.Li(isa.R(1), 1)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "halt") {
		t.Errorf("Build err = %v, want halt complaint", err)
	}
}

func TestValidateBranchRange(t *testing.T) {
	p := &Program{Name: "r", Insts: []isa.Inst{
		{Op: isa.OpJmp, Target: 99, Dest: isa.RegInvalid, Src1: isa.RegInvalid, Src2: isa.RegInvalid},
		{Op: isa.OpHalt, Dest: isa.RegInvalid, Src1: isa.RegInvalid, Src2: isa.RegInvalid},
	}}
	const want = "program r: branch target out of range: jmp @99 @0"
	if err := p.Validate(); err == nil || err.Error() != want {
		t.Errorf("Validate() = %v, want %q", err, want)
	}
}

func TestValidateRegisterDiscipline(t *testing.T) {
	tests := []struct {
		name string
		in   isa.Inst
		want string // full error text; empty means valid
	}{
		{"int add int regs", isa.Inst{Op: isa.OpAdd, Dest: isa.R(1), Src1: isa.R(2), Src2: isa.R(3)}, ""},
		{"int add fp dest", isa.Inst{Op: isa.OpAdd, Dest: isa.F(1), Src1: isa.R(2), Src2: isa.R(3)},
			"program d: integer op writes FP register: add f1, r2, r3 @0"},
		{"int add fp src", isa.Inst{Op: isa.OpAdd, Dest: isa.R(1), Src1: isa.F(2), Src2: isa.R(3)},
			"program d: integer op reads FP register: add r1, f2, r3 @0"},
		{"fadd fp regs", isa.Inst{Op: isa.OpFAdd, Dest: isa.F(1), Src1: isa.F(2), Src2: isa.F(3)}, ""},
		{"fadd int dest", isa.Inst{Op: isa.OpFAdd, Dest: isa.R(1), Src1: isa.F(2), Src2: isa.F(3)},
			"program d: fadd destination register file mismatch: fadd r1, f2, f3 @0"},
		{"fslt int dest fp srcs", isa.Inst{Op: isa.OpFSlt, Dest: isa.R(1), Src1: isa.F(2), Src2: isa.F(3)}, ""},
		{"itof fp dest int src", isa.Inst{Op: isa.OpItoF, Dest: isa.F(1), Src1: isa.R(2), Src2: isa.RegInvalid}, ""},
		{"ftoi int dest fp src", isa.Inst{Op: isa.OpFtoI, Dest: isa.R(1), Src1: isa.F(2), Src2: isa.RegInvalid}, ""},
		{"fld fp dest int base", isa.Inst{Op: isa.OpFLd, Dest: isa.F(1), Src1: isa.R(2), Src2: isa.RegInvalid}, ""},
		{"fld int dest", isa.Inst{Op: isa.OpFLd, Dest: isa.R(1), Src1: isa.R(2), Src2: isa.RegInvalid},
			"program d: fld destination must be FP register: fld r1, 0(r2) @0"},
		{"fld fp base", isa.Inst{Op: isa.OpFLd, Dest: isa.F(1), Src1: isa.F(2), Src2: isa.RegInvalid},
			"program d: fld address register must be integer: fld f1, 0(f2) @0"},
		{"fst ok", isa.Inst{Op: isa.OpFSt, Dest: isa.RegInvalid, Src1: isa.R(2), Src2: isa.F(3)}, ""},
		{"fst int data", isa.Inst{Op: isa.OpFSt, Dest: isa.RegInvalid, Src1: isa.R(2), Src2: isa.R(3)},
			"program d: fst data register must be FP: fst r3, 0(r2) @0"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := &Program{Name: "d", Insts: []isa.Inst{tc.in,
				{Op: isa.OpHalt, Dest: isa.RegInvalid, Src1: isa.RegInvalid, Src2: isa.RegInvalid}}}
			err := p.Validate()
			if tc.want == "" && err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
			if tc.want != "" && (err == nil || err.Error() != tc.want) {
				t.Errorf("Validate() = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestDisassemble(t *testing.T) {
	b := NewBuilder("dis")
	b.Li(isa.R(1), 5)
	b.Halt()
	p := b.MustBuild()
	dis := p.Disassemble()
	if !strings.Contains(dis, "0: li r1, 5") || !strings.Contains(dis, "1: halt") {
		t.Errorf("Disassemble output unexpected:\n%s", dis)
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on invalid program")
		}
	}()
	NewBuilder("bad").Jmp("missing").MustBuild()
}

func TestBuilderChaining(t *testing.T) {
	p := NewBuilder("chain").
		Li(isa.R(1), 1).
		Li(isa.R(2), 2).
		Add(isa.R(3), isa.R(1), isa.R(2)).
		Sub(isa.R(4), isa.R(3), isa.R(1)).
		Mul(isa.R(5), isa.R(3), isa.R(4)).
		St(isa.R(0), 0, isa.R(5)).
		Ld(isa.R(6), isa.R(0), 0).
		Halt().
		MustBuild()
	if p.Len() != 8 {
		t.Errorf("Len = %d, want 8", p.Len())
	}
	if got := p.At(5); !got.Op.IsStore() || got.Src2 != isa.R(5) {
		t.Errorf("store = %v", got)
	}
}
