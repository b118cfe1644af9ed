// Package program provides the container and builder for programs in the
// dynaspam ISA.
//
// A Program is a flat instruction sequence with resolved branch targets.
// Builder offers a tiny assembler-like API with labels, which the workload
// kernels use to express their inner loops.
package program

import (
	"fmt"
	"strings"

	"dynaspam/internal/isa"
)

// Program is an immutable sequence of instructions with metadata.
type Program struct {
	Name  string
	Insts []isa.Inst
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Insts) }

// At returns the instruction at pc. It panics if pc is out of range.
func (p *Program) At(pc int) isa.Inst { return p.Insts[pc] }

// Valid reports whether pc is a valid instruction address.
func (p *Program) Valid(pc int) bool { return pc >= 0 && pc < len(p.Insts) }

// Disassemble renders the whole program, one instruction per line.
func (p *Program) Disassemble() string {
	var b strings.Builder
	for i, inst := range p.Insts {
		fmt.Fprintf(&b, "%4d: %s\n", i, inst)
	}
	return b.String()
}

// Validate checks structural invariants: branch targets in range, register
// file discipline (integer ops name integer registers, FP ops name FP
// registers), and a terminating halt reachable in the instruction stream.
func (p *Program) Validate() error {
	haltSeen := false
	for pc, in := range p.Insts {
		// Format the instruction only on failure: every workload lookup
		// validates a program, so the success path must not allocate.
		if in.Op.IsBranch() {
			if in.Target < 0 || in.Target >= len(p.Insts) {
				return fmt.Errorf("program %s: branch target out of range: %s @%d", p.Name, in, pc)
			}
		}
		if in.Op == isa.OpHalt {
			haltSeen = true
		}
		if err := checkRegs(in); err != nil {
			return fmt.Errorf("program %s: %v: %s @%d", p.Name, err, in, pc)
		}
	}
	if !haltSeen {
		return fmt.Errorf("program %s: no halt instruction", p.Name)
	}
	return nil
}

// checkRegs verifies register-file discipline for a single instruction.
func checkRegs(in isa.Inst) error {
	wantFPDest := false
	wantFPSrc := false
	switch in.Op {
	case isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv, isa.OpFMin, isa.OpFMax,
		isa.OpFAbs, isa.OpFNeg, isa.OpFSqt, isa.OpFExp, isa.OpFLi, isa.OpFMov:
		wantFPDest, wantFPSrc = true, true
	case isa.OpFSlt:
		wantFPDest, wantFPSrc = false, true
	case isa.OpItoF:
		wantFPDest, wantFPSrc = true, false
	case isa.OpFtoI:
		wantFPDest, wantFPSrc = false, true
	case isa.OpFLd:
		// address register is integer, dest is FP
		if in.Dest.Valid() && !in.Dest.IsFP() {
			return fmt.Errorf("fld destination must be FP register")
		}
		if in.Src1.Valid() && in.Src1.IsFP() {
			return fmt.Errorf("fld address register must be integer")
		}
		return nil
	case isa.OpFSt:
		if in.Src1.Valid() && in.Src1.IsFP() {
			return fmt.Errorf("fst address register must be integer")
		}
		if in.Src2.Valid() && !in.Src2.IsFP() {
			return fmt.Errorf("fst data register must be FP")
		}
		return nil
	default:
		// Pure integer op: no FP registers anywhere.
		if in.Dest.Valid() && in.Dest.IsFP() && in.Op.HasDest() {
			return fmt.Errorf("integer op writes FP register")
		}
		srcs, n := in.Sources()
		for i := 0; i < n; i++ {
			if srcs[i].IsFP() {
				return fmt.Errorf("integer op reads FP register")
			}
		}
		return nil
	}
	if in.Op.HasDest() && in.Dest.Valid() {
		if wantFPDest != in.Dest.IsFP() {
			return fmt.Errorf("%s destination register file mismatch", in.Op)
		}
	}
	srcs, n := in.Sources()
	for i := 0; i < n; i++ {
		if wantFPSrc != srcs[i].IsFP() {
			return fmt.Errorf("%s source register file mismatch", in.Op)
		}
	}
	return nil
}
