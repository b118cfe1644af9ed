// Package interp is the functional reference interpreter for the dynaspam
// ISA. It executes a program sequentially with no timing model and serves as
// the golden model: the out-of-order simulator and the spatial fabric must
// produce exactly the same architectural state (registers, memory, dynamic
// branch outcomes) for every program.
//
// Beyond verification, the interpreter doubles as the cheap dynamic
// profiler behind the evaluation: with TraceBranches enabled it records the
// full branch outcome stream, which experiments.SampleTraces replays to
// extract every hot trace shape a workload produces (the §2.2 mapping
// ablation is built on this). An Interp is self-contained — one memory, one
// register file, no globals — so many can run concurrently.
package interp

import (
	"fmt"

	"dynaspam/internal/isa"
	"dynaspam/internal/mem"
	"dynaspam/internal/program"
)

// State is the architectural state of the reference machine.
type State struct {
	IntRegs [isa.NumIntRegs]int64
	FPRegs  [isa.NumFPRegs]float64
	Mem     *mem.Memory
	PC      int
	Halted  bool

	// DynInsts counts executed instructions, including the halt.
	DynInsts uint64
	// Branches records every executed branch as (pc, taken) in order when
	// TraceBranches is set.
	TraceBranches bool
	Branches      []BranchOutcome
}

// BranchOutcome is one dynamic branch execution.
type BranchOutcome struct {
	PC    int
	Taken bool
}

// New returns a fresh state executing from pc 0 with the given memory.
// Passing nil memory allocates an empty one.
func New(m *mem.Memory) *State {
	if m == nil {
		m = mem.New()
	}
	return &State{Mem: m}
}

// ReadReg returns the architectural value of r as raw int64 (FP values are
// returned via ReadFP).
func (s *State) ReadReg(r isa.Reg) int64 {
	if r.IsFP() {
		panic("interp: ReadReg on FP register " + r.String())
	}
	if r == isa.RegZero {
		return 0
	}
	return s.IntRegs[r]
}

// ReadFP returns the architectural value of FP register r.
func (s *State) ReadFP(r isa.Reg) float64 {
	if !r.IsFP() {
		panic("interp: ReadFP on integer register " + r.String())
	}
	return s.FPRegs[int(r)-isa.FPBase]
}

// WriteReg sets integer register r. Writes to r0 are discarded.
func (s *State) WriteReg(r isa.Reg, v int64) {
	if r.IsFP() {
		panic("interp: WriteReg on FP register " + r.String())
	}
	if r == isa.RegZero {
		return
	}
	s.IntRegs[r] = v
}

// WriteFP sets FP register r.
func (s *State) WriteFP(r isa.Reg, v float64) {
	if !r.IsFP() {
		panic("interp: WriteFP on integer register " + r.String())
	}
	s.FPRegs[int(r)-isa.FPBase] = v
}

// Step executes one instruction of p. It returns an error if PC is out of
// range. Stepping a halted machine is a no-op.
func (s *State) Step(p *program.Program) error {
	if s.Halted {
		return nil
	}
	if !p.Valid(s.PC) {
		return fmt.Errorf("interp: pc %d out of range in %s", s.PC, p.Name)
	}
	in := &p.Insts[s.PC]
	s.DynInsts++
	next := s.PC + 1
	switch {
	case in.Op == isa.OpHalt:
		s.Halted = true
	case in.Op.IsBranch():
		var taken bool
		if in.Op == isa.OpJmp {
			taken = true
		} else {
			taken = isa.BranchTaken(in.Op, s.ReadReg(in.Src1), s.ReadReg(in.Src2))
		}
		if s.TraceBranches {
			s.Branches = append(s.Branches, BranchOutcome{PC: s.PC, Taken: taken})
		}
		if taken {
			next = in.Target
		}
	case in.Op == isa.OpLd:
		addr := uint64(s.ReadReg(in.Src1) + in.Imm)
		s.WriteReg(in.Dest, s.Mem.ReadInt(addr))
	case in.Op == isa.OpFLd:
		addr := uint64(s.ReadReg(in.Src1) + in.Imm)
		s.WriteFP(in.Dest, s.Mem.ReadFloat(addr))
	case in.Op == isa.OpSt:
		addr := uint64(s.ReadReg(in.Src1) + in.Imm)
		s.Mem.WriteInt(addr, s.ReadReg(in.Src2))
	case in.Op == isa.OpFSt:
		addr := uint64(s.ReadReg(in.Src1) + in.Imm)
		s.Mem.WriteFloat(addr, s.ReadFP(in.Src2))
	case in.Op == isa.OpFSlt:
		v := int64(0)
		if s.ReadFP(in.Src1) < s.ReadFP(in.Src2) {
			v = 1
		}
		s.WriteReg(in.Dest, v)
	case in.Op == isa.OpItoF:
		s.WriteFP(in.Dest, float64(s.ReadReg(in.Src1)))
	case in.Op == isa.OpFtoI:
		s.WriteReg(in.Dest, int64(s.ReadFP(in.Src1)))
	case in.Op.Class() == isa.ClassFPALU || in.Op.Class() == isa.ClassFPMul || in.Op.Class() == isa.ClassFPDiv:
		var a, b float64
		if in.Op.NumSrcs() >= 1 {
			a = s.ReadFP(in.Src1)
		}
		if in.Op.NumSrcs() >= 2 {
			b = s.ReadFP(in.Src2)
		}
		s.WriteFP(in.Dest, isa.FPOp(in.Op, a, b, in.FImm))
	case in.Op == isa.OpNop:
		// nothing
	default:
		var a, b int64
		if in.Op.NumSrcs() >= 1 {
			a = s.ReadReg(in.Src1)
		}
		if in.Op.NumSrcs() >= 2 {
			b = s.ReadReg(in.Src2)
		}
		s.WriteReg(in.Dest, isa.IntOp(in.Op, a, b, in.Imm))
	}
	s.PC = next
	return nil
}

// Run executes p until halt or maxInsts instructions, whichever comes first.
// It returns an error on out-of-range PC or when the budget is exhausted
// before halting.
func (s *State) Run(p *program.Program, maxInsts uint64) error {
	for !s.Halted {
		if s.DynInsts >= maxInsts {
			return fmt.Errorf("interp: %s exceeded %d instructions without halting", p.Name, maxInsts)
		}
		if err := s.Step(p); err != nil {
			return err
		}
	}
	return nil
}
