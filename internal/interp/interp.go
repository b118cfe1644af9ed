// Package interp is the functional reference interpreter for the dynaspam
// ISA. It executes a program sequentially with no timing model and serves as
// the golden model: the out-of-order simulator and the spatial fabric must
// produce exactly the same architectural state (registers, memory, dynamic
// branch outcomes) for every program.
//
// One loop, Exec, executes every instruction: Step and Run are built on it,
// and so is sampled simulation's fast-forward. Exec reports each executed
// branch and each load's and store's address to an optional Observer, which
// is how core warms the caches and predictors through a skipped region and
// how experiments.SampleTraces records a workload's branch outcome stream
// (the §2.2 mapping ablation is built on it). A State is self-contained —
// one memory, one register file, no globals — so many can run concurrently.
package interp

import (
	"fmt"
	"math"

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
}

// Observer sees an Exec loop's control and memory events in program order.
// Each call comes before the instruction it reports changes any state.
type Observer interface {
	// Branch reports an executed conditional branch or jmp at pc: whether
	// it was taken and the pc execution continues at.
	Branch(pc int, op isa.Op, taken bool, next int)
	// Access reports the effective address of a load (store false) or a
	// store (store true), before the access.
	Access(addr uint64, store bool)
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

// Exec executes up to n instructions of p and returns how many it executed.
// It stops before a halt and does not execute it, so a count short of n
// with a nil error means the next instruction is the halt (or the machine
// had halted already). It returns an error if PC is out of range. obs,
// when not nil, sees every branch, load and store.
//
// Exec dispatches once per instruction and indexes the register files
// directly. A validated program names each register in the file its op
// reads or writes (program.Validate), so the array bounds stand in for a
// register-class check: an integer index into the FP file, or the reverse,
// is out of range and panics.
func (s *State) Exec(p *program.Program, n uint64, obs Observer) (uint64, error) {
	if s.Halted {
		return 0, nil
	}
	insts := p.Insts
	ir, fr, m := &s.IntRegs, &s.FPRegs, s.Mem
	pc := s.PC
	var done uint64
	var err error
	// r0 is hardwired: an instruction may write it, and the loop clears it
	// before the next one reads it.
	ir[0] = 0
loop:
	for ; done < n; done++ {
		if uint(pc) >= uint(len(insts)) {
			err = fmt.Errorf("interp: pc %d out of range in %s", pc, p.Name)
			break
		}
		in := &insts[pc]
		next := pc + 1
		switch in.Op {
		case isa.OpNop:
		case isa.OpAdd:
			ir[in.Dest] = ir[in.Src1] + ir[in.Src2]
		case isa.OpSub:
			ir[in.Dest] = ir[in.Src1] - ir[in.Src2]
		case isa.OpMul:
			ir[in.Dest] = ir[in.Src1] * ir[in.Src2]
		case isa.OpDiv:
			if b := ir[in.Src2]; b != 0 {
				ir[in.Dest] = ir[in.Src1] / b
			} else {
				ir[in.Dest] = 0
			}
		case isa.OpRem:
			if b := ir[in.Src2]; b != 0 {
				ir[in.Dest] = ir[in.Src1] % b
			} else {
				ir[in.Dest] = 0
			}
		case isa.OpAnd:
			ir[in.Dest] = ir[in.Src1] & ir[in.Src2]
		case isa.OpOr:
			ir[in.Dest] = ir[in.Src1] | ir[in.Src2]
		case isa.OpXor:
			ir[in.Dest] = ir[in.Src1] ^ ir[in.Src2]
		case isa.OpShl:
			ir[in.Dest] = ir[in.Src1] << (uint64(ir[in.Src2]) & 63)
		case isa.OpShr:
			ir[in.Dest] = ir[in.Src1] >> (uint64(ir[in.Src2]) & 63)
		case isa.OpSlt:
			ir[in.Dest] = b2i(ir[in.Src1] < ir[in.Src2])
		case isa.OpAddi:
			ir[in.Dest] = ir[in.Src1] + in.Imm
		case isa.OpMuli:
			ir[in.Dest] = ir[in.Src1] * in.Imm
		case isa.OpAndi:
			ir[in.Dest] = ir[in.Src1] & in.Imm
		case isa.OpOri:
			ir[in.Dest] = ir[in.Src1] | in.Imm
		case isa.OpXori:
			ir[in.Dest] = ir[in.Src1] ^ in.Imm
		case isa.OpShli:
			ir[in.Dest] = ir[in.Src1] << (uint64(in.Imm) & 63)
		case isa.OpShri:
			ir[in.Dest] = ir[in.Src1] >> (uint64(in.Imm) & 63)
		case isa.OpSlti:
			ir[in.Dest] = b2i(ir[in.Src1] < in.Imm)
		case isa.OpLi:
			ir[in.Dest] = in.Imm
		case isa.OpMov:
			ir[in.Dest] = ir[in.Src1]
		case isa.OpMin:
			ir[in.Dest] = min(ir[in.Src1], ir[in.Src2])
		case isa.OpMax:
			ir[in.Dest] = max(ir[in.Src1], ir[in.Src2])

		case isa.OpFAdd:
			fr[in.Dest-isa.FPBase] = fr[in.Src1-isa.FPBase] + fr[in.Src2-isa.FPBase]
		case isa.OpFSub:
			fr[in.Dest-isa.FPBase] = fr[in.Src1-isa.FPBase] - fr[in.Src2-isa.FPBase]
		case isa.OpFMul:
			fr[in.Dest-isa.FPBase] = fr[in.Src1-isa.FPBase] * fr[in.Src2-isa.FPBase]
		case isa.OpFDiv:
			fr[in.Dest-isa.FPBase] = fr[in.Src1-isa.FPBase] / fr[in.Src2-isa.FPBase]
		case isa.OpFMin:
			fr[in.Dest-isa.FPBase] = math.Min(fr[in.Src1-isa.FPBase], fr[in.Src2-isa.FPBase])
		case isa.OpFMax:
			fr[in.Dest-isa.FPBase] = math.Max(fr[in.Src1-isa.FPBase], fr[in.Src2-isa.FPBase])
		case isa.OpFAbs:
			fr[in.Dest-isa.FPBase] = math.Abs(fr[in.Src1-isa.FPBase])
		case isa.OpFNeg:
			fr[in.Dest-isa.FPBase] = -fr[in.Src1-isa.FPBase]
		case isa.OpFSqt:
			fr[in.Dest-isa.FPBase] = math.Sqrt(fr[in.Src1-isa.FPBase])
		case isa.OpFExp:
			fr[in.Dest-isa.FPBase] = math.Exp(fr[in.Src1-isa.FPBase])
		case isa.OpFLi:
			fr[in.Dest-isa.FPBase] = in.FImm
		case isa.OpFMov:
			fr[in.Dest-isa.FPBase] = fr[in.Src1-isa.FPBase]
		case isa.OpFSlt:
			ir[in.Dest] = b2i(fr[in.Src1-isa.FPBase] < fr[in.Src2-isa.FPBase])
		case isa.OpItoF:
			fr[in.Dest-isa.FPBase] = float64(ir[in.Src1])
		case isa.OpFtoI:
			ir[in.Dest] = int64(fr[in.Src1-isa.FPBase])

		case isa.OpLd:
			addr := uint64(ir[in.Src1] + in.Imm)
			if obs != nil {
				obs.Access(addr, false)
			}
			ir[in.Dest] = m.ReadInt(addr)
		case isa.OpFLd:
			addr := uint64(ir[in.Src1] + in.Imm)
			if obs != nil {
				obs.Access(addr, false)
			}
			fr[in.Dest-isa.FPBase] = m.ReadFloat(addr)
		case isa.OpSt:
			addr := uint64(ir[in.Src1] + in.Imm)
			if obs != nil {
				obs.Access(addr, true)
			}
			m.WriteInt(addr, ir[in.Src2])
		case isa.OpFSt:
			addr := uint64(ir[in.Src1] + in.Imm)
			if obs != nil {
				obs.Access(addr, true)
			}
			m.WriteFloat(addr, fr[in.Src2-isa.FPBase])

		case isa.OpBeq:
			taken := ir[in.Src1] == ir[in.Src2]
			if taken {
				next = in.Target
			}
			if obs != nil {
				obs.Branch(pc, in.Op, taken, next)
			}
		case isa.OpBne:
			taken := ir[in.Src1] != ir[in.Src2]
			if taken {
				next = in.Target
			}
			if obs != nil {
				obs.Branch(pc, in.Op, taken, next)
			}
		case isa.OpBlt:
			taken := ir[in.Src1] < ir[in.Src2]
			if taken {
				next = in.Target
			}
			if obs != nil {
				obs.Branch(pc, in.Op, taken, next)
			}
		case isa.OpBge:
			taken := ir[in.Src1] >= ir[in.Src2]
			if taken {
				next = in.Target
			}
			if obs != nil {
				obs.Branch(pc, in.Op, taken, next)
			}
		case isa.OpJmp:
			next = in.Target
			if obs != nil {
				obs.Branch(pc, in.Op, true, next)
			}
		case isa.OpHalt:
			break loop
		default:
			panic(fmt.Sprintf("interp: unknown op %d at pc %d in %s", in.Op, pc, p.Name))
		}
		ir[0] = 0
		pc = next
	}
	s.PC = pc
	s.DynInsts += done
	return done, err
}

// b2i converts a comparison result to the ISA's 1 or 0.
func b2i(c bool) int64 {
	if c {
		return 1
	}
	return 0
}

// Step executes one instruction of p, the halt included. It returns an
// error if PC is out of range. Stepping a halted machine is a no-op.
func (s *State) Step(p *program.Program) error {
	if s.Halted {
		return nil
	}
	n, err := s.Exec(p, 1, nil)
	if err == nil && n == 0 {
		s.halt()
	}
	return err
}

// halt executes the halt that Exec stopped before.
func (s *State) halt() {
	s.Halted = true
	s.DynInsts++
	s.PC++
}

// Run executes p until halt or maxInsts instructions, whichever comes first.
// It returns an error on out-of-range PC or when the budget is exhausted
// before halting.
func (s *State) Run(p *program.Program, maxInsts uint64) error {
	for !s.Halted {
		if s.DynInsts >= maxInsts {
			return fmt.Errorf("interp: %s exceeded %d instructions without halting", p.Name, maxInsts)
		}
		budget := maxInsts - s.DynInsts
		n, err := s.Exec(p, budget, nil)
		if err != nil {
			return err
		}
		if n < budget {
			s.halt()
		}
	}
	return nil
}
