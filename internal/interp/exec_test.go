package interp

import (
	"fmt"
	"math"
	"testing"

	"dynaspam/internal/isa"
	"dynaspam/internal/mem"
	"dynaspam/internal/program"
	"dynaspam/internal/workloads"
)

// refStep is the reference interpreter: Step as it was before Exec, kept
// whole. It decodes one instruction per call through the op's class and
// checks the register file of every operand (ReadReg, ReadFP, writeReg,
// writeFP). It executes the halt.
func refStep(s *State, p *program.Program) error {
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
		if taken {
			next = in.Target
		}
	case in.Op == isa.OpLd:
		addr := uint64(s.ReadReg(in.Src1) + in.Imm)
		writeReg(s, in.Dest, s.Mem.ReadInt(addr))
	case in.Op == isa.OpFLd:
		addr := uint64(s.ReadReg(in.Src1) + in.Imm)
		writeFP(s, in.Dest, s.Mem.ReadFloat(addr))
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
		writeReg(s, in.Dest, v)
	case in.Op == isa.OpItoF:
		writeFP(s, in.Dest, float64(s.ReadReg(in.Src1)))
	case in.Op == isa.OpFtoI:
		writeReg(s, in.Dest, int64(s.ReadFP(in.Src1)))
	case in.Op.Class() == isa.ClassFPALU || in.Op.Class() == isa.ClassFPMul || in.Op.Class() == isa.ClassFPDiv:
		var a, b float64
		if in.Op.NumSrcs() >= 1 {
			a = s.ReadFP(in.Src1)
		}
		if in.Op.NumSrcs() >= 2 {
			b = s.ReadFP(in.Src2)
		}
		writeFP(s, in.Dest, isa.FPOp(in.Op, a, b, in.FImm))
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
		writeReg(s, in.Dest, isa.IntOp(in.Op, a, b, in.Imm))
	}
	s.PC = next
	return nil
}

// writeReg sets integer register r; writes to r0 are discarded.
func writeReg(s *State, r isa.Reg, v int64) {
	if r.IsFP() {
		panic("interp: writeReg on FP register " + r.String())
	}
	if r == isa.RegZero {
		return
	}
	s.IntRegs[r] = v
}

// writeFP sets FP register r.
func writeFP(s *State, r isa.Reg, v float64) {
	if !r.IsFP() {
		panic("interp: writeFP on integer register " + r.String())
	}
	s.FPRegs[int(r)-isa.FPBase] = v
}

// refObserve reports the instruction at s.PC to obs before refStep runs it,
// decoding it the way core's fast-forward did before it became an Observer:
// a jmp is a taken branch to its target, a conditional branch reports its
// outcome and next pc, and a load or store its effective address.
func refObserve(s *State, p *program.Program, obs Observer) {
	if !p.Valid(s.PC) {
		return
	}
	in := &p.Insts[s.PC]
	switch {
	case in.Op == isa.OpJmp:
		obs.Branch(s.PC, in.Op, true, in.Target)
	case in.Op.IsCondBranch():
		taken := isa.BranchTaken(in.Op, s.ReadReg(in.Src1), s.ReadReg(in.Src2))
		next := s.PC + 1
		if taken {
			next = in.Target
		}
		obs.Branch(s.PC, in.Op, taken, next)
	case in.Op == isa.OpLd || in.Op == isa.OpFLd:
		obs.Access(uint64(s.ReadReg(in.Src1)+in.Imm), false)
	case in.Op == isa.OpSt || in.Op == isa.OpFSt:
		obs.Access(uint64(s.ReadReg(in.Src1)+in.Imm), true)
	}
}

// eventHash is an Observer that folds every event, in order, into an
// FNV-1a hash and counts them.
type eventHash struct {
	sum uint64
	n   int
}

func (e *eventHash) Branch(pc int, op isa.Op, taken bool, next int) {
	e.mix(1, uint64(pc), uint64(op), uint64(b2i(taken)), uint64(next))
}

func (e *eventHash) Access(addr uint64, store bool) {
	e.mix(2, addr, uint64(b2i(store)))
}

func (e *eventHash) mix(words ...uint64) {
	if e.n == 0 {
		e.sum = 14695981039346656037
	}
	e.n++
	for _, w := range words {
		for i := 0; i < 8; i++ {
			e.sum ^= w >> (8 * i) & 0xff
			e.sum *= 1099511628211
		}
	}
}

// runRef runs p on the reference until it halts, fails or has executed
// budget instructions, reporting each instruction to obs first.
func runRef(s *State, p *program.Program, budget uint64, obs Observer) error {
	for !s.Halted && s.DynInsts < budget {
		refObserve(s, p, obs)
		if err := refStep(s, p); err != nil {
			return err
		}
	}
	return nil
}

// runExec runs p on Exec under the same limits as runRef, in chunks whose
// sizes cycle through chunks. A chunk that stops short must stop at a
// halt, which Step then executes. A chunk of 0 must do nothing.
func runExec(t *testing.T, s *State, p *program.Program, budget uint64, chunks []uint64, obs Observer) error {
	t.Helper()
	for i := 0; !s.Halted && s.DynInsts < budget; i++ {
		ask := min(chunks[i%len(chunks)], budget-s.DynInsts)
		pc, before := s.PC, s.DynInsts
		k, err := s.Exec(p, ask, obs)
		if s.DynInsts != before+k {
			t.Fatalf("Exec(%d) from pc %d returned %d but DynInsts went %d → %d", ask, pc, k, before, s.DynInsts)
		}
		if s.Halted {
			t.Fatalf("Exec(%d) from pc %d executed a halt", ask, pc)
		}
		if err != nil {
			return err
		}
		if k < ask {
			if !p.Valid(s.PC) || p.Insts[s.PC].Op != isa.OpHalt {
				t.Fatalf("Exec(%d) from pc %d stopped after %d at pc %d, not at a halt", ask, pc, k, s.PC)
			}
			if err := s.Step(p); err != nil || !s.Halted {
				t.Fatalf("Step at the halt: err %v, halted %v", err, s.Halted)
			}
		}
	}
	return nil
}

// sameState fails t unless got and ref hold the same registers (FP by
// bits), PC, halt flag, instruction count and memory.
func sameState(t *testing.T, got, ref *State) {
	t.Helper()
	for r := 1; r < isa.NumIntRegs; r++ {
		if got.IntRegs[r] != ref.IntRegs[r] {
			t.Fatalf("r%d = %d, reference %d", r, got.IntRegs[r], ref.IntRegs[r])
		}
	}
	if got.IntRegs[0] != 0 {
		t.Fatalf("r0 = %d, want 0", got.IntRegs[0])
	}
	for r := range got.FPRegs {
		if math.Float64bits(got.FPRegs[r]) != math.Float64bits(ref.FPRegs[r]) {
			t.Fatalf("f%d = %v, reference %v", r, got.FPRegs[r], ref.FPRegs[r])
		}
	}
	if got.PC != ref.PC || got.Halted != ref.Halted || got.DynInsts != ref.DynInsts {
		t.Fatalf("pc %d halted %v insts %d, reference pc %d halted %v insts %d",
			got.PC, got.Halted, got.DynInsts, ref.PC, ref.Halted, ref.DynInsts)
	}
	if ok, diff := got.Mem.Equal(ref.Mem); !ok {
		t.Fatalf("memory differs from the reference: %s", diff)
	}
}

// TestExecMatchesRefOnKernels runs every kernel to its halt through Exec,
// in fast-forward's 8192-instruction chunks, and through refStep: the
// final states and the event streams (hash and count) must agree.
func TestExecMatchesRefOnKernels(t *testing.T) {
	for _, w := range workloads.All() {
		ref, got := New(w.NewMemory()), New(w.NewMemory())
		var refEv, gotEv eventHash
		if err := runRef(ref, w.Prog, w.MaxInsts, &refEv); err != nil || !ref.Halted {
			t.Fatalf("%s: reference halted %v, err %v", w.Abbrev, ref.Halted, err)
		}
		if err := runExec(t, got, w.Prog, w.MaxInsts, []uint64{8192}, &gotEv); err != nil {
			t.Fatalf("%s: %v", w.Abbrev, err)
		}
		sameState(t, got, ref)
		if gotEv != refEv {
			t.Errorf("%s: %d events hashing to %#x, reference %d hashing to %#x", w.Abbrev, gotEv.n, gotEv.sum, refEv.n, refEv.sum)
		}
	}
}

// TestExecWrongRegisterFilePanics: Exec checks no register class, so an
// unvalidated instruction that names a register in the wrong file must
// still panic, through the register array's bounds, as Step's accessors
// did.
func TestExecWrongRegisterFilePanics(t *testing.T) {
	for name, in := range map[string]isa.Inst{
		"add reads f1":   {Op: isa.OpAdd, Dest: isa.R(1), Src1: isa.F(1), Src2: isa.R(2)},
		"add writes f1":  {Op: isa.OpAdd, Dest: isa.F(1), Src1: isa.R(1), Src2: isa.R(2)},
		"fadd reads r1":  {Op: isa.OpFAdd, Dest: isa.F(1), Src1: isa.R(1), Src2: isa.F(2)},
		"fadd writes r1": {Op: isa.OpFAdd, Dest: isa.R(1), Src1: isa.F(1), Src2: isa.F(2)},
	} {
		p := &program.Program{Name: name, Insts: []isa.Inst{in}}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Exec did not panic", name)
				}
			}()
			_, _ = New(nil).Exec(p, 1, nil)
		}()
	}
}

// Fuzzed programs: r1..r7 and r0 are written and read; r8 holds fuzzBase
// and is only read, as the base of loads and stores (the other base is r0),
// so every access falls in [0, 256) or in a 256-byte window that straddles
// a page boundary. f0..f3 are the FP registers.
const (
	fuzzIntRegs  = 8
	fuzzBaseReg  = 8
	fuzzFPRegs   = 4
	fuzzBase     = 4096 - 128
	fuzzBudget   = 4096
	fuzzMaxInsts = 48
)

// FuzzExec is a differential fuzz target for Exec: a program decoded from
// the input, with every op class, loads and stores in a small address
// range, and in-range branch and jmp targets, runs through Exec in chunks
// the input chooses (recording every event) and through refStep (with the
// events refObserve derives). Both must end in the same state, stop at the
// same halt, fail at the same pc when the program runs off its end, and
// report the same event stream.
//
// Input: a flags byte (bit 0: no final halt), the instruction count, four
// bytes per instruction (op, two register bytes, an immediate or branch
// target; see fuzzInst), then chunk sizes (each byte mod 20).
func FuzzExec(f *testing.F) {
	in := func(op isa.Op, r1, r2, imm byte) []byte { return []byte{byte(op), r1, r2, imm} }
	seed := func(flags byte, chunks []byte, insts ...[]byte) []byte {
		b := []byte{flags, byte(len(insts))}
		for _, i := range insts {
			b = append(b, i...)
		}
		return append(b, chunks...)
	}
	// A counted loop with a load, a store, an FP update and a jmp, stopping
	// at its halt.
	f.Add(seed(0, []byte{3, 0, 7, 1},
		in(isa.OpLi, 0x01, 0, 5),      // r1 = 5
		in(isa.OpLd, 0x12, 0x80, 8),   // r2 = mem[r8+8]
		in(isa.OpAddi, 0x22, 0, 3),    // r2 += 3
		in(isa.OpSt, 0, 0x82, 16),     // mem[r8+16] = r2
		in(isa.OpItoF, 0x21, 0, 0),    // f1 = float(r2)
		in(isa.OpFAdd, 0x11, 0x00, 0), // f1 += f0
		in(isa.OpFSt, 0, 0x81, 24),    // mem[r8+24] = f1
		in(isa.OpAddi, 0x11, 0, 0xff), // r1 -= 1
		in(isa.OpBeq, 0x10, 0x00, 10), // r1 == 0: to 10
		in(isa.OpJmp, 0, 0, 1),        // to 1
		in(isa.OpHalt, 0, 0, 0)))
	// Division by zero, r0 as a destination, NaN from FSqt, FP compares and
	// conversions, a jmp over a halt, and a store and an FP load of the
	// word that straddles the page boundary at 4096.
	f.Add(seed(0, []byte{1},
		in(isa.OpDiv, 0x21, 0x00, 0),     // r1 = r2 / r0
		in(isa.OpRem, 0x31, 0x02, 0),     // r1 = r3 % r2
		in(isa.OpShl, 0x13, 0x02, 0),     // r3 = r1 << r2
		in(isa.OpSlti, 0x04, 0x00, 0x80), // r4 = r0 < -128
		in(isa.OpAddi, 0x40, 0, 9),       // r0 = r4 + 9, discarded
		in(isa.OpFLi, 0x02, 0, 0xf3),     // f2 = -3.25
		in(isa.OpFSqt, 0x12, 0, 0),       // f2 = sqrt(f1), NaN
		in(isa.OpFDiv, 0x31, 0x02, 0),    // f1 = f3 / f2
		in(isa.OpFSlt, 0x51, 0x03, 0),    // r1 = f1 < f3
		in(isa.OpFtoI, 0x33, 0, 0),       // r3 = int(f3)
		in(isa.OpJmp, 0, 0, 12),          // to 12
		in(isa.OpHalt, 0, 0, 0),
		in(isa.OpSt, 0, 0x86, 124),     // mem[r8+124] = r6
		in(isa.OpFLd, 0x01, 0x80, 124), // f1 = mem[r8+124]
		in(isa.OpBlt, 0x50, 0x00, 0)))  // r5 < r0: to 0
	// No final halt: a loop counts r1 up to 0, then a store, then the
	// program runs off its end.
	f.Add(seed(1, []byte{0, 2},
		in(isa.OpAddi, 0x11, 0, 1),   // r1 += 1
		in(isa.OpBne, 0x10, 0x00, 0), // r1 != r0: to 0
		in(isa.OpSt, 0, 0x81, 0)))    // mem[r8] = r1
	f.Fuzz(checkExec)
}

// checkExec is FuzzExec's body for one input.
func checkExec(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	p, rest := fuzzProgram(data)
	var chunks []uint64
	for _, b := range rest {
		chunks = append(chunks, uint64(b%20))
	}
	if !fuzzProgress(chunks) {
		chunks = append(chunks, 7)
	}
	ref, got := fuzzState(), fuzzState()
	var refEv, gotEv eventHash
	refErr := runRef(ref, p, fuzzBudget, &refEv)
	gotErr := runExec(t, got, p, fuzzBudget, chunks, &gotEv)
	if (gotErr == nil) != (refErr == nil) {
		t.Fatalf("Exec error %v, reference %v", gotErr, refErr)
	}
	sameState(t, got, ref)
	if gotEv != refEv {
		t.Fatalf("%d events hashing to %#x, reference %d hashing to %#x", gotEv.n, gotEv.sum, refEv.n, refEv.sum)
	}
}

// fuzzProgress reports whether some chunk size is nonzero.
func fuzzProgress(chunks []uint64) bool {
	for _, c := range chunks {
		if c != 0 {
			return true
		}
	}
	return false
}

// fuzzProgram decodes data into a program and returns it with the bytes
// after its instructions.
func fuzzProgram(data []byte) (*program.Program, []byte) {
	noHalt := data[0]&1 != 0
	n := int(data[1]) % (fuzzMaxInsts + 1)
	rest := data[2:]
	n = min(n, len(rest)/4)
	size := n
	if !noHalt {
		size++
	}
	insts := make([]isa.Inst, 0, size)
	for i := 0; i < n; i++ {
		b := rest[4*i : 4*i+4]
		insts = append(insts, fuzzInst(isa.Op(int(b[0])%isa.NumOps), b[1], b[2], b[3], size))
	}
	if !noHalt {
		insts = append(insts, isa.Inst{Op: isa.OpHalt, Dest: isa.RegInvalid, Src1: isa.RegInvalid, Src2: isa.RegInvalid})
	}
	return &program.Program{Name: "fuzz", Insts: insts}, rest[4*n:]
}

// fuzzInst builds one instruction of op whose registers are in the file
// its op names. ra's low nibble picks the destination and its high nibble
// the first source; rb's low nibble picks the second source and its high
// bit the base of a load or store (r8 when set, else r0). imm is the
// immediate (signed, except as a load or store offset), the FP immediate
// (imm/4, signed) or the branch target (imm mod size).
func fuzzInst(op isa.Op, ra, rb, imm byte, size int) isa.Inst {
	intReg := func(b byte) isa.Reg { return isa.R(int(b&0xf) % (fuzzIntRegs + 1)) }
	fpReg := func(b byte) isa.Reg { return isa.F(int(b&0xf) % fuzzFPRegs) }
	in := isa.Inst{Op: op, Dest: isa.RegInvalid, Src1: isa.RegInvalid, Src2: isa.RegInvalid}
	base := isa.RegZero
	if rb&0x80 != 0 {
		base = isa.R(fuzzBaseReg)
	}
	dest := func(r isa.Reg) isa.Reg {
		if r == isa.R(fuzzBaseReg) {
			return isa.RegZero
		}
		return r
	}
	switch {
	case op == isa.OpHalt:
	case op.IsBranch():
		in.Target = int(imm) % size
		if op != isa.OpJmp {
			in.Src1, in.Src2 = intReg(ra>>4), intReg(rb)
		}
	case op == isa.OpLd, op == isa.OpFLd:
		in.Src1, in.Imm = base, int64(imm)
		if op == isa.OpLd {
			in.Dest = dest(intReg(ra))
		} else {
			in.Dest = fpReg(ra)
		}
	case op == isa.OpSt:
		in.Src1, in.Src2, in.Imm = base, intReg(rb), int64(imm)
	case op == isa.OpFSt:
		in.Src1, in.Src2, in.Imm = base, fpReg(rb), int64(imm)
	case op == isa.OpFSlt:
		in.Dest, in.Src1, in.Src2 = dest(intReg(ra)), fpReg(ra>>4), fpReg(rb)
	case op == isa.OpItoF:
		in.Dest, in.Src1 = fpReg(ra), intReg(ra>>4)
	case op == isa.OpFtoI:
		in.Dest, in.Src1 = dest(intReg(ra)), fpReg(ra>>4)
	case op.Class() == isa.ClassFPALU || op.Class() == isa.ClassFPMul || op.Class() == isa.ClassFPDiv:
		in.Dest, in.Src1, in.Src2, in.FImm = fpReg(ra), fpReg(ra>>4), fpReg(rb), float64(int8(imm))/4
	case op == isa.OpNop:
	default:
		in.Dest, in.Src1, in.Src2, in.Imm = dest(intReg(ra)), intReg(ra>>4), intReg(rb), int64(int8(imm))
	}
	return in
}

// fuzzState returns a machine with r1..r7 and f0..f3 holding small
// distinct values (FP ones of both signs), r8 holding fuzzBase, and a few
// integer and FP words in both address windows.
func fuzzState() *State {
	m := mem.New()
	for i := uint64(0); i < 4; i++ {
		m.WriteInt(8*i, int64(i)*5-7)
		m.WriteFloat(fuzzBase+8*i, float64(i)-1.5)
		m.WriteInt(fuzzBase+128+8*i, int64(i)<<40|3)
	}
	s := New(m)
	for r := 1; r < fuzzIntRegs; r++ {
		s.IntRegs[r] = int64(r*r) - 9
	}
	s.IntRegs[fuzzBaseReg] = fuzzBase
	for r := 0; r < fuzzFPRegs; r++ {
		s.FPRegs[r] = float64(r) - 1.25
	}
	return s
}
