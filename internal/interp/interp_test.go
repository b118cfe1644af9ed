package interp

import (
	"testing"

	"dynaspam/internal/isa"
	"dynaspam/internal/mem"
	"dynaspam/internal/program"
)

func TestStraightLineArithmetic(t *testing.T) {
	p := program.NewBuilder("arith").
		Li(isa.R(1), 6).
		Li(isa.R(2), 7).
		Mul(isa.R(3), isa.R(1), isa.R(2)).
		Addi(isa.R(3), isa.R(3), 1).
		Halt().
		MustBuild()
	s := New(nil)
	if err := s.Run(p, 100); err != nil {
		t.Fatal(err)
	}
	if got := s.ReadReg(isa.R(3)); got != 43 {
		t.Errorf("r3 = %d, want 43", got)
	}
	if s.DynInsts != 5 {
		t.Errorf("DynInsts = %d, want 5", s.DynInsts)
	}
}

func TestLoopSum(t *testing.T) {
	// sum 0..9 into r3
	p := program.NewBuilder("sum").
		Li(isa.R(1), 0).  // i
		Li(isa.R(2), 10). // n
		Li(isa.R(3), 0).  // sum
		Label("head").
		Add(isa.R(3), isa.R(3), isa.R(1)).
		Addi(isa.R(1), isa.R(1), 1).
		Blt(isa.R(1), isa.R(2), "head").
		Halt().
		MustBuild()
	s := New(nil)
	var branches branchLog
	if n, err := s.Exec(p, 1000, &branches); err != nil || p.Insts[s.PC].Op != isa.OpHalt {
		t.Fatalf("Exec ran %d insts to pc %d (err %v), want a stop at the halt", n, s.PC, err)
	}
	if got := s.ReadReg(isa.R(3)); got != 45 {
		t.Errorf("sum = %d, want 45", got)
	}
	if len(branches) != 10 {
		t.Fatalf("branches = %d, want 10", len(branches))
	}
	for i, b := range branches {
		wantTaken := i < 9
		wantNext := 6
		if wantTaken {
			wantNext = 3
		}
		if b != (branchEvent{pc: 5, op: isa.OpBlt, taken: wantTaken, next: wantNext}) {
			t.Errorf("branch %d = %+v, want pc 5, blt, taken %v, next %d", i, b, wantTaken, wantNext)
		}
	}
}

// branchEvent is one Observer.Branch call.
type branchEvent struct {
	pc    int
	op    isa.Op
	taken bool
	next  int
}

// branchLog is an Observer that records every branch and ignores loads and
// stores.
type branchLog []branchEvent

func (l *branchLog) Branch(pc int, op isa.Op, taken bool, next int) {
	*l = append(*l, branchEvent{pc, op, taken, next})
}
func (l *branchLog) Access(uint64, bool) {}

func TestMemoryOps(t *testing.T) {
	m := mem.New()
	m.WriteInt(64, 11)
	m.WriteFloat(72, 2.5)
	p := program.NewBuilder("mem").
		Li(isa.R(1), 64).
		Ld(isa.R(2), isa.R(1), 0).
		Addi(isa.R(2), isa.R(2), 1).
		St(isa.R(1), 8*2, isa.R(2)).
		FLd(isa.F(1), isa.R(1), 8).
		FMul(isa.F(2), isa.F(1), isa.F(1)).
		FSt(isa.R(1), 8*3, isa.F(2)).
		Halt().
		MustBuild()
	s := New(m)
	if err := s.Run(p, 100); err != nil {
		t.Fatal(err)
	}
	if got := m.ReadInt(80); got != 12 {
		t.Errorf("mem[80] = %d, want 12", got)
	}
	if got := m.ReadFloat(88); got != 6.25 {
		t.Errorf("mem[88] = %v, want 6.25", got)
	}
}

func TestR0Hardwired(t *testing.T) {
	p := program.NewBuilder("r0").
		Li(isa.R(0), 42).
		Add(isa.R(1), isa.R(0), isa.R(0)).
		Halt().
		MustBuild()
	s := New(nil)
	if err := s.Run(p, 10); err != nil {
		t.Fatal(err)
	}
	if got := s.ReadReg(isa.R(1)); got != 0 {
		t.Errorf("r1 = %d, want 0 (r0 writes discarded)", got)
	}
}

func TestConversions(t *testing.T) {
	p := program.NewBuilder("cvt").
		Li(isa.R(1), 9).
		ItoF(isa.F(1), isa.R(1)).
		FSqt(isa.F(2), isa.F(1)).
		FtoI(isa.R(2), isa.F(2)).
		FLi(isa.F(3), 1.5).
		FSlt(isa.R(3), isa.F(3), isa.F(2)).
		Halt().
		MustBuild()
	s := New(nil)
	if err := s.Run(p, 100); err != nil {
		t.Fatal(err)
	}
	if got := s.ReadReg(isa.R(2)); got != 3 {
		t.Errorf("r2 = %d, want 3", got)
	}
	if got := s.ReadReg(isa.R(3)); got != 1 {
		t.Errorf("r3 = %d, want 1 (1.5 < 3.0)", got)
	}
}

func TestJmp(t *testing.T) {
	p := program.NewBuilder("jmp").
		Li(isa.R(1), 1).
		Jmp("skip").
		Li(isa.R(1), 2).
		Label("skip").
		Halt().
		MustBuild()
	s := New(nil)
	if err := s.Run(p, 10); err != nil {
		t.Fatal(err)
	}
	if got := s.ReadReg(isa.R(1)); got != 1 {
		t.Errorf("r1 = %d, want 1", got)
	}
}

func TestRunBudgetExceeded(t *testing.T) {
	p := program.NewBuilder("inf").
		Label("head").
		Jmp("head").
		Halt().
		MustBuild()
	s := New(nil)
	if err := s.Run(p, 100); err == nil {
		t.Error("Run did not report budget exhaustion")
	}
}

func TestStepAfterHaltIsNoop(t *testing.T) {
	p := program.NewBuilder("h").Halt().MustBuild()
	s := New(nil)
	if err := s.Run(p, 10); err != nil {
		t.Fatal(err)
	}
	n := s.DynInsts
	if err := s.Step(p); err != nil {
		t.Fatal(err)
	}
	if s.DynInsts != n {
		t.Error("Step after halt executed an instruction")
	}
}

func TestRegAccessorPanics(t *testing.T) {
	s := New(nil)
	for name, f := range map[string]func(){
		"ReadReg(FP)": func() { s.ReadReg(isa.F(1)) },
		"ReadFP(int)": func() { s.ReadFP(isa.R(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
