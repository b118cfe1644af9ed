package ooo

import (
	"fmt"
	"testing"

	"dynaspam/internal/branch"
	"dynaspam/internal/isa"
	"dynaspam/internal/mem"
	"dynaspam/internal/memdep"
	"dynaspam/internal/program"
)

// tinyConfig returns a deliberately starved machine to exercise structural
// stalls; correctness must be unaffected.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.ROBSize = 8
	cfg.RSSize = 4
	cfg.LQSize = 2
	cfg.SQSize = 2
	cfg.PhysRegs = isa.NumRegs + 6
	cfg.Branch = branch.Config{HistoryBits: 8}
	cfg.MemDep = memdep.Config{SSITEntries: 64, NumSets: 8}
	return cfg
}

func TestTinyMachineCorrectness(t *testing.T) {
	// A loop with more memory traffic than the tiny LSQ can hold and more
	// in-flight state than the tiny ROB/RS/free-list allows.
	b := program.NewBuilder("tiny")
	b.Li(isa.R(1), 0)
	b.Li(isa.R(2), 50)
	b.Li(isa.R(3), 0)
	b.Label("head")
	b.St(isa.R(3), 0, isa.R(1))
	b.St(isa.R(3), 8, isa.R(2))
	b.Ld(isa.R(4), isa.R(3), 0)
	b.Ld(isa.R(5), isa.R(3), 8)
	b.Add(isa.R(6), isa.R(4), isa.R(5))
	b.St(isa.R(3), 16, isa.R(6))
	b.Addi(isa.R(3), isa.R(3), 24)
	b.Addi(isa.R(1), isa.R(1), 1)
	b.Blt(isa.R(1), isa.R(2), "head")
	b.Halt()
	p := b.MustBuild()

	m := mem.New()
	cpu := New(tinyConfig(), p, m, nil)
	if err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	// Spot-check: iteration i stored i, 50, i+50 at 24*i.
	for _, i := range []int64{0, 7, 49} {
		base := uint64(24 * i)
		if got := m.ReadInt(base + 16); got != i+50 {
			t.Errorf("iter %d sum = %d, want %d", i, got, i+50)
		}
	}
	if cpu.Stats().Committed == 0 {
		t.Error("nothing committed")
	}
}

func TestPhysRegExhaustionStallsNotDeadlocks(t *testing.T) {
	// Long stretch of register writers with only 6 spare physical
	// registers: rename must stall and resume, never deadlock.
	b := program.NewBuilder("regs")
	for i := 0; i < 100; i++ {
		b.Li(isa.R(1+i%20), int64(i))
	}
	b.Halt()
	cfg := tinyConfig()
	cfg.MaxCycles = 1_000_000
	cpu := New(cfg, b.MustBuild(), mem.New(), nil)
	if err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	if got := cpu.Stats().Committed; got != 101 {
		t.Errorf("committed = %d, want 101", got)
	}
}

func TestNonPipelinedDividerSerializes(t *testing.T) {
	// Independent divides share one non-pipelined unit: runtime must be
	// at least latency * count.
	b := program.NewBuilder("div")
	b.Li(isa.R(1), 1000)
	b.Li(isa.R(2), 3)
	for i := 0; i < 10; i++ {
		b.Div(isa.R(4+i%4), isa.R(1), isa.R(2))
	}
	b.Halt()
	cpu := New(DefaultConfig(), b.MustBuild(), mem.New(), nil)
	if err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	wantMin := uint64(10 * isa.OpDiv.Latency())
	if got := cpu.Stats().Cycles; got < wantMin {
		t.Errorf("cycles = %d, want >= %d (non-pipelined divider)", got, wantMin)
	}
}

func TestPipelinedMultiplierOverlaps(t *testing.T) {
	// Independent multiplies on the pipelined unit must overlap: 40
	// multiplies at latency 3 on one unit should take far less than
	// 40*3 cycles beyond setup.
	b := program.NewBuilder("mul")
	b.Li(isa.R(1), 7)
	b.Li(isa.R(2), 9)
	for i := 0; i < 40; i++ {
		b.Mul(isa.R(4+i%4), isa.R(1), isa.R(2))
	}
	b.Halt()
	cpu := New(DefaultConfig(), b.MustBuild(), mem.New(), nil)
	if err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	if got := cpu.Stats().Cycles; got > 300 {
		t.Errorf("cycles = %d, want pipelined multiplier to overlap (< 300)", got)
	}
}

func TestArchRegAccessors(t *testing.T) {
	b := program.NewBuilder("acc")
	b.Li(isa.R(1), -5)
	b.FLi(isa.F(2), 1.25)
	b.Halt()
	cpu := New(DefaultConfig(), b.MustBuild(), mem.New(), nil)
	if err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	if got := cpu.ArchRegInt(isa.R(1)); got != -5 {
		t.Errorf("ArchRegInt = %d", got)
	}
	if got := cpu.ArchRegFloat(isa.F(2)); got != 1.25 {
		t.Errorf("ArchRegFloat = %v", got)
	}
}

func TestDebugStateRendering(t *testing.T) {
	b := program.NewBuilder("dbg")
	b.Li(isa.R(1), 1)
	b.Halt()
	cpu := New(DefaultConfig(), b.MustBuild(), mem.New(), nil)
	if s := cpu.debugState(); s == "" {
		t.Error("empty debugState before run")
	}
	if err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	if s := cpu.debugState(); s == "" {
		t.Error("empty debugState after run")
	}
}

// debugState summarizes the pipeline's head-of-ROB state for deadlock
// diagnostics in test failures.
func (c *CPU) debugState() string {
	if c.rob.len() == 0 {
		return fmt.Sprintf("cycle %d pc %d: ROB empty, frontend %d, rs %d", c.cycle, c.pc, c.fe.len(), c.rsCount)
	}
	h := c.rob.live()[0]
	extra := ""
	if h.IsTrace() {
		extra = fmt.Sprintf(" trace(res=%v liveInReady=%v)", h.Issued, func() []bool {
			var out []bool
			for _, p := range h.Trace.liveInPhys {
				out = append(out, c.regs[p].ready)
			}
			return out
		}())
	}
	return fmt.Sprintf("cycle %d pc %d: head seq=%d pc=%d op=%s issued=%v executed=%v%s (rob %d, rs %d, fe %d)",
		c.cycle, c.pc, h.Seq, h.PC, h.Inst.Op, h.Issued, h.Executed, extra, c.rob.len(), c.rsCount, c.fe.len())
}
