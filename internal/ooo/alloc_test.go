package ooo

import (
	"testing"

	"dynaspam/internal/isa"
	"dynaspam/internal/mem"
	"dynaspam/internal/program"
)

// TestStepSteadyStateAllocsZero pins the hot-loop allocation contract: once
// the CPU's pools and scratch buffers are warm, a simulated cycle performs
// zero heap allocations. Any regression here shows up as GC churn across
// every experiment, so it fails hard rather than by a benchmark delta. It
// covers a saturated register loop and a loop that keeps the reservation
// station full (a 12-cycle non-pipelined divide feeding seven adds), the
// programs of BenchmarkCPUStep and BenchmarkCPUStepFullRS.
func TestStepSteadyStateAllocsZero(t *testing.T) {
	regs := program.NewBuilder("alloc").
		Label("loop").
		Add(isa.R(3), isa.R(1), isa.R(2)).
		Add(isa.R(4), isa.R(3), isa.R(1)).
		Add(isa.R(5), isa.R(4), isa.R(2)).
		Add(isa.R(6), isa.R(5), isa.R(1)).
		Jmp("loop").
		Halt().
		MustBuild()
	b := program.NewBuilder("fullrs").
		Label("loop").
		Div(isa.R(3), isa.R(3), isa.R(1))
	for r := 4; r <= 10; r++ {
		b.Add(isa.R(r), isa.R(3), isa.R(2))
	}
	fullRS := b.Jmp("loop").Halt().MustBuild()
	for _, p := range []*program.Program{regs, fullRS} {
		c := New(DefaultConfig(), p, mem.New(), nil)
		// Warm-up: long enough to grow every pool and lap the event wheel's
		// 256 ring slots several times.
		for i := 0; i < 4*wheelSize; i++ {
			c.step()
		}
		if avg := testing.AllocsPerRun(1000, func() { c.step() }); avg != 0 {
			t.Errorf("%s: steady-state step() allocates %.2f allocs/cycle, want 0", p.Name, avg)
		}
	}
}
