package ooo

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"dynaspam/internal/interp"
	"dynaspam/internal/isa"
	"dynaspam/internal/mem"
	"dynaspam/internal/program"
)

// runBoth executes p on the reference interpreter and the OOO pipeline with
// identical initial memories, then checks architectural equivalence.
func runBoth(t *testing.T, p *program.Program, init func(*mem.Memory), checkRegs []isa.Reg) (*interp.State, *CPU) {
	t.Helper()
	goldMem := mem.New()
	oooMem := mem.New()
	if init != nil {
		init(goldMem)
		init(oooMem)
	}
	gold := interp.New(goldMem)
	if err := gold.Run(p, 50_000_000); err != nil {
		t.Fatalf("interp: %v", err)
	}
	cpu := New(DefaultConfig(), p, oooMem, nil)
	if err := cpu.Run(); err != nil {
		t.Fatalf("ooo: %v", err)
	}
	if eq, diff := goldMem.Equal(oooMem); !eq {
		t.Fatalf("memory mismatch: %s", diff)
	}
	for _, r := range checkRegs {
		if r.IsFP() {
			g := gold.ReadFP(r)
			o := cpu.ArchRegFloat(r)
			if g != o {
				t.Errorf("%s: interp %v, ooo %v", r, g, o)
			}
		} else {
			g := gold.ReadReg(r)
			o := cpu.ArchRegInt(r)
			if g != o {
				t.Errorf("%s: interp %d, ooo %d", r, g, o)
			}
		}
	}
	if gold.DynInsts != cpu.Stats().Committed {
		t.Errorf("committed = %d, interp executed %d", cpu.Stats().Committed, gold.DynInsts)
	}
	return gold, cpu
}

func TestStraightLine(t *testing.T) {
	p := program.NewBuilder("sl").
		Li(isa.R(1), 6).
		Li(isa.R(2), 7).
		Mul(isa.R(3), isa.R(1), isa.R(2)).
		Addi(isa.R(4), isa.R(3), 1).
		Sub(isa.R(5), isa.R(4), isa.R(1)).
		Halt().
		MustBuild()
	runBoth(t, p, nil, []isa.Reg{isa.R(3), isa.R(4), isa.R(5)})
}

func TestLoopWithBranches(t *testing.T) {
	p := program.NewBuilder("loop").
		Li(isa.R(1), 0).
		Li(isa.R(2), 100).
		Li(isa.R(3), 0).
		Label("head").
		Add(isa.R(3), isa.R(3), isa.R(1)).
		Addi(isa.R(1), isa.R(1), 1).
		Blt(isa.R(1), isa.R(2), "head").
		Halt().
		MustBuild()
	_, cpu := runBoth(t, p, nil, []isa.Reg{isa.R(3)})
	if cpu.Stats().BranchResolved == 0 {
		t.Error("no branches resolved")
	}
}

func TestDataDependentBranches(t *testing.T) {
	// Alternating and data-dependent control flow exercises misprediction
	// recovery.
	p := program.NewBuilder("ddb").
		Li(isa.R(1), 0).
		Li(isa.R(2), 200).
		Li(isa.R(3), 0).
		Li(isa.R(4), 0).
		Label("head").
		Andi(isa.R(5), isa.R(1), 1).
		Beq(isa.R(5), isa.R(0), "even").
		Addi(isa.R(3), isa.R(3), 3).
		Jmp("next").
		Label("even").
		Addi(isa.R(4), isa.R(4), 5).
		Label("next").
		Addi(isa.R(1), isa.R(1), 1).
		Blt(isa.R(1), isa.R(2), "head").
		Halt().
		MustBuild()
	runBoth(t, p, nil, []isa.Reg{isa.R(3), isa.R(4)})
}

// lcgBranchProgram branches on pseudo-random directions from an LCG, which
// forces mispredictions.
func lcgBranchProgram() *program.Program {
	return program.NewBuilder("rand").
		Li(isa.R(1), 12345). // lcg state
		Li(isa.R(2), 0).     // i
		Li(isa.R(3), 300).   // n
		Li(isa.R(4), 0).     // count
		Label("head").
		Muli(isa.R(1), isa.R(1), 1103515245).
		Addi(isa.R(1), isa.R(1), 12345).
		Andi(isa.R(1), isa.R(1), 0x7fffffff).
		Shri(isa.R(5), isa.R(1), 16).
		Andi(isa.R(5), isa.R(5), 1).
		Beq(isa.R(5), isa.R(0), "skip").
		Addi(isa.R(4), isa.R(4), 1).
		Label("skip").
		Addi(isa.R(2), isa.R(2), 1).
		Blt(isa.R(2), isa.R(3), "head").
		Halt().
		MustBuild()
}

func TestMispredictionRecovery(t *testing.T) {
	_, cpu := runBoth(t, lcgBranchProgram(), nil, []isa.Reg{isa.R(4)})
	if cpu.Stats().BranchMispredicts == 0 {
		t.Error("expected at least one misprediction on random branches")
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	// A store/load pair to the same address in a loop: after the
	// store-sets unit trains on the first violation, subsequent loads
	// wait for the store and forward from the store queue.
	b := program.NewBuilder("fwd")
	b.Li(isa.R(1), 1024)
	b.Li(isa.R(4), 0)
	b.Li(isa.R(5), 30)
	b.Label("head")
	b.Add(isa.R(2), isa.R(4), isa.R(5))
	b.St(isa.R(1), 0, isa.R(2))
	b.Ld(isa.R(3), isa.R(1), 0)
	b.Addi(isa.R(3), isa.R(3), 1)
	b.St(isa.R(1), 8, isa.R(3))
	b.Addi(isa.R(4), isa.R(4), 1)
	b.Blt(isa.R(4), isa.R(5), "head")
	b.Halt()
	_, cpu := runBoth(t, b.MustBuild(), nil, []isa.Reg{isa.R(3)})
	if cpu.Stats().StoreForwards == 0 {
		t.Error("expected store-to-load forwarding")
	}
}

// memViolationProgram stores through an address that depends on a slow
// chain, then loads the same address: with speculation the load issues
// early, reads stale data, and must be squashed and replayed.
func memViolationProgram() *program.Program {
	b := program.NewBuilder("viol")
	b.Li(isa.R(1), 2048)
	b.Li(isa.R(2), 5)
	b.Li(isa.R(7), 4096)
	b.Li(isa.R(10), 0) // loop counter
	b.Li(isa.R(11), 50)
	b.Label("head")
	// Slow chain computing the store address (always r1).
	b.Mul(isa.R(3), isa.R(2), isa.R(2))
	b.Div(isa.R(4), isa.R(3), isa.R(2))
	b.Mul(isa.R(5), isa.R(4), isa.R(4))
	b.Div(isa.R(6), isa.R(5), isa.R(4))
	b.Div(isa.R(6), isa.R(6), isa.R(2)) // r6 = 1
	b.Mul(isa.R(8), isa.R(1), isa.R(6)) // r8 = r1 (slowly)
	b.Add(isa.R(9), isa.R(10), isa.R(11))
	b.St(isa.R(8), 0, isa.R(9)) // store to r1
	b.Ld(isa.R(12), isa.R(1), 0)
	b.St(isa.R(7), 0, isa.R(12)) // publish loaded value
	b.Addi(isa.R(7), isa.R(7), 8)
	b.Addi(isa.R(10), isa.R(10), 1)
	b.Blt(isa.R(10), isa.R(11), "head")
	b.Halt()
	return b.MustBuild()
}

func TestMemoryDependenceViolationRecovery(t *testing.T) {
	_, cpu := runBoth(t, memViolationProgram(), nil, []isa.Reg{isa.R(12)})
	if cpu.Stats().MemViolations == 0 {
		t.Error("expected memory-order violations under speculation")
	}
}

// TestOnSquashReportsOldestSquashed checks the sequence number
// Hooks.OnSquash reports: the oldest instruction the squash flushed. A
// mispredicted branch survives its squash, so that squash reports the
// branch's seq + 1; a memory-order squash flushes the stale load itself and
// a trace squash the invocation itself, so each reports that entry's own
// seq. Each case steps one cycle at a time, noting the ROB's entries as the
// cycle begins, and tells the squashes apart by the counter each bumps.
func TestOnSquashReportsOldestSquashed(t *testing.T) {
	var log traceLog
	cases := []struct {
		name  string
		p     *program.Program
		hooks Hooks
		want  string // the kind of squash the case must see
	}{
		{"branch mispredict", lcgBranchProgram(), Hooks{}, "branch"},
		{"memory order", memViolationProgram(), Hooks{}, "load"},
		{"trace", sumLoop(12), injectOneIter(&log), "trace"},
	}
	entryKind := func(e *ROBEntry) string {
		switch {
		case e.IsTrace():
			return "trace"
		case e.Inst.Op.IsBranch():
			return "branch"
		case e.Inst.Op.IsLoad():
			return "load"
		}
		return "other"
	}
	for _, tc := range cases {
		c := New(DefaultConfig(), tc.p, mem.New(), nil)
		kinds := map[uint64]string{} // the ROB's entries as the cycle began
		last := c.stats
		seen := map[string]int{}
		hooks := tc.hooks
		hooks.OnSquash = func(seq uint64) {
			kind := ""
			switch s := c.stats; {
			case s.TraceSquashes > last.TraceSquashes:
				kind = "trace"
			case s.MemViolations > last.MemViolations:
				kind = "load"
			case s.BranchMispredicts > last.BranchMispredicts:
				kind = "branch"
			}
			last = c.stats
			seen[kind]++
			live := c.rob.live()
			youngest := uint64(0)
			if len(live) > 0 {
				youngest = live[len(live)-1].Seq
			}
			switch kind {
			case "branch":
				if kinds[seq-1] != "branch" || youngest != seq-1 {
					t.Errorf("%s: cycle %d: branch squash reported %d; entry %d is a %q, youngest survivor %d",
						tc.name, c.cycle, seq, seq-1, kinds[seq-1], youngest)
				}
			case "load", "trace":
				if kinds[seq] != kind || youngest >= seq {
					t.Errorf("%s: cycle %d: %s squash reported %d, a %q; youngest survivor %d",
						tc.name, c.cycle, kind, seq, kinds[seq], youngest)
				}
			default:
				t.Errorf("%s: cycle %d: squash at %d bumped no squash counter", tc.name, c.cycle, seq)
			}
		}
		c.SetHooks(hooks)
		for !c.stats.HaltSeen {
			if c.cycle >= 2_000_000 {
				t.Fatalf("%s: no halt after %d cycles", tc.name, c.cycle)
			}
			clear(kinds)
			for _, e := range c.rob.live() {
				kinds[e.Seq] = entryKind(e)
			}
			last = c.stats
			c.step()
		}
		if seen[tc.want] == 0 {
			t.Errorf("%s: no %s squash seen (%v)", tc.name, tc.want, seen)
		}
	}
}

func TestConservativeModeNoViolations(t *testing.T) {
	// Same pattern, speculation off: loads wait, no violations possible.
	b := program.NewBuilder("cons")
	b.Li(isa.R(1), 2048)
	b.Li(isa.R(2), 5)
	b.Li(isa.R(10), 0)
	b.Li(isa.R(11), 20)
	b.Label("head")
	b.Mul(isa.R(3), isa.R(2), isa.R(2))
	b.Div(isa.R(4), isa.R(3), isa.R(2))
	b.Mul(isa.R(8), isa.R(1), isa.R(0)) // 0
	b.Add(isa.R(8), isa.R(8), isa.R(1)) // r1
	b.St(isa.R(8), 0, isa.R(10))
	b.Ld(isa.R(12), isa.R(1), 0)
	b.Addi(isa.R(10), isa.R(10), 1)
	b.Blt(isa.R(10), isa.R(11), "head")
	b.Halt()
	p := b.MustBuild()

	goldMem, oooMem := mem.New(), mem.New()
	gold := interp.New(goldMem)
	if err := gold.Run(p, 1_000_000); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MemSpeculation = false
	cpu := New(cfg, p, oooMem, nil)
	if err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	if eq, diff := goldMem.Equal(oooMem); !eq {
		t.Fatalf("memory mismatch: %s", diff)
	}
	if cpu.Stats().MemViolations != 0 {
		t.Errorf("conservative mode had %d violations", cpu.Stats().MemViolations)
	}
}

func TestFPPipeline(t *testing.T) {
	p := program.NewBuilder("fp").
		FLi(isa.F(1), 2.0).
		FLi(isa.F(2), 3.0).
		FMul(isa.F(3), isa.F(1), isa.F(2)).
		FAdd(isa.F(4), isa.F(3), isa.F(1)).
		FDiv(isa.F(5), isa.F(4), isa.F(2)).
		FSqt(isa.F(6), isa.F(3)).
		FSlt(isa.R(1), isa.F(1), isa.F(2)).
		ItoF(isa.F(7), isa.R(1)).
		FtoI(isa.R(2), isa.F(5)).
		Halt().
		MustBuild()
	runBoth(t, p, nil, []isa.Reg{isa.F(3), isa.F(4), isa.F(5), isa.F(6), isa.F(7), isa.R(1), isa.R(2)})
}

func TestArrayKernelWithMemory(t *testing.T) {
	const n = 64
	init := func(m *mem.Memory) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < n; i++ {
			m.WriteInt(uint64(i*8), int64(rng.Intn(1000)))
		}
	}
	// out[i] = a[i]*2 + 1, plus a running max
	b := program.NewBuilder("arr")
	b.Li(isa.R(1), 0)            // i
	b.Li(isa.R(2), n)            // n
	b.Li(isa.R(3), 0)            // &a
	b.Li(isa.R(4), 8*n)          // &out
	b.Li(isa.R(5), -1_000_000_0) // max
	b.Label("head")
	b.Ld(isa.R(6), isa.R(3), 0)
	b.Muli(isa.R(7), isa.R(6), 2)
	b.Addi(isa.R(7), isa.R(7), 1)
	b.St(isa.R(4), 0, isa.R(7))
	b.Max(isa.R(5), isa.R(5), isa.R(6))
	b.Addi(isa.R(3), isa.R(3), 8)
	b.Addi(isa.R(4), isa.R(4), 8)
	b.Addi(isa.R(1), isa.R(1), 1)
	b.Blt(isa.R(1), isa.R(2), "head")
	b.St(isa.R(0), 8*2*n, isa.R(5))
	b.Halt()
	runBoth(t, b.MustBuild(), init, []isa.Reg{isa.R(5)})
}

func TestIPCSuperscalar(t *testing.T) {
	// Eight independent chains: the 8-wide machine should clearly exceed
	// IPC 1.
	b := program.NewBuilder("ilp")
	for r := 1; r <= 8; r++ {
		b.Li(isa.R(r), int64(r))
	}
	// Long enough that the one-time cold-start icache miss amortizes.
	for k := 0; k < 600; k++ {
		for r := 1; r <= 4; r++ {
			b.Addi(isa.R(r), isa.R(r), 1)
		}
		for r := 5; r <= 8; r++ {
			b.Addi(isa.R(r), isa.R(r), 2)
		}
	}
	b.Halt()
	_, cpu := runBoth(t, b.MustBuild(), nil, []isa.Reg{isa.R(1), isa.R(8)})
	if ipc := cpu.Stats().IPC(); ipc < 2.0 {
		t.Errorf("IPC = %.2f, want ≥ 2 on independent chains", ipc)
	}
}

func TestSerialChainIPCBounded(t *testing.T) {
	// A single dependence chain cannot exceed IPC 1.
	b := program.NewBuilder("serial")
	b.Li(isa.R(1), 0)
	for k := 0; k < 400; k++ {
		b.Addi(isa.R(1), isa.R(1), 1)
	}
	b.Halt()
	_, cpu := runBoth(t, b.MustBuild(), nil, []isa.Reg{isa.R(1)})
	if ipc := cpu.Stats().IPC(); ipc > 1.2 {
		t.Errorf("IPC = %.2f on a serial chain, want ≈ 1", ipc)
	}
}

func TestR0NeverWritten(t *testing.T) {
	p := program.NewBuilder("r0").
		Li(isa.R(0), 99).
		Add(isa.R(1), isa.R(0), isa.R(0)).
		Halt().
		MustBuild()
	_, cpu := runBoth(t, p, nil, []isa.Reg{isa.R(1)})
	if got := cpu.ArchRegInt(isa.R(0)); got != 0 {
		t.Errorf("r0 = %d, want 0", got)
	}
}

func TestStatsSanity(t *testing.T) {
	p := program.NewBuilder("st").
		Li(isa.R(1), 5).
		Addi(isa.R(2), isa.R(1), 3).
		Halt().
		MustBuild()
	_, cpu := runBoth(t, p, nil, nil)
	s := cpu.Stats()
	if s.Fetched < 3 || s.Renamed < 3 || s.Committed != 3 {
		t.Errorf("stats = %+v", s)
	}
	if !s.HaltSeen {
		t.Error("HaltSeen = false after Run")
	}
	if s.Cycles == 0 || s.IPC() <= 0 {
		t.Error("cycles/IPC not populated")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.ROBSize = 0
	defer func() {
		if recover() == nil {
			t.Error("New with ROBSize=0 did not panic")
		}
	}()
	New(bad, program.NewBuilder("x").Halt().MustBuild(), mem.New(), nil)
}

func TestCycleBudgetError(t *testing.T) {
	p := program.NewBuilder("inf").
		Label("head").
		Jmp("head").
		Halt().
		MustBuild()
	cfg := DefaultConfig()
	cfg.MaxCycles = 10_000
	cpu := New(cfg, p, mem.New(), nil)
	if err := cpu.Run(); err == nil {
		t.Error("Run did not report budget exhaustion on infinite loop")
	}
}

// TestRunCtxStopsWhenCancelled cancels an endless loop from inside the
// simulation, in an OnCommit hook, and requires RunCtx to stop at its next
// context poll: within 8,192 cycles, with an error wrapping
// context.Canceled. The cycle budget is far beyond that, so a run loop that
// stops polling fails here on the budget instead.
func TestRunCtxStopsWhenCancelled(t *testing.T) {
	p := program.NewBuilder("inf").
		Label("head").
		Jmp("head").
		Halt().
		MustBuild()
	cfg := DefaultConfig()
	cfg.MaxCycles = 1_000_000
	cpu := New(cfg, p, mem.New(), nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelledAt uint64
	cpu.SetHooks(Hooks{OnCommit: func(pc int, seq uint64, op isa.Op) {
		if cancelledAt == 0 && cpu.Cycle() >= 20_000 {
			cancelledAt = cpu.Cycle()
			cancel()
		}
	}})
	err := cpu.RunCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx = %v, want an error wrapping context.Canceled", err)
	}
	if d := cpu.Cycle() - cancelledAt; d > 8192 {
		t.Errorf("RunCtx stopped %d cycles after the cancel at cycle %d, want at most 8192", d, cancelledAt)
	}
}

// Randomized differential test: random straight-line programs with loops and
// memory traffic agree with the interpreter.
func TestRandomProgramsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 15; trial++ {
		p := randomProgram(rng, trial)
		init := func(m *mem.Memory) {
			for i := 0; i < 128; i++ {
				m.WriteInt(uint64(i*8), int64(rng.Intn(100)))
			}
		}
		// Reseed so both memories get identical data.
		seed := rng.Int63()
		initSeeded := func(m *mem.Memory) {
			r2 := rand.New(rand.NewSource(seed))
			for i := 0; i < 128; i++ {
				m.WriteInt(uint64(i*8), int64(r2.Intn(100)))
			}
		}
		_ = init
		runBoth(t, p, initSeeded, []isa.Reg{isa.R(1), isa.R(2), isa.R(3), isa.R(4)})
	}
}

// randomProgram builds a loop over random arithmetic and memory ops that is
// guaranteed to terminate.
func randomProgram(rng *rand.Rand, trial int) *program.Program {
	b := program.NewBuilder("rand")
	b.Li(isa.R(1), 0)
	b.Li(isa.R(2), int64(20+rng.Intn(30))) // trip count
	b.Li(isa.R(3), 0)
	b.Li(isa.R(4), 1)
	b.Li(isa.R(10), 0) // memory cursor
	b.Label("head")
	nOps := 4 + rng.Intn(10)
	for i := 0; i < nOps; i++ {
		d := isa.R(3 + rng.Intn(6))
		s1 := isa.R(1 + rng.Intn(9))
		s2 := isa.R(1 + rng.Intn(9))
		switch rng.Intn(8) {
		case 0:
			b.Add(d, s1, s2)
		case 1:
			b.Sub(d, s1, s2)
		case 2:
			b.Xor(d, s1, s2)
		case 3:
			b.Min(d, s1, s2)
		case 4:
			b.Addi(d, s1, int64(rng.Intn(16)))
		case 5:
			b.Andi(d, s1, 0xff)
		case 6:
			// Bounded load: address = (s1 & 0x3f)*8
			b.Andi(isa.R(9), s1, 0x3f)
			b.Shli(isa.R(9), isa.R(9), 3)
			b.Ld(d, isa.R(9), 0)
		case 7:
			// Bounded store into the second half of the buffer.
			b.Andi(isa.R(9), s1, 0x3f)
			b.Shli(isa.R(9), isa.R(9), 3)
			b.St(isa.R(9), 1024, s2)
		}
	}
	b.Addi(isa.R(1), isa.R(1), 1)
	b.Blt(isa.R(1), isa.R(2), "head")
	b.Halt()
	return b.MustBuild()
}
