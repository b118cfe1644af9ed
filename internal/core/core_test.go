package core

import (
	"testing"

	"dynaspam/internal/interp"
	"dynaspam/internal/isa"
	"dynaspam/internal/mem"
	"dynaspam/internal/program"
)

// hotLoop builds a simple counted loop whose body has enough work to map:
// out[i] = a[i]*3 + i, for n iterations. Each iteration commits one branch,
// so a trace spans ~3 iterations.
func hotLoop(n int64) *program.Program {
	b := program.NewBuilder("hotloop")
	b.Li(isa.R(1), 0)   // i
	b.Li(isa.R(2), n)   // n
	b.Li(isa.R(3), 0)   // &a
	b.Li(isa.R(4), n*8) // &out
	b.Label("head")
	b.Ld(isa.R(5), isa.R(3), 0)
	b.Muli(isa.R(6), isa.R(5), 3)
	b.Add(isa.R(6), isa.R(6), isa.R(1))
	b.St(isa.R(4), 0, isa.R(6))
	b.Addi(isa.R(3), isa.R(3), 8)
	b.Addi(isa.R(4), isa.R(4), 8)
	b.Addi(isa.R(1), isa.R(1), 1)
	b.Blt(isa.R(1), isa.R(2), "head")
	b.Halt()
	return b.MustBuild()
}

func seedMem(m *mem.Memory, n int64) {
	for i := int64(0); i < n; i++ {
		m.WriteInt(uint64(i*8), i*7+1)
	}
}

// trainTaken trains the direction predictor so every conditional branch of
// p is predicted taken, as in a loop's steady state.
func trainTaken(sys *System, p *program.Program) {
	bp := sys.CPU().Branch()
	for pc := 0; pc < p.Len(); pc++ {
		in := p.At(pc)
		if !in.Op.IsCondBranch() {
			continue
		}
		for i := 0; i < 40; i++ {
			h := bp.History()
			bp.SpeculateHistory(true)
			bp.Update(uint64(pc), h, true)
		}
	}
}

// runMode executes the program under one mode and cross-checks architectural
// state against the golden interpreter.
func runMode(t *testing.T, p *program.Program, n int64, mode Mode) *System {
	t.Helper()
	goldMem := mem.New()
	seedMem(goldMem, n)
	gold := interp.New(goldMem)
	if err := gold.Run(p, 100_000_000); err != nil {
		t.Fatalf("interp: %v", err)
	}

	sysMem := mem.New()
	seedMem(sysMem, n)
	params := DefaultParams()
	params.Mode = mode
	sys := New(params, p, sysMem)
	if err := sys.Run(); err != nil {
		t.Fatalf("%v run: %v", mode, err)
	}
	if err := sys.Verify(); err != nil {
		t.Fatalf("%v verify: %v", mode, err)
	}
	if eq, diff := goldMem.Equal(sysMem); !eq {
		t.Fatalf("%v memory mismatch: %s", mode, diff)
	}
	if got, want := sys.CPU().Stats().Committed, gold.DynInsts; got != want {
		t.Errorf("%v committed = %d, interp executed %d", mode, got, want)
	}
	return sys
}

func TestBaselineMatchesInterp(t *testing.T) {
	runMode(t, hotLoop(500), 500, ModeBaseline)
}

func TestMappingOnlyProducesConfigs(t *testing.T) {
	sys := runMode(t, hotLoop(500), 500, ModeMappingOnly)
	if sys.MappedTraces() == 0 {
		t.Error("mapping-only run mapped no traces")
	}
	if sys.Stats().Offloads != 0 {
		t.Error("mapping-only run offloaded")
	}
	if sys.Stats().MappedCommits == 0 {
		t.Error("no instructions committed during mapping sessions")
	}
}

func TestAccelOffloadsAndMatches(t *testing.T) {
	sys := runMode(t, hotLoop(500), 500, ModeAccel)
	st := sys.Stats()
	if st.Offloads == 0 {
		t.Fatal("acceleration run never offloaded")
	}
	if st.TraceCommits == 0 {
		t.Fatal("no trace invocations committed")
	}
	if sys.CPU().Stats().TraceCommittedOps == 0 {
		t.Error("no instructions retired via the fabric")
	}
	if sys.OffloadedTraces() == 0 {
		t.Error("no distinct traces offloaded")
	}
}

func TestAccelNoSpecOffloadsAndMatches(t *testing.T) {
	sys := runMode(t, hotLoop(500), 500, ModeAccelNoSpec)
	if sys.Stats().Offloads == 0 {
		t.Fatal("no-spec acceleration never offloaded")
	}
}

func TestSpeedupOrdering(t *testing.T) {
	// The paper's headline: acceleration beats baseline; mapping-only is
	// within a few percent of baseline.
	p := hotLoop(3000)
	base := runMode(t, p, 3000, ModeBaseline).CPU().Stats().Cycles
	mapOnly := runMode(t, p, 3000, ModeMappingOnly).CPU().Stats().Cycles
	accel := runMode(t, p, 3000, ModeAccel).CPU().Stats().Cycles

	if accel >= base {
		t.Errorf("acceleration slower than baseline: %d >= %d cycles", accel, base)
	}
	overhead := float64(mapOnly)/float64(base) - 1
	if overhead > 0.05 {
		t.Errorf("mapping overhead %.1f%% exceeds 5%%", overhead*100)
	}
}

func TestDataDependentExitSquashes(t *testing.T) {
	// A loop with a data-dependent branch that flips rarely: the trace
	// built for the common path must squash (branch-exit) on the rare
	// path and re-execute on the host with identical results.
	b := program.NewBuilder("flip")
	b.Li(isa.R(1), 0)
	b.Li(isa.R(2), 2000)
	b.Li(isa.R(3), 0)
	b.Li(isa.R(7), 0)
	b.Label("head")
	b.Andi(isa.R(4), isa.R(1), 63) // rare: every 64th iteration
	b.Bne(isa.R(4), isa.R(0), "common")
	b.Addi(isa.R(7), isa.R(7), 100) // rare path
	b.Jmp("join")
	b.Label("common")
	b.Addi(isa.R(3), isa.R(3), 1) // common path
	b.Label("join")
	b.Addi(isa.R(1), isa.R(1), 1)
	b.Blt(isa.R(1), isa.R(2), "head")
	b.Halt()
	p := b.MustBuild()

	sys := runMode(t, p, 0, ModeAccel)
	st := sys.Stats()
	if st.Offloads == 0 {
		t.Skip("trace never became hot (acceptable for this pattern)")
	}
	// With a 1/64 rare path, some invocations must exit early.
	if st.BranchExits == 0 && st.TraceCommits > 100 {
		t.Error("no branch-exit squashes despite rare path")
	}
}

func TestFloatKernel(t *testing.T) {
	// FP-heavy loop: out[i] = sqrt(a[i]) * 2.0 + 1.0.
	b := program.NewBuilder("fp")
	n := int64(400)
	b.Li(isa.R(1), 0)
	b.Li(isa.R(2), n)
	b.Li(isa.R(3), 0)
	b.Li(isa.R(4), n*8)
	b.FLi(isa.F(1), 2.0)
	b.FLi(isa.F(2), 1.0)
	b.Label("head")
	b.FLd(isa.F(3), isa.R(3), 0)
	b.FSqt(isa.F(4), isa.F(3))
	b.FMul(isa.F(5), isa.F(4), isa.F(1))
	b.FAdd(isa.F(5), isa.F(5), isa.F(2))
	b.FSt(isa.R(4), 0, isa.F(5))
	b.Addi(isa.R(3), isa.R(3), 8)
	b.Addi(isa.R(4), isa.R(4), 8)
	b.Addi(isa.R(1), isa.R(1), 1)
	b.Blt(isa.R(1), isa.R(2), "head")
	b.Halt()
	p := b.MustBuild()

	goldMem := mem.New()
	sysMem := mem.New()
	for i := int64(0); i < n; i++ {
		goldMem.WriteFloat(uint64(i*8), float64(i)+0.5)
		sysMem.WriteFloat(uint64(i*8), float64(i)+0.5)
	}
	gold := interp.New(goldMem)
	if err := gold.Run(p, 10_000_000); err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	sys := New(params, p, sysMem)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if eq, diff := goldMem.Equal(sysMem); !eq {
		t.Fatalf("memory mismatch: %s", diff)
	}
	if sys.Stats().Offloads == 0 {
		t.Error("FP kernel never offloaded")
	}
}

func TestMemoryCarriedDependence(t *testing.T) {
	// A loop with a memory-carried dependence (prefix sum through
	// memory): a[i+1] += a[i]. The fabric's loads must observe older
	// stores — across invocations this exercises the host-side forwarding
	// view and violation snooping.
	b := program.NewBuilder("prefix")
	n := int64(600)
	b.Li(isa.R(1), 0)
	b.Li(isa.R(2), n-1)
	b.Li(isa.R(3), 0)
	b.Label("head")
	b.Ld(isa.R(5), isa.R(3), 0)
	b.Ld(isa.R(6), isa.R(3), 8)
	b.Add(isa.R(6), isa.R(6), isa.R(5))
	b.St(isa.R(3), 8, isa.R(6))
	b.Addi(isa.R(3), isa.R(3), 8)
	b.Addi(isa.R(1), isa.R(1), 1)
	b.Blt(isa.R(1), isa.R(2), "head")
	b.Halt()
	p := b.MustBuild()

	for _, mode := range []Mode{ModeAccel, ModeAccelNoSpec} {
		goldMem := mem.New()
		sysMem := mem.New()
		for i := int64(0); i < n; i++ {
			goldMem.WriteInt(uint64(i*8), i%5+1)
			sysMem.WriteInt(uint64(i*8), i%5+1)
		}
		gold := interp.New(goldMem)
		if err := gold.Run(p, 10_000_000); err != nil {
			t.Fatal(err)
		}
		params := DefaultParams()
		params.Mode = mode
		sys := New(params, p, sysMem)
		if err := sys.Run(); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if eq, diff := goldMem.Equal(sysMem); !eq {
			t.Fatalf("%v memory mismatch: %s", mode, diff)
		}
	}
}

func TestTraceLengthAffectsCoverage(t *testing.T) {
	p := hotLoop(2000)
	coverage := func(traceLen int) float64 {
		m := mem.New()
		seedMem(m, 2000)
		params := DefaultParams()
		params.TraceLen = traceLen
		sys := New(params, p, m)
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		st := sys.CPU().Stats()
		return float64(st.TraceCommittedOps) / float64(st.Committed)
	}
	c16 := coverage(16)
	c32 := coverage(32)
	if c32 <= 0 {
		t.Fatal("no fabric coverage at trace length 32")
	}
	// Loop body is 8 instructions; both lengths should cover well, and
	// the longer trace at least as much.
	if c32+0.05 < c16 {
		t.Errorf("coverage dropped: len16=%.2f len32=%.2f", c16, c32)
	}
}

func TestWalkTrace(t *testing.T) {
	p := hotLoop(100)
	m := mem.New()
	sys := New(DefaultParams(), p, m)
	// Train the predictor so the walk follows the loop: the backedge at
	// PC 11 is taken.
	trainTaken(sys, p)
	// PC 11 is the backedge blt.
	trace, key, exitPC, ok := sys.walkTrace(11)
	if !ok {
		t.Fatal("walkTrace failed on backedge")
	}
	if key.AnchorPC != 11 {
		t.Errorf("anchor = %d, want 11", key.AnchorPC)
	}
	if len(trace) < 2 || trace[0].PC != 11 {
		t.Errorf("trace head = %+v", trace[0])
	}
	if len(trace) > 32 {
		t.Errorf("trace length %d exceeds cap", len(trace))
	}
	_ = exitPC
	// Non-branch anchors do not form traces.
	if _, _, _, ok := sys.walkTrace(4); ok {
		t.Error("walkTrace accepted non-branch anchor")
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeBaseline:    "baseline",
		ModeMappingOnly: "mapping",
		ModeAccelNoSpec: "accel-nospec",
		ModeAccel:       "accel-spec",
	} {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", m, got, want)
		}
		if got, ok := ParseMode(want); !ok || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", want, got, ok, m)
		}
	}
	if got, ok := ParseMode(""); !ok || got != ModeAccel {
		t.Errorf("ParseMode(\"\") = %v, %v; want accel-spec", got, ok)
	}
	if _, ok := ParseMode("warp"); ok {
		t.Error("ParseMode accepted an unknown mode")
	}
	if ModeBaseline.Offloads() || ModeMappingOnly.Offloads() {
		t.Error("non-offloading mode reports Offloads")
	}
	if !ModeAccel.Offloads() || !ModeAccelNoSpec.Offloads() {
		t.Error("offloading mode reports !Offloads")
	}
}

func TestBadTraceLenPanics(t *testing.T) {
	params := DefaultParams()
	params.TraceLen = 1
	defer func() {
		if recover() == nil {
			t.Error("New with TraceLen=1 did not panic")
		}
	}()
	New(params, hotLoop(10), mem.New())
}
