package fabric

import (
	"math"
	"testing"

	"dynaspam/internal/isa"
	"dynaspam/internal/memdep"
)

// peOf returns the first PE index of the given FU type in a stripe laid out
// by pool order, offset by unit.
func peOf(g Geometry, fu isa.FUType, unit int) int {
	idx := 0
	for t := isa.FUType(0); t < fu; t++ {
		idx += g.FUsPerStripe[t]
	}
	return idx + unit
}

func env(t *testing.T) EvalEnv {
	t.Helper()
	backing := map[uint64]uint64{}
	return EvalEnv{
		ReadMem:     func(addr uint64) uint64 { return backing[addr] },
		AccessMem:   func(addr uint64, write bool) int { return 2 },
		MemDep:      memdep.New(memdep.DefaultConfig()),
		Speculative: true,
	}
}

func TestGeometryDefaults(t *testing.T) {
	g := DefaultGeometry()
	if g.PEsPerStripe() != 12 {
		t.Errorf("PEsPerStripe = %d, want 12", g.PEsPerStripe())
	}
	if g.RouteCapacity() != 36 {
		t.Errorf("RouteCapacity = %d, want 36", g.RouteCapacity())
	}
	if g.InputPorts(0) != 2 || g.InputPorts(1) != 1 {
		t.Error("input port heterogeneity wrong")
	}
	g.Validate() // must not panic
}

func TestGeometryValidatePanics(t *testing.T) {
	g := DefaultGeometry()
	g.Stripes = 0
	defer func() {
		if recover() == nil {
			t.Error("Validate did not panic on 0 stripes")
		}
	}()
	g.Validate()
}

// buildAddChain maps: v0 = li0 + li1 (stripe 0); v1 = v0 + li2... a simple
// two-stripe dependent chain.
func chainConfig(g Geometry) *Config {
	alu0 := peOf(g, isa.FUIntALU, 0)
	alu1 := peOf(g, isa.FUIntALU, 1)
	return &Config{
		StartPC: 100,
		ExitPC:  110,
		LiveIns: []isa.Reg{isa.R(1), isa.R(2)},
		Insts: []MappedInst{
			{
				PC:     100,
				Inst:   isa.Inst{Op: isa.OpAdd, Dest: isa.R(3), Src1: isa.R(1), Src2: isa.R(2)},
				Stripe: 0, PE: alu0,
				Src: [2]Operand{{Kind: SrcLiveIn, Index: 0}, {Kind: SrcLiveIn, Index: 1}},
			},
			{
				PC:     101,
				Inst:   isa.Inst{Op: isa.OpAddi, Dest: isa.R(4), Src1: isa.R(3), Src2: isa.RegInvalid, Imm: 10},
				Stripe: 1, PE: alu1,
				Src: [2]Operand{{Kind: SrcProducer, Index: 0, Hops: 0}, {Kind: SrcNone}},
			},
		},
		LiveOuts:        []isa.Reg{isa.R(3), isa.R(4)},
		LiveOutProducer: []int{0, 1},
		StripesUsed:     2,
	}
}

func TestEvaluateChain(t *testing.T) {
	g := DefaultGeometry()
	cfg := chainConfig(g)
	if err := cfg.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	f := New(g)
	f.Configure(cfg, 0)
	res := f.Evaluate([]uint64{5, 7}, env(t))
	if !res.ExitMatches || res.MemViolation {
		t.Fatalf("unexpected squash: %+v", res)
	}
	if res.LiveOuts[0] != 12 || res.LiveOuts[1] != 22 {
		t.Errorf("live-outs = %v, want [12 22]", res.LiveOuts)
	}
	// Timing: live-ins at 1; add done at 2; addi start 2, done 3; +1 sync.
	if res.Latency != 4 {
		t.Errorf("latency = %d, want 4", res.Latency)
	}
	if res.LiveOutDelay[0] != 3 || res.LiveOutDelay[1] != 4 {
		t.Errorf("live-out delays = %v, want [3 4]", res.LiveOutDelay)
	}
	if res.Ops != 2 {
		t.Errorf("Ops = %d, want 2", res.Ops)
	}
}

func TestPassRegisterHopLatency(t *testing.T) {
	g := DefaultGeometry()
	alu0 := peOf(g, isa.FUIntALU, 0)
	// Producer at stripe 0, consumer at stripe 3: 2 hops = 2 extra cycles.
	cfg := &Config{
		StartPC: 0, ExitPC: 2,
		LiveIns: []isa.Reg{isa.R(1)},
		Insts: []MappedInst{
			{PC: 0, Inst: isa.Inst{Op: isa.OpAddi, Dest: isa.R(2), Src1: isa.R(1), Src2: isa.RegInvalid, Imm: 1},
				Stripe: 0, PE: alu0,
				Src: [2]Operand{{Kind: SrcLiveIn, Index: 0}, {Kind: SrcNone}}},
			{PC: 1, Inst: isa.Inst{Op: isa.OpAddi, Dest: isa.R(3), Src1: isa.R(2), Src2: isa.RegInvalid, Imm: 1},
				Stripe: 3, PE: alu0,
				Src: [2]Operand{{Kind: SrcProducer, Index: 0, Hops: 2}, {Kind: SrcNone}}},
		},
		LiveOuts:        []isa.Reg{isa.R(3)},
		LiveOutProducer: []int{1},
		StripesUsed:     4,
	}
	if err := cfg.Validate(g); err != nil {
		t.Fatal(err)
	}
	f := New(g)
	f.Configure(cfg, 0)
	res := f.Evaluate([]uint64{0}, env(t))
	// li at 1, inst0 done 2, hops +2 → inst1 start 4, done 5, +1 = 6.
	if res.Latency != 6 {
		t.Errorf("latency = %d, want 6", res.Latency)
	}
	if f.Stats().PassRegMoves != 2 {
		t.Errorf("PassRegMoves = %d, want 2", f.Stats().PassRegMoves)
	}
}

func TestBranchOnPathAndOffPath(t *testing.T) {
	g := DefaultGeometry()
	alu0 := peOf(g, isa.FUIntALU, 0)
	cfg := &Config{
		StartPC: 50, ExitPC: 60,
		LiveIns: []isa.Reg{isa.R(1), isa.R(2)},
		Insts: []MappedInst{
			{PC: 50, Inst: isa.Inst{Op: isa.OpBlt, Dest: isa.RegInvalid, Src1: isa.R(1), Src2: isa.R(2), Target: 99},
				Stripe: 0, PE: alu0,
				Src:         [2]Operand{{Kind: SrcLiveIn, Index: 0}, {Kind: SrcLiveIn, Index: 1}},
				ExpectTaken: false},
		},
		LiveOuts:        []isa.Reg{},
		LiveOutProducer: []int{},
		StripesUsed:     1,
	}
	f := New(g)
	f.Configure(cfg, 0)
	// On-path: 5 < 3 is false, matches ExpectTaken=false.
	res := f.Evaluate([]uint64{5, 3}, env(t))
	if !res.ExitMatches || res.ActualExitPC != 60 {
		t.Errorf("on-path: %+v", res)
	}
	if len(res.Branches) != 1 || res.Branches[0].Taken {
		t.Errorf("branches = %+v", res.Branches)
	}
	// Off-path: 1 < 3 is true → early exit to target 99.
	res = f.Evaluate([]uint64{1, 3}, env(t))
	if res.ExitMatches {
		t.Error("off-path invocation reported ExitMatches")
	}
	if res.ActualExitPC != 99 {
		t.Errorf("ActualExitPC = %d, want 99", res.ActualExitPC)
	}
	if f.Stats().EarlyExits != 1 {
		t.Errorf("EarlyExits = %d, want 1", f.Stats().EarlyExits)
	}
}

// memConfig: st [r1+0] = r2 ; ld r3 = [r1+0] — forwarding within the trace.
func memConfig(g Geometry) *Config {
	ld0 := peOf(g, isa.FULdSt, 0)
	ld1 := peOf(g, isa.FULdSt, 1)
	return &Config{
		StartPC: 10, ExitPC: 12,
		LiveIns: []isa.Reg{isa.R(1), isa.R(2)},
		Insts: []MappedInst{
			{PC: 10, Inst: isa.Inst{Op: isa.OpSt, Dest: isa.RegInvalid, Src1: isa.R(1), Src2: isa.R(2)},
				Stripe: 0, PE: ld0,
				Src: [2]Operand{{Kind: SrcLiveIn, Index: 0}, {Kind: SrcLiveIn, Index: 1}}},
			{PC: 11, Inst: isa.Inst{Op: isa.OpLd, Dest: isa.R(3), Src1: isa.R(1), Src2: isa.RegInvalid},
				Stripe: 1, PE: ld1,
				Src: [2]Operand{{Kind: SrcLiveIn, Index: 0}, {Kind: SrcNone}}},
		},
		LiveOuts:        []isa.Reg{isa.R(3)},
		LiveOutProducer: []int{1},
		StripesUsed:     2,
	}
}

func TestIntraTraceStoreForwarding(t *testing.T) {
	g := DefaultGeometry()
	cfg := memConfig(g)
	if err := cfg.Validate(g); err != nil {
		t.Fatal(err)
	}
	f := New(g)
	f.Configure(cfg, 0)
	e := env(t)
	e.Speculative = false // conservative: load ordered after store
	res := f.Evaluate([]uint64{512, 42}, e)
	if res.MemViolation || !res.ExitMatches {
		t.Fatalf("squash: %+v", res)
	}
	if res.LiveOuts[0] != 42 {
		t.Errorf("forwarded load = %d, want 42", res.LiveOuts[0])
	}
	if len(res.Stores) != 1 || res.Stores[0].Addr != 512 || res.Stores[0].Value != 42 {
		t.Errorf("stores = %+v", res.Stores)
	}
	if len(res.Loads) != 0 {
		t.Errorf("forwarded load recorded as external: %+v", res.Loads)
	}
}

func TestSpeculativeViolationAndRetrain(t *testing.T) {
	g := DefaultGeometry()
	cfg := memConfig(g)
	f := New(g)
	f.Configure(cfg, 0)
	e := env(t)

	// Make the store slow: give the store's value a producer chain?
	// Simpler: the load and store naturally race — the load (untrained)
	// starts at live-in time, same as the store; with both starting at 1
	// and the store finishing at 2, the load starting at 1 < 2 violates.
	res := f.Evaluate([]uint64{512, 42}, e)
	if !res.MemViolation {
		t.Fatalf("expected violation on untrained speculative alias, got %+v", res)
	}
	if !e.MemDep.SameSet(11, 10) {
		t.Error("violation did not train the store-sets unit")
	}
	// Retrained: the load now orders after the store and forwards.
	res = f.Evaluate([]uint64{512, 42}, e)
	if res.MemViolation {
		t.Fatal("violation repeated after training")
	}
	if res.LiveOuts[0] != 42 {
		t.Errorf("post-training load = %d, want 42", res.LiveOuts[0])
	}
	if f.Stats().Violations != 1 {
		t.Errorf("Violations = %d, want 1", f.Stats().Violations)
	}
}

func TestExternalLoadReadsEnvMemory(t *testing.T) {
	g := DefaultGeometry()
	ld0 := peOf(g, isa.FULdSt, 0)
	cfg := &Config{
		StartPC: 0, ExitPC: 1,
		LiveIns: []isa.Reg{isa.R(1)},
		Insts: []MappedInst{
			{PC: 0, Inst: isa.Inst{Op: isa.OpLd, Dest: isa.R(2), Src1: isa.R(1), Src2: isa.RegInvalid, Imm: 8},
				Stripe: 0, PE: ld0,
				Src: [2]Operand{{Kind: SrcLiveIn, Index: 0}, {Kind: SrcNone}}},
		},
		LiveOuts:        []isa.Reg{isa.R(2)},
		LiveOutProducer: []int{0},
		StripesUsed:     1,
	}
	f := New(g)
	f.Configure(cfg, 0)
	e := env(t)
	e.ReadMem = func(addr uint64) uint64 {
		if addr != 108 {
			t.Errorf("ReadMem addr = %d, want 108", addr)
		}
		return 777
	}
	res := f.Evaluate([]uint64{100}, e)
	if res.LiveOuts[0] != 777 {
		t.Errorf("load = %d, want 777", res.LiveOuts[0])
	}
	if len(res.Loads) != 1 || res.Loads[0].Addr != 108 || res.Loads[0].Value != 777 {
		t.Errorf("load records = %+v", res.Loads)
	}
}

func TestFPDataflow(t *testing.T) {
	g := DefaultGeometry()
	fp0 := peOf(g, isa.FUFPALU, 0)
	fpm := peOf(g, isa.FUFPMulDiv, 0)
	cfg := &Config{
		StartPC: 0, ExitPC: 2,
		LiveIns: []isa.Reg{isa.F(1), isa.F(2)},
		Insts: []MappedInst{
			{PC: 0, Inst: isa.Inst{Op: isa.OpFAdd, Dest: isa.F(3), Src1: isa.F(1), Src2: isa.F(2)},
				Stripe: 0, PE: fp0,
				Src: [2]Operand{{Kind: SrcLiveIn, Index: 0}, {Kind: SrcLiveIn, Index: 1}}},
			{PC: 1, Inst: isa.Inst{Op: isa.OpFMul, Dest: isa.F(4), Src1: isa.F(3), Src2: isa.F(3)},
				Stripe: 1, PE: fpm,
				Src: [2]Operand{{Kind: SrcProducer, Index: 0}, {Kind: SrcProducer, Index: 0}}},
		},
		LiveOuts:        []isa.Reg{isa.F(4)},
		LiveOutProducer: []int{1},
		StripesUsed:     2,
	}
	if err := cfg.Validate(g); err != nil {
		t.Fatal(err)
	}
	f := New(g)
	f.Configure(cfg, 0)
	res := f.Evaluate([]uint64{math.Float64bits(1.5), math.Float64bits(2.5)}, env(t))
	if got := math.Float64frombits(res.LiveOuts[0]); got != 16.0 {
		t.Errorf("fp result = %v, want 16", got)
	}
}

func TestConfigureReconfiguration(t *testing.T) {
	g := DefaultGeometry()
	c1, c2 := chainConfig(g), memConfig(g)
	f := New(g)
	if pen := f.Configure(c1, 32); pen != 32 {
		t.Errorf("first Configure penalty = %d, want 32", pen)
	}
	if pen := f.Configure(c1, 32); pen != 0 {
		t.Errorf("same-config penalty = %d, want 0", pen)
	}
	if pen := f.Configure(c2, 32); pen != 32 {
		t.Errorf("reconfigure penalty = %d, want 32", pen)
	}
	if f.Configured() != c2 {
		t.Error("Configured returned wrong config")
	}
}

func TestValidateRejections(t *testing.T) {
	g := DefaultGeometry()
	base := chainConfig(g)

	mutations := []struct {
		name string
		mut  func(c *Config)
	}{
		{"stripe out of range", func(c *Config) { c.Insts[0].Stripe = g.Stripes }},
		{"pe out of range", func(c *Config) { c.Insts[0].PE = g.PEsPerStripe() }},
		{"double booked PE", func(c *Config) { c.Insts[1].Stripe = 0; c.Insts[1].PE = c.Insts[0].PE }},
		{"forward producer", func(c *Config) { c.Insts[0].Src[0] = Operand{Kind: SrcProducer, Index: 1} }},
		{"same-stripe producer", func(c *Config) { c.Insts[1].Stripe = 0; c.Insts[1].PE = 9 }},
		{"wrong hops", func(c *Config) { c.Insts[1].Src[0].Hops = 5 }},
		{"two live-ins off row 0", func(c *Config) {
			c.Insts[0].Stripe = 2
			c.Insts[1].Src[0].Hops = 0
			c.Insts[1].Stripe = 3
		}},
		{"bad live-out producer", func(c *Config) { c.LiveOutProducer[0] = 99 }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			c := *base
			c.Insts = append([]MappedInst(nil), base.Insts...)
			c.LiveOutProducer = append([]int(nil), base.LiveOutProducer...)
			m.mut(&c)
			if err := c.Validate(g); err == nil {
				t.Errorf("Validate accepted %s", m.name)
			}
		})
	}
}

func TestLiveInFIFOLimit(t *testing.T) {
	g := DefaultGeometry()
	cfg := chainConfig(g)
	for i := 0; i < g.LiveInFIFOs; i++ {
		cfg.LiveIns = append(cfg.LiveIns, isa.R(5))
	}
	if err := cfg.Validate(g); err == nil {
		t.Error("Validate accepted too many live-ins")
	}
}

func TestPowerGatingStats(t *testing.T) {
	g := DefaultGeometry()
	cfg := chainConfig(g)
	f := New(g)
	f.Configure(cfg, 0)
	f.Evaluate([]uint64{1, 2}, env(t))
	s := f.Stats()
	if s.ActivePECycles == 0 || s.IdlePECycles == 0 {
		t.Errorf("power gating stats empty: %+v", s)
	}
	// 2 active PEs of 192 total.
	if s.ActivePECycles*95 > s.IdlePECycles {
		t.Errorf("active/idle ratio implausible: %d/%d", s.ActivePECycles, s.IdlePECycles)
	}
}

func TestEvaluateWithoutConfigPanics(t *testing.T) {
	f := New(DefaultGeometry())
	defer func() {
		if recover() == nil {
			t.Error("Evaluate without config did not panic")
		}
	}()
	f.Evaluate(nil, EvalEnv{})
}

func TestStartupDelayShiftsEverything(t *testing.T) {
	g := DefaultGeometry()
	cfg := chainConfig(g)
	f := New(g)
	f.Configure(cfg, 0)
	e := env(t)
	base := f.Evaluate([]uint64{1, 2}, e).Latency
	e.StartupDelay = 10
	delayed := f.Evaluate([]uint64{1, 2}, e).Latency
	if delayed != base+10 {
		t.Errorf("delayed latency = %d, want %d", delayed, base+10)
	}
}
