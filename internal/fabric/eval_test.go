package fabric

import (
	"testing"
	"testing/quick"

	"dynaspam/internal/isa"
	"dynaspam/internal/memdep"
)

// evalEnv returns a deterministic environment backed by a map.
func evalEnv(spec bool) EvalEnv {
	backing := map[uint64]uint64{}
	return EvalEnv{
		ReadMem:     func(addr uint64) uint64 { return backing[addr] },
		AccessMem:   func(addr uint64, write bool) int { return 2 },
		MemDep:      memdep.New(memdep.DefaultConfig()),
		Speculative: spec,
	}
}

// arithChain builds a pure-arithmetic chain config of the given depth:
// v0 = li0+1; v1 = v0+1; ... across consecutive stripes.
func arithChain(g Geometry, depth int) *Config {
	cfg := &Config{StartPC: 0, ExitPC: depth, LiveIns: []isa.Reg{isa.R(1)}}
	for i := 0; i < depth; i++ {
		mi := MappedInst{
			PC:     i,
			Inst:   isa.Inst{Op: isa.OpAddi, Dest: isa.R(2), Src1: isa.R(1), Src2: isa.RegInvalid, Imm: 1},
			Stripe: i,
			PE:     0,
		}
		if i == 0 {
			mi.Src[0] = Operand{Kind: SrcLiveIn, Index: 0}
		} else {
			mi.Src[0] = Operand{Kind: SrcProducer, Index: i - 1}
		}
		cfg.Insts = append(cfg.Insts, mi)
	}
	cfg.LiveOuts = []isa.Reg{isa.R(2)}
	cfg.LiveOutProducer = []int{depth - 1}
	cfg.StripesUsed = depth
	return cfg
}

func TestEvaluateDeterministic(t *testing.T) {
	g := DefaultGeometry()
	cfg := arithChain(g, 5)
	f := New(g)
	f.Configure(cfg, 0)
	env := evalEnv(true)
	a := f.Evaluate([]uint64{7}, env)
	b := f.Evaluate([]uint64{7}, env)
	if a.Latency != b.Latency || a.LiveOuts[0] != b.LiveOuts[0] {
		t.Errorf("non-deterministic evaluation: %+v vs %+v", a, b)
	}
	if a.LiveOuts[0] != 12 {
		t.Errorf("chain result = %d, want 12", a.LiveOuts[0])
	}
}

// Property: chain latency grows linearly with depth (1 cycle per level).
func TestChainLatencyLinearProperty(t *testing.T) {
	g := DefaultGeometry()
	f := New(g)
	env := evalEnv(true)
	f2 := func(d uint8) bool {
		depth := int(d%14) + 2
		cfg := arithChain(g, depth)
		res := f.Run(Invocation{Cfg: cfg, LiveIns: []uint64{1}}, env)
		// live-in at 1; level i done at i+2; +1 sync.
		return res.Latency == depth+2
	}
	if err := quick.Check(f2, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the chain value equals live-in + depth for arbitrary inputs.
func TestChainValueProperty(t *testing.T) {
	g := DefaultGeometry()
	f := New(g)
	env := evalEnv(true)
	fn := func(v int32, d uint8) bool {
		depth := int(d%14) + 2
		cfg := arithChain(g, depth)
		res := f.Run(Invocation{Cfg: cfg, LiveIns: []uint64{uint64(int64(v))}}, env)
		return int64(res.LiveOuts[0]) == int64(v)+int64(depth)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestArrivalsEnablePartialOverlap(t *testing.T) {
	// Two independent chains, one fed by an early live-in, one by a late
	// one: with per-live-in arrivals the early chain's results are ready
	// long before Now, shrinking the invocation's residual latency.
	g := DefaultGeometry()
	cfg := &Config{StartPC: 0, ExitPC: 2, LiveIns: []isa.Reg{isa.R(1), isa.R(2)}}
	cfg.Insts = []MappedInst{
		{PC: 0, Inst: isa.Inst{Op: isa.OpAddi, Dest: isa.R(3), Src1: isa.R(1), Src2: isa.RegInvalid, Imm: 1},
			Stripe: 0, PE: 0, Src: [2]Operand{{Kind: SrcLiveIn, Index: 0}}},
		{PC: 1, Inst: isa.Inst{Op: isa.OpAddi, Dest: isa.R(4), Src1: isa.R(2), Src2: isa.RegInvalid, Imm: 1},
			Stripe: 0, PE: 1, Src: [2]Operand{{Kind: SrcLiveIn, Index: 1}}},
	}
	cfg.LiveOuts = []isa.Reg{isa.R(3), isa.R(4)}
	cfg.LiveOutProducer = []int{0, 1}
	cfg.StripesUsed = 1

	f := New(g)
	env := evalEnv(true)
	res := f.Run(Invocation{
		Cfg:      cfg,
		LiveIns:  []uint64{5, 9},
		Arrivals: []int64{100, 200}, // first live-in arrived 100 cycles ago
		Now:      200,
	}, env)
	if res.LiveOutDelay[0] != 1 {
		t.Errorf("early chain live-out delay = %d, want 1 (already computed)", res.LiveOutDelay[0])
	}
	if res.LiveOutDelay[1] <= 1 {
		t.Errorf("late chain live-out delay = %d, want > 1", res.LiveOutDelay[1])
	}
	if res.LiveOuts[0] != 6 || res.LiveOuts[1] != 10 {
		t.Errorf("values = %v", res.LiveOuts)
	}
}

func TestPrevStartsBoundInitiation(t *testing.T) {
	// Back-to-back invocations of the same config: the second may not
	// start an instruction on the same PE in the same cycle.
	g := DefaultGeometry()
	cfg := arithChain(g, 3)
	f := New(g)
	env := evalEnv(true)
	first := f.Run(Invocation{Cfg: cfg, LiveIns: []uint64{0}, Now: 0}, env)
	second := f.Run(Invocation{
		Cfg: cfg, LiveIns: []uint64{1},
		Arrivals:   []int64{0},
		PrevStarts: first.StartTimes,
		Now:        0,
	}, env)
	for i := range second.StartTimes {
		if second.StartTimes[i] <= first.StartTimes[i] {
			t.Errorf("inst %d: second start %d not after first %d",
				i, second.StartTimes[i], first.StartTimes[i])
		}
	}
}

func TestConservativeOrderAfter(t *testing.T) {
	// A lone load in conservative mode must wait for OrderAfter.
	g := DefaultGeometry()
	ldPE := peOf(g, isa.FULdSt, 0)
	cfg := &Config{StartPC: 0, ExitPC: 1, LiveIns: []isa.Reg{isa.R(1)}}
	cfg.Insts = []MappedInst{
		{PC: 0, Inst: isa.Inst{Op: isa.OpLd, Dest: isa.R(2), Src1: isa.R(1), Src2: isa.RegInvalid},
			Stripe: 0, PE: ldPE, Src: [2]Operand{{Kind: SrcLiveIn, Index: 0}}},
	}
	cfg.LiveOuts = []isa.Reg{isa.R(2)}
	cfg.LiveOutProducer = []int{0}
	cfg.StripesUsed = 1

	f := New(g)
	env := evalEnv(false) // conservative
	free := f.Run(Invocation{Cfg: cfg, LiveIns: []uint64{64}, Now: 0}, env)
	held := f.Run(Invocation{Cfg: cfg, LiveIns: []uint64{64}, Now: 0, OrderAfter: 50}, env)
	if held.Latency <= free.Latency {
		t.Errorf("OrderAfter did not delay: free %d, held %d", free.Latency, held.Latency)
	}
	if held.StartTimes[0] < 50 {
		t.Errorf("load started at %d, before OrderAfter 50", held.StartTimes[0])
	}
}

func TestLastStoreDoneReported(t *testing.T) {
	g := DefaultGeometry()
	cfg := memConfig(g) // store then load
	f := New(g)
	env := evalEnv(false)
	res := f.Run(Invocation{Cfg: cfg, LiveIns: []uint64{512, 42}, Now: 10}, env)
	if res.LastStoreDone <= 10 {
		t.Errorf("LastStoreDone = %d, want > Now", res.LastStoreDone)
	}
}

func TestRunPanicsOnNilConfig(t *testing.T) {
	f := New(DefaultGeometry())
	defer func() {
		if recover() == nil {
			t.Error("Run(nil config) did not panic")
		}
	}()
	f.Run(Invocation{}, evalEnv(true))
}
