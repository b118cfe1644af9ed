package ooo

import (
	"testing"

	"dynaspam/internal/interp"
	"dynaspam/internal/isa"
	"dynaspam/internal/mem"
	"dynaspam/internal/program"
)

// sumLoop is a counted loop: r3 += r1; r1 += 1; blt r1, r2, head. The
// trace tests inject one loop iteration at its backedge (pc 5).
func sumLoop(n int64) *program.Program {
	b := program.NewBuilder("sum")
	b.Li(isa.R(1), 0)
	b.Li(isa.R(2), n)
	b.Li(isa.R(3), 0)
	b.Label("head")
	b.Add(isa.R(3), isa.R(3), isa.R(1))
	b.Addi(isa.R(1), isa.R(1), 1)
	b.Blt(isa.R(1), isa.R(2), "head")
	b.Halt()
	return b.MustBuild()
}

// traceLog records what the pipeline did with the invocations a test
// injected.
type traceLog struct {
	injected, evals, completes, commits int
	squashes                            []SquashKind
	// poison makes every invocation overwrite its inject and result in its
	// terminal callback (testInvocation.poison).
	poison bool
	// reported counts results that report a memory-order violation.
	reported int
	// blockOnce mirrors the framework's rule: an invocation that squashes
	// suppresses the next injection, so the host re-executes that
	// occurrence (otherwise an exiting final iteration would re-inject
	// forever).
	blockOnce bool
}

// testInvocation is a hand-built invocation and its own TraceHandler, the
// shape of the framework's pooled record: eval computes the result and log
// records the callbacks.
type testInvocation struct {
	TraceInject
	eval func(in TraceInput) TraceResult
	log  *traceLog
}

func (v *testInvocation) Evaluate(in TraceInput) TraceResult {
	v.log.evals++
	return v.eval(in)
}

func (v *testInvocation) Complete() { v.log.completes++ }

func (v *testInvocation) Commit() {
	v.log.commits++
	if v.log.poison {
		v.poison()
	}
}

func (v *testInvocation) Squash(kind SquashKind) {
	v.log.squashes = append(v.log.squashes, kind)
	v.log.blockOnce = true
	if v.log.poison {
		v.poison()
	}
}

// poison overwrites everything the pipeline could still reach through the
// inject with plausible but wrong values, as a recycled record would hold
// the next invocation's: so a read after the terminal callback changes the
// run instead of passing unnoticed. Each field gets fresh storage, since
// the template's slices are shared by every injection.
func (v *testInvocation) poison() {
	tr := &v.TraceInject
	tr.StartPC, tr.ExitPC = 0, 0
	tr.LiveIns = []isa.Reg{isa.R(2), isa.R(3)}
	tr.LiveOuts = []isa.Reg{isa.R(1), isa.R(2), isa.R(3), isa.R(4)}
	tr.PredDirs = []bool{false, false}
	tr.LoadPCs, tr.StorePCs = []int{0}, []int{0}
	tr.Conservative = !tr.Conservative
	tr.Handler = nil
	for i := range tr.liveInPhys {
		tr.liveInPhys[i] = 0
	}
	for i := range tr.liveOutPhys {
		tr.liveOutPhys[i] = 1
	}
	res := &tr.Result
	var flipped []BranchRec
	for range 8 {
		for _, b := range res.Branches {
			flipped = append(flipped, BranchRec{PC: b.PC, Taken: !b.Taken})
		}
	}
	*res = TraceResult{
		Latency:      1,
		LiveOuts:     []uint64{0xdead, 0xdead, 0xdead, 0xdead},
		Stores:       []StoreRecord{{Addr: 2048, Value: 0xdead}},
		Loads:        []LoadRecord{{Addr: 2048, Value: 0xdead}},
		Branches:     flipped,
		ExitMatches:  !res.ExitMatches,
		MemViolation: !res.MemViolation,
		Ops:          1000,
		ConfigWait:   1000,
	}
}

// newInvocation returns a handler-bound invocation of proto, evaluated by
// eval and logged to log.
func newInvocation(proto TraceInject, eval func(in TraceInput) TraceResult, log *traceLog) *testInvocation {
	v := &testInvocation{TraceInject: proto, eval: eval, log: log}
	v.Handler = v
	return v
}

// injectAtBackedge returns hooks that inject a fresh invocation from build
// whenever fetch reaches the branch at pc, except right after a squash
// (log.blockOnce).
func injectAtBackedge(pc int, log *traceLog, build func() *testInvocation) Hooks {
	return Hooks{
		BeforeFetch: func(fetchPC int) *TraceInject {
			if fetchPC != pc {
				return nil
			}
			if log.blockOnce {
				log.blockOnce = false
				return nil
			}
			log.injected++
			return &build().TraceInject
		},
	}
}

// oneIterInject is a fat atomic instruction equivalent to one loop
// iteration of sumLoop starting at the backedge (pc 5): blt taken, then
// add/addi. Live-ins r1, r2, r3; live-outs r3, r1.
var oneIterInject = TraceInject{
	StartPC:  5,
	ExitPC:   5,
	LiveIns:  []isa.Reg{isa.R(1), isa.R(2), isa.R(3)},
	LiveOuts: []isa.Reg{isa.R(3), isa.R(1)},
	PredDirs: []bool{true},
}

// oneIterEval evaluates oneIterInject.
func oneIterEval(in TraceInput) TraceResult {
	r1, r2, r3 := int64(in.LiveIns[0]), int64(in.LiveIns[1]), int64(in.LiveIns[2])
	if r1 >= r2 {
		// The backedge would not be taken: off the recorded path.
		return TraceResult{
			ExitMatches:  false,
			ActualExitPC: 6,
			Branches:     []BranchRec{{PC: 5, Taken: false}},
			Latency:      3,
			Ops:          1,
		}
	}
	return TraceResult{
		ExitMatches:  true,
		ActualExitPC: 5,
		Branches:     []BranchRec{{PC: 5, Taken: true}},
		LiveOuts:     []uint64{uint64(r3 + r1), uint64(r1 + 1)},
		Latency:      4,
		Ops:          3,
	}
}

// injectOneIter returns hooks injecting oneIterInject at sumLoop's
// backedge.
func injectOneIter(log *traceLog) Hooks {
	return injectAtBackedge(5, log, func() *testInvocation {
		return newInvocation(oneIterInject, oneIterEval, log)
	})
}

func TestTraceInjectCommitsAtomically(t *testing.T) {
	const n = 40
	p := sumLoop(n)
	cpu := New(DefaultConfig(), p, mem.New(), nil)
	var log traceLog
	cpu.SetHooks(injectOneIter(&log))
	if err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	// Architectural result: sum 0..n-1.
	if got := cpu.ArchRegInt(isa.R(3)); got != n*(n-1)/2 {
		t.Errorf("r3 = %d, want %d", got, n*(n-1)/2)
	}
	if got := cpu.ArchRegInt(isa.R(1)); got != n {
		t.Errorf("r1 = %d, want %d", got, n)
	}
	if log.injected == 0 || log.evals == 0 || log.commits == 0 {
		t.Errorf("inject/eval/commit = %d/%d/%d, want all > 0", log.injected, log.evals, log.commits)
	}
	if log.injected != log.commits+len(log.squashes) {
		t.Errorf("accounting: injected %d != commits %d + squashes %d", log.injected, log.commits, len(log.squashes))
	}
	if log.completes < log.commits {
		t.Errorf("%d invocations committed but only %d completed on the fabric", log.commits, log.completes)
	}
	if cpu.Stats().TraceCommittedOps == 0 {
		t.Error("no ops retired via traces")
	}
}

func TestTraceInjectBranchExitSquashes(t *testing.T) {
	// Inject with a wrong recorded direction at the loop's end: the final
	// iteration's invocation must squash with a branch-exit and the host
	// must re-execute it, preserving the architectural result.
	const n = 12
	p := sumLoop(n)
	cpu := New(DefaultConfig(), p, mem.New(), nil)
	var log traceLog
	cpu.SetHooks(injectOneIter(&log))
	if err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	if got := cpu.ArchRegInt(isa.R(3)); got != n*(n-1)/2 {
		t.Errorf("r3 = %d, want %d", got, n*(n-1)/2)
	}
	foundExit := false
	for _, k := range log.squashes {
		if k == SquashBranchExit {
			foundExit = true
		}
	}
	if !foundExit {
		t.Errorf("no branch-exit squash recorded (kinds %v)", log.squashes)
	}
	if cpu.Stats().TraceSquashes == 0 {
		t.Error("TraceSquashes = 0")
	}
}

// storeLoop writes i to out[i] each iteration.
func storeLoop(n int64) *program.Program {
	b := program.NewBuilder("stloop")
	b.Li(isa.R(1), 0)
	b.Li(isa.R(2), n)
	b.Li(isa.R(4), 1024) // out base
	b.Label("head")
	b.St(isa.R(4), 0, isa.R(1))
	b.Addi(isa.R(4), isa.R(4), 8)
	b.Addi(isa.R(1), isa.R(1), 1)
	b.Blt(isa.R(1), isa.R(2), "head")
	b.Halt()
	return b.MustBuild()
}

// storeIterInject is one storeLoop iteration from its backedge (the blt at
// pc 6): blt taken, then the store at pc 3 and both increments. It exits at
// pc 6 on its recorded path and at the halt (pc 7) off it. Live-ins r1, r2,
// r4; live-outs r4, r1.
var storeIterInject = TraceInject{
	StartPC:  6,
	ExitPC:   6,
	LiveIns:  []isa.Reg{isa.R(1), isa.R(2), isa.R(4)},
	LiveOuts: []isa.Reg{isa.R(4), isa.R(1)},
	PredDirs: []bool{true},
	StorePCs: []int{3},
}

// storeIterEval evaluates storeIterInject.
func storeIterEval(in TraceInput) TraceResult {
	r1, r2, r4 := int64(in.LiveIns[0]), int64(in.LiveIns[1]), int64(in.LiveIns[2])
	if r1 >= r2 {
		return TraceResult{ExitMatches: false, ActualExitPC: 7,
			Branches: []BranchRec{{PC: 6, Taken: false}}, Latency: 2, Ops: 1}
	}
	return TraceResult{
		ExitMatches:  true,
		ActualExitPC: 6,
		Branches:     []BranchRec{{PC: 6, Taken: true}},
		Stores:       []StoreRecord{{PC: 3, Addr: uint64(r4), Value: uint64(r1)}},
		LiveOuts:     []uint64{uint64(r4 + 8), uint64(r1 + 1)},
		Latency:      4,
		Ops:          4,
	}
}

func TestTraceInjectStoresApplyAtCommit(t *testing.T) {
	const n = 24
	p := storeLoop(n)
	m := mem.New()
	cpu := New(DefaultConfig(), p, m, nil)
	var log traceLog
	cpu.SetHooks(injectAtBackedge(6, &log, func() *testInvocation {
		return newInvocation(storeIterInject, storeIterEval, &log)
	}))
	if err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	if log.injected == 0 {
		t.Fatal("nothing injected")
	}
	for i := int64(0); i < n; i++ {
		if got := m.ReadInt(uint64(1024 + i*8)); got != i {
			t.Fatalf("out[%d] = %d, want %d", i, got, i)
		}
	}
	if cpu.Stats().TraceFabricStores == 0 {
		t.Error("no fabric stores counted")
	}
}

func TestTraceInjectHostForwardsFromTraceStores(t *testing.T) {
	// A host load younger than an in-flight invocation must observe the
	// invocation's buffered store.
	b := program.NewBuilder("fwd")
	b.Li(isa.R(1), 5)
	b.Li(isa.R(2), 2048)
	b.Jmp("load") // inject here: a trace anchors at a branch
	b.Label("load")
	b.Ld(isa.R(3), isa.R(2), 0) // the host loads the stored value
	b.Halt()
	p := b.MustBuild()

	cpu := New(DefaultConfig(), p, mem.New(), nil)
	var log traceLog
	cpu.SetHooks(Hooks{
		BeforeFetch: func(pc int) *TraceInject {
			if pc != 2 || log.injected > 0 {
				return nil
			}
			log.injected++
			// The jmp plus a store the fabric performs: the invocation
			// exits to the load.
			store := TraceInject{
				StartPC: 2, ExitPC: 3,
				LiveIns:  []isa.Reg{isa.R(1), isa.R(2)},
				LiveOuts: []isa.Reg{},
			}
			return &newInvocation(store, func(in TraceInput) TraceResult {
				return TraceResult{
					ExitMatches:  true,
					ActualExitPC: 3,
					Branches:     []BranchRec{{PC: 2, Taken: true}},
					Stores:       []StoreRecord{{PC: 99, Addr: in.LiveIns[1], Value: 777}},
					LiveOuts:     []uint64{},
					Latency:      6,
					Ops:          1,
				}
			}, &log).TraceInject
		},
	})
	if err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	if got := cpu.ArchRegInt(isa.R(3)); got != 777 {
		t.Errorf("host load = %d, want 777 (forwarded from trace store buffer)", got)
	}
}

func TestSquashKindStrings(t *testing.T) {
	for k, want := range map[SquashKind]string{
		SquashBranchExit: "branch-exit",
		SquashMemOrder:   "mem-order",
		SquashExternal:   "external",
		SquashKind(99):   "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("SquashKind(%d) = %q, want %q", k, got, want)
		}
	}
}

func TestTraceLiveOutPipelining(t *testing.T) {
	// With per-live-out delays, a dependent successor invocation can
	// begin before the previous one fully completes: verify total cycles
	// beat a serialized bound.
	const n = 200
	p := sumLoop(n)
	cpu := New(DefaultConfig(), p, mem.New(), nil)
	var log traceLog
	// Long tail latency, early live-outs: pipelining should hide the tail.
	pipelined := func(in TraceInput) TraceResult {
		res := oneIterEval(in)
		if res.ExitMatches {
			res.Latency = 30
			res.LiveOutDelay = []int{2, 2}
		}
		return res
	}
	cpu.SetHooks(injectAtBackedge(5, &log, func() *testInvocation {
		return newInvocation(oneIterInject, pipelined, &log)
	}))
	if err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	if got := cpu.ArchRegInt(isa.R(3)); got != n*(n-1)/2 {
		t.Fatalf("r3 = %d, want %d", got, n*(n-1)/2)
	}
	// Serialized invocations would cost >= injected*30 cycles; pipelined
	// execution must be far below that.
	if cpu.Stats().Cycles > uint64(log.injected*30) {
		t.Errorf("cycles = %d with %d invocations: live-out pipelining ineffective",
			cpu.Stats().Cycles, log.injected)
	}
}

// squashLoop mixes a fabric trace with everything that can end one. The
// invocation is injected at the backedge (pc 19) and covers blt, add, addi
// and a load of [2048]. An older host store writes [2048] through an
// address a divide computes late, so a speculative invocation can read a
// stale value and squash for memory order; an LCG branch before the
// backedge mispredicts and squashes younger invocations, in the ROB or
// still in the front end; the last iteration exits the trace.
func squashLoop(n int64) *program.Program {
	b := program.NewBuilder("squashes")
	b.Li(isa.R(1), 0)
	b.Li(isa.R(2), n)
	b.Li(isa.R(3), 0)
	b.Li(isa.R(9), 12345)
	b.Li(isa.R(11), 2048)
	b.Li(isa.R(13), 1)
	b.Label("head")
	b.Add(isa.R(3), isa.R(3), isa.R(1))
	b.Addi(isa.R(1), isa.R(1), 1)
	b.Ld(isa.R(10), isa.R(11), 0)
	b.Div(isa.R(12), isa.R(11), isa.R(13))
	b.Div(isa.R(12), isa.R(12), isa.R(13))
	b.St(isa.R(12), 0, isa.R(1))
	b.Muli(isa.R(9), isa.R(9), 1103515245)
	b.Addi(isa.R(9), isa.R(9), 12345)
	b.Andi(isa.R(9), isa.R(9), 0x7fffffff)
	b.Shri(isa.R(14), isa.R(9), 16)
	b.Andi(isa.R(14), isa.R(14), 7)
	b.Beq(isa.R(14), isa.R(0), "skip")
	b.Addi(isa.R(15), isa.R(15), 1)
	b.Label("skip")
	b.Blt(isa.R(1), isa.R(2), "head")
	b.Halt()
	return b.MustBuild()
}

// squashIterInject is squashLoop's invocation: live-ins r1, r2, r3, r11;
// live-outs r3, r1, r10.
var squashIterInject = TraceInject{
	StartPC:  19,
	ExitPC:   9,
	LiveIns:  []isa.Reg{isa.R(1), isa.R(2), isa.R(3), isa.R(11)},
	LiveOuts: []isa.Reg{isa.R(3), isa.R(1), isa.R(10)},
	PredDirs: []bool{true},
	LoadPCs:  []int{8},
}

// TestTerminalCallbackComesLast pins the TraceHandler rule that the
// terminal callback comes last: a handler that poisons its inject and
// result at Commit and Squash, as a recycled record would, must leave the
// run exactly as a clean handler does (architectural registers, memory,
// Stats and CPI stack). The loop commits invocations and squashes them for
// every reason: a branch exit, a memory-order violation found by an older
// store and one reported by the fabric, and external squashes.
func TestTerminalCallbackComesLast(t *testing.T) {
	const n = 300
	p := squashLoop(n)
	run := func(poison bool) (*CPU, *mem.Memory, *traceLog) {
		log := &traceLog{poison: poison}
		eval := func(in TraceInput) TraceResult {
			r1, r2, r3, addr := int64(in.LiveIns[0]), int64(in.LiveIns[1]), int64(in.LiveIns[2]), in.LiveIns[3]
			if r1 >= r2 {
				return TraceResult{ActualExitPC: 20, Branches: []BranchRec{{PC: 19, Taken: false}}, Latency: 3, Ops: 1}
			}
			v := in.ReadMem(addr)
			// Every seventh evaluation reports a violation inside the
			// invocation, as the fabric's own check would.
			violated := log.evals%7 == 0
			if violated {
				log.reported++
			}
			return TraceResult{
				ExitMatches:  true,
				ActualExitPC: 9,
				Branches:     []BranchRec{{PC: 19, Taken: true}},
				Loads:        []LoadRecord{{PC: 8, Addr: addr, Value: v}},
				LiveOuts:     []uint64{uint64(r3 + r1), uint64(r1 + 1), v},
				Latency:      5,
				Ops:          4,
				MemViolation: violated,
			}
		}
		// Store sets that clear often let the older-store violation
		// recur after the unit has learned it. The clean run takes about
		// 10,000 cycles; the budget stops a run that a stale read sent
		// back to the start.
		cfg := DefaultConfig()
		cfg.MemDep.CyclicClearInterval = 32
		cfg.MaxCycles = 1_000_000
		m := mem.New()
		cpu := New(cfg, p, m, nil)
		cpu.SetHooks(injectAtBackedge(19, log, func() *testInvocation {
			return newInvocation(squashIterInject, eval, log)
		}))
		if err := cpu.Run(); err != nil {
			t.Fatal(err)
		}
		return cpu, m, log
	}
	clean, cleanMem, log := run(false)
	gold := interp.New(mem.New())
	if err := gold.Run(p, 1_000_000); err != nil {
		t.Fatal(err)
	}
	for r := isa.Reg(0); r < 16; r++ {
		if got, want := clean.ArchRegInt(isa.R(int(r))), gold.ReadReg(isa.R(int(r))); got != want {
			t.Errorf("clean handler: r%d = %d, want %d", r, got, want)
		}
	}
	kinds := map[SquashKind]int{}
	for _, k := range log.squashes {
		kinds[k]++
	}
	if log.commits == 0 || kinds[SquashBranchExit] == 0 || kinds[SquashExternal] == 0 || kinds[SquashMemOrder] <= log.reported {
		t.Fatalf("coverage: %d commits, squashes %v (%d reported violations); want commits, exits, external squashes and an older-store violation",
			log.commits, kinds, log.reported)
	}
	t.Logf("%d commits, squashes %v (%d reported violations)", log.commits, kinds, log.reported)

	poisoned, poisonedMem, _ := run(true)
	for r := 0; r < 16; r++ {
		if got, want := poisoned.ArchRegInt(isa.R(r)), clean.ArchRegInt(isa.R(r)); got != want {
			t.Errorf("poisoned handler: r%d = %d, clean %d", r, got, want)
		}
	}
	if eq, diff := cleanMem.Equal(poisonedMem); !eq {
		t.Errorf("poisoned handler changed memory: %s", diff)
	}
	if got, want := poisoned.Stats(), clean.Stats(); got != want {
		t.Errorf("poisoned handler changed Stats:\n got %+v\nwant %+v", got, want)
	}
	if got, want := *poisoned.CPIStack(), *clean.CPIStack(); got != want {
		t.Errorf("poisoned handler changed the CPI stack:\n got %v\nwant %v", got.Buckets, want.Buckets)
	}
}
