package core

import (
	"context"
	"slices"
	"testing"

	"dynaspam/internal/interp"
	"dynaspam/internal/isa"
	"dynaspam/internal/mem"
	"dynaspam/internal/program"
	"dynaspam/internal/tcache"
	"dynaspam/internal/workloads"
)

// TestFastForwardAllocsZero pins the allocation contract of the sampled-
// simulation loop: once a first fast-forward region has created the
// kernel's pages, grown the page directory and filled the T-Cache's slots
// and index, a further region of a scaled kernel (loads, stores, cache
// warming, predictor and T-Cache training on every branch) allocates
// nothing.
func TestFastForwardAllocsZero(t *testing.T) {
	w, err := workloads.ByAbbrev("BFSX100")
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Mode = ModeAccel
	p.Sim.Mode = SimFastForward
	m := w.NewMemory()
	sys := New(p, w.Prog, m)
	it := interp.New(m)
	ctx := context.Background()
	if _, halted, err := sys.fastForward(ctx, it, 300_000); err != nil || halted {
		t.Fatalf("first region: halted %v, err %v", halted, err)
	}
	const region = 100_000
	var n uint64
	var halted bool
	avg := testing.AllocsPerRun(3, func() {
		n, halted, err = sys.fastForward(ctx, it, region)
	})
	if err != nil || halted || n != region {
		t.Fatalf("measured region ran %d of %d insts (halted %v, err %v); the guard measured less than a full region", n, region, halted, err)
	}
	if avg != 0 {
		t.Fatalf("fastForward over %d insts allocates %.1f times, want 0", region, avg)
	}
	if sys.tc.Stats().BranchesSeen == 0 {
		t.Fatal("no branch reached the T-Cache; the guard measured no training")
	}
}

// TestTraceDetectionAllocsZero pins the fetch-side half of the trace
// detection allocation contract: once the next-stop table exists, forming a
// trace key and a BeforeFetch that injects nothing perform zero heap
// allocations. Fetch consults both at every branch.
func TestTraceDetectionAllocsZero(t *testing.T) {
	p := hotLoop(100)
	sys := New(DefaultParams(), p, mem.New())
	trainTaken(sys, p)
	const backedge = 11
	keyed := 0
	key := func() {
		if _, ok := sys.traceKey(backedge); ok {
			keyed++
		}
	}
	key() // builds the next-stop table
	if avg := testing.AllocsPerRun(1000, key); avg != 0 {
		t.Fatalf("traceKey allocates %.2f allocs/call, want 0", avg)
	}
	if keyed == 0 {
		t.Fatal("traceKey never formed a key; the guard measured nothing")
	}

	injected := false
	fetch := func() {
		if sys.beforeFetch(backedge) != nil {
			injected = true
		}
	}
	if avg := testing.AllocsPerRun(1000, fetch); avg != 0 {
		t.Fatalf("beforeFetch without an inject allocates %.2f allocs/call, want 0", avg)
	}
	if injected || sys.session != nil {
		t.Fatal("beforeFetch injected or started a session; the guard must see the no-inject path")
	}
}

// TestSessionOwnsTrace: a mapping session keeps the trace it was started
// with, so a later walk from another anchor must not rewrite it. The
// session reads its trace when matching fetched PCs, so it must still
// accept the original trace's PCs in order after the second walk.
func TestSessionOwnsTrace(t *testing.T) {
	b := program.NewBuilder("twobranch")
	b.Li(isa.R(1), 0)
	b.Li(isa.R(2), 100)
	b.Li(isa.R(3), 0)
	b.Label("head")
	b.Ld(isa.R(5), isa.R(3), 0)
	b.Bne(isa.R(5), isa.R(0), "nz") // anchor A
	b.Addi(isa.R(6), isa.R(6), 1)
	b.Label("nz")
	b.Addi(isa.R(3), isa.R(3), 8)
	b.Addi(isa.R(1), isa.R(1), 1)
	b.Blt(isa.R(1), isa.R(2), "head") // anchor B
	b.Halt()
	p := b.MustBuild()
	const anchorA, anchorB = 4, 8

	sys := New(DefaultParams(), p, mem.New())
	trainTaken(sys, p)
	trace, key, _, ok := sys.walkTrace(anchorA)
	if !ok {
		t.Fatal("walkTrace failed at anchor A")
	}
	want := slices.Clone(trace)
	// Train the T-Cache until A's key is hot, so fetch starts a session.
	for i := uint32(0); i < sys.params.TCache.HotThreshold; i++ {
		sys.tc.ResetWindow()
		for d := 0; d < tcache.HistoryLen; d++ {
			sys.tc.OnBranchCommit(anchorA+100*d, key.Dir(d))
		}
	}
	if !sys.tc.IsHot(key) {
		t.Fatalf("setup: key %v not hot", key)
	}
	if sys.beforeFetch(anchorA) != nil || sys.session == nil {
		t.Fatal("setup: beforeFetch did not start a mapping session")
	}

	other, _, _, ok := sys.walkTrace(anchorB)
	if !ok || other[0].PC != anchorB {
		t.Fatal("setup: walkTrace failed at anchor B")
	}
	if got := sys.session.Len(); got != len(want) {
		t.Fatalf("session trace length %d after a second walk, want %d", got, len(want))
	}
	for i, ti := range want {
		if !sys.session.NoteFetched(ti.PC, uint64(1000+i)) {
			t.Fatalf("session rejected trace[%d] pc %d after a second walk: its trace was overwritten", i, ti.PC)
		}
	}
	if !sys.session.Covered() {
		t.Fatal("session did not cover its trace")
	}
}

// offloadLoop is an endless accelerated loop for the steady-state
// allocation guard. Its body runs register arithmetic and a load/store pair
// over a 64-word window, so nothing grows memory once the window's pages
// exist. With exitEvery > 0 it also takes a data-dependent branch: an LCG
// bit pattern skips one add once in exitEvery iterations on average, off
// the path the trace recorded, so that invocation exits and squashes.
func offloadLoop(exitEvery int64) *program.Program {
	b := program.NewBuilder("offload")
	b.Li(isa.R(1), 0)     // i
	b.Li(isa.R(2), 1<<62) // n: never reached
	b.Li(isa.R(3), 0)     // acc
	b.Li(isa.R(9), 12345) // lcg state
	b.Li(isa.R(10), exitEvery)
	b.Label("head")
	b.Andi(isa.R(4), isa.R(1), 63)
	b.Shli(isa.R(4), isa.R(4), 3)
	b.Ld(isa.R(5), isa.R(4), 0)
	b.Muli(isa.R(6), isa.R(5), 3)
	b.Add(isa.R(3), isa.R(3), isa.R(6))
	if exitEvery > 0 {
		b.Muli(isa.R(9), isa.R(9), 1103515245)
		b.Addi(isa.R(9), isa.R(9), 12345)
		b.Andi(isa.R(9), isa.R(9), 0x7fffffff)
		b.Shri(isa.R(11), isa.R(9), 16)
		b.Rem(isa.R(11), isa.R(11), isa.R(10))
		b.Beq(isa.R(11), isa.R(0), "skip")
		b.Addi(isa.R(3), isa.R(3), 1)
		b.Label("skip")
	}
	b.St(isa.R(4), 512, isa.R(3))
	b.Addi(isa.R(1), isa.R(1), 1)
	b.Blt(isa.R(1), isa.R(2), "head")
	b.Halt()
	return b.MustBuild()
}

// TestOffloadSteadyStateAllocsZero pins the allocation contract of the
// offload path: once the pools have grown, 50,000 committed instructions of
// an accelerated loop allocate nothing, trace invocations included (the
// pooled invocation record, its result and renamed registers, the fabric's
// records, the ROB entries). It runs a loop whose invocations all commit
// and one whose trace exits on a data-dependent branch, below the
// chronic-exit rate, so the squash path is measured too.
func TestOffloadSteadyStateAllocsZero(t *testing.T) {
	for _, tc := range []struct {
		name      string
		exitEvery int64
	}{
		{"commit-only", 0},
		{"exits", 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := offloadLoop(tc.exitEvery)
			sys := New(DefaultParams(), p, mem.New())
			cpu := sys.CPU()
			ctx := context.Background()
			if err := cpu.RunCommitsCtx(ctx, 300_000); err != nil {
				t.Fatal(err)
			}
			var before, after Stats
			avg := testing.AllocsPerRun(1, func() {
				before = sys.Stats()
				if err := cpu.RunCommitsCtx(ctx, 50_000); err != nil {
					t.Fatal(err)
				}
				after = sys.Stats()
			})
			commits := after.TraceCommits - before.TraceCommits
			squashes := after.TraceSquashes - before.TraceSquashes
			t.Logf("window: %d trace commits, %d squashes (%d branch exits)", commits, squashes, after.BranchExits-before.BranchExits)
			if avg != 0 {
				t.Errorf("50,000 commits allocate %.0f times, want 0", avg)
			}
			if commits == 0 {
				t.Error("no trace committed in the window; the guard measured no offload")
			}
			if tc.exitEvery > 0 && after.BranchExits == before.BranchExits {
				t.Error("no invocation exited in the window; the guard measured no squash")
			}
			if cpu.Stats().HaltSeen {
				t.Fatal("the loop halted")
			}
		})
	}
}
