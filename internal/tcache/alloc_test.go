package tcache

import "testing"

// TestOnBranchCommitAllocsZero pins the commit-side half of the trace
// detection allocation contract: feeding a branch whose key is already
// tracked performs zero heap allocations (the window is fixed arrays and
// the key is packed as the branches arrive). The framework calls
// OnBranchCommit on every committed branch, so a regression here is GC
// churn across every run.
func TestOnBranchCommitAllocsZero(t *testing.T) {
	tc := New(DefaultConfig())
	pat := [...]committedBranch{{10, true}, {20, false}, {30, true}}
	i := 0
	commit := func() {
		b := pat[i%len(pat)]
		tc.OnBranchCommit(b.pc, b.taken)
		i++
	}
	// Warm-up: two laps of the loop create the entries of all three
	// rotations; afterwards every call hits a tracked key.
	for k := 0; k < 2*len(pat); k++ {
		commit()
	}
	// AllocsPerRun truncates to whole allocations per run, and a window
	// that reallocates only every few branches would average below one, so
	// each run feeds a batch of branches.
	const batch = 64
	misses := tc.Stats().Misses
	avg := testing.AllocsPerRun(100, func() {
		for k := 0; k < batch; k++ {
			commit()
		}
	})
	if avg != 0 {
		t.Fatalf("OnBranchCommit on a tracked key allocates %.2f allocs per %d calls, want 0", avg, batch)
	}
	if got := tc.Stats().Misses; got != misses {
		t.Fatalf("measured calls missed %d times; the guard must only see tracked keys", got-misses)
	}
}
