package tcache

import (
	"testing"
	"testing/quick"
)

func feedPattern(t *TCache, n int) (TraceKey, bool) {
	// A stable 3-branch loop pattern: (10,T) (20,F) (30,T) repeated.
	pat := []struct {
		pc    int
		taken bool
	}{{10, true}, {20, false}, {30, true}}
	var key TraceKey
	var became bool
	for i := 0; i < n; i++ {
		b := pat[i%3]
		k, hot := t.OnBranchCommit(b.pc, b.taken)
		if hot {
			key, became = k, true
		}
	}
	return key, became
}

func TestHotDetection(t *testing.T) {
	tc := New(Config{Entries: 16, HotThreshold: 4, CounterMax: 15})
	key, became := feedPattern(tc, 3*6)
	if !became {
		t.Fatal("pattern never became hot")
	}
	if key.AnchorPC != 10 && key.AnchorPC != 20 && key.AnchorPC != 30 {
		t.Errorf("hot anchor = %d", key.AnchorPC)
	}
	if !tc.IsHot(key) {
		t.Error("IsHot = false for detected key")
	}
	// All three rotations eventually become hot.
	feedPattern(tc, 3*10)
	for _, want := range []TraceKey{
		{AnchorPC: 10, Dirs: DirsOf([]bool{true, false, true})},
		{AnchorPC: 20, Dirs: DirsOf([]bool{false, true, true})},
		{AnchorPC: 30, Dirs: DirsOf([]bool{true, true, false})},
	} {
		if !tc.IsHot(want) {
			t.Errorf("rotation %v not hot", want)
		}
	}
}

func TestColdBelowThreshold(t *testing.T) {
	tc := New(Config{Entries: 16, HotThreshold: 10, CounterMax: 15})
	if _, became := feedPattern(tc, 9); became {
		t.Error("became hot below threshold")
	}
}

func TestDirsPacking(t *testing.T) {
	d := DirsOf([]bool{true, false, true})
	if d != 0b101 {
		t.Errorf("DirsOf = %03b, want 101", d)
	}
	k := TraceKey{AnchorPC: 5, Dirs: d}
	if !k.Dir(0) || k.Dir(1) || !k.Dir(2) {
		t.Error("Dir bits wrong")
	}
	if got := k.String(); got != "pc5/101" {
		t.Errorf("String = %q", got)
	}
}

func TestDifferentPathsAreDifferentTraces(t *testing.T) {
	tc := New(Config{Entries: 16, HotThreshold: 2, CounterMax: 15})
	tc.OnBranchCommit(10, true)
	tc.OnBranchCommit(20, true)
	tc.OnBranchCommit(30, true) // key (10, TTT)
	tc.ResetWindow()
	tc.OnBranchCommit(10, true)
	tc.OnBranchCommit(20, false)
	tc.OnBranchCommit(30, true) // key (10, TFT)
	kTTT := TraceKey{AnchorPC: 10, Dirs: DirsOf([]bool{true, true, true})}
	kTFT := TraceKey{AnchorPC: 10, Dirs: DirsOf([]bool{true, false, true})}
	if tc.Counter(kTTT) != 1 || tc.Counter(kTFT) != 1 {
		t.Errorf("counters = %d, %d; want 1, 1", tc.Counter(kTTT), tc.Counter(kTFT))
	}
}

func TestUnhot(t *testing.T) {
	tc := New(Config{Entries: 16, HotThreshold: 2, CounterMax: 15})
	key, _ := feedPattern(tc, 12)
	if !tc.IsHot(key) {
		t.Fatal("setup: not hot")
	}
	tc.Unhot(key)
	if tc.IsHot(key) {
		t.Error("still hot after Unhot")
	}
	if tc.Counter(key) != 0 {
		t.Error("counter not cleared by Unhot")
	}
}

func TestDecay(t *testing.T) {
	tc := New(Config{Entries: 16, HotThreshold: 2, CounterMax: 15, DecayInterval: 30})
	key, _ := feedPattern(tc, 12)
	if !tc.IsHot(key) {
		t.Fatal("setup: not hot")
	}
	// Feed unrelated branches until decay clears the hot flag.
	for i := 0; i < 200; i++ {
		tc.OnBranchCommit(1000+i%7, i%2 == 0)
	}
	if tc.Counter(key) >= 2 && tc.IsHot(key) {
		t.Error("decay never cooled the entry")
	}
	if tc.Stats().Decays == 0 {
		t.Error("no decays counted")
	}
}

func TestLRUEviction(t *testing.T) {
	tc := New(Config{Entries: 4, HotThreshold: 2, CounterMax: 15})
	// Generate many distinct keys.
	for i := 0; i < 40; i++ {
		tc.OnBranchCommit(i*3, true)
		tc.OnBranchCommit(i*3+1, false)
		tc.OnBranchCommit(i*3+2, true)
		tc.ResetWindow()
	}
	if tc.Len() > 4 {
		t.Errorf("Len = %d, want <= 4", tc.Len())
	}
	if tc.Stats().Evictions == 0 {
		t.Error("no evictions counted")
	}
}

func TestWindowResetPreventsCrossRegionKeys(t *testing.T) {
	tc := New(Config{Entries: 16, HotThreshold: 1, CounterMax: 15})
	tc.OnBranchCommit(1, true)
	tc.OnBranchCommit(2, true)
	tc.ResetWindow()
	// Only two more branches: no complete window yet.
	tc.OnBranchCommit(3, true)
	if _, became := tc.OnBranchCommit(4, true); became {
		t.Error("key formed from pre-reset branches")
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Entries: 0, HotThreshold: 2, CounterMax: 15},
		{Entries: 4, HotThreshold: 0, CounterMax: 15},
		{Entries: 4, HotThreshold: 20, CounterMax: 15},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// Property: DirsOf/Dir round-trip for any 3 booleans, and SetDir builds
// the same key one direction at a time, over any prior bits.
func TestDirsRoundTripProperty(t *testing.T) {
	f := func(a, b, c bool, prior uint8) bool {
		k := TraceKey{Dirs: DirsOf([]bool{a, b, c})}
		s := TraceKey{Dirs: prior & 7}
		for i, d := range []bool{a, b, c} {
			s.SetDir(i, d)
		}
		return k.Dir(0) == a && k.Dir(1) == b && k.Dir(2) == c && s == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a counter never exceeds CounterMax.
func TestCounterSaturationProperty(t *testing.T) {
	tc := New(Config{Entries: 8, HotThreshold: 2, CounterMax: 7})
	feedPattern(tc, 300)
	for _, key := range []TraceKey{
		{AnchorPC: 10, Dirs: DirsOf([]bool{true, false, true})},
		{AnchorPC: 20, Dirs: DirsOf([]bool{false, true, true})},
	} {
		if c := tc.Counter(key); c > 7 {
			t.Errorf("counter %d exceeds max", c)
		}
	}
}
