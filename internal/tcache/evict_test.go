package tcache

import "testing"

// TestTraceKeyLess pins the total order used for eviction tie-breaks.
func TestTraceKeyLess(t *testing.T) {
	cases := []struct {
		a, b TraceKey
		want bool
	}{
		{TraceKey{1, 0}, TraceKey{2, 0}, true},
		{TraceKey{2, 0}, TraceKey{1, 7}, false},
		{TraceKey{3, 2}, TraceKey{3, 5}, true},
		{TraceKey{3, 5}, TraceKey{3, 2}, false},
		{TraceKey{3, 5}, TraceKey{3, 5}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("(%v).Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestEvictionTieBreak forces an lruTick tie across every resident entry
// and checks the evicted victim is the smallest TraceKey, on every trial.
// Through the public API ticks are unique, so determinism used to hold
// only by that accident; this is the regression test for the explicit
// (lruTick, TraceKey) total order.
func TestEvictionTieBreak(t *testing.T) {
	const entries = 8
	for trial := 0; trial < 64; trial++ {
		tc := New(Config{Entries: entries, HotThreshold: 2, CounterMax: 3})
		// Insert in an order rotated by the trial, so the smallest key
		// lands in a different slot each time and slot order cannot
		// stand in for key order.
		for j := 0; j < entries; j++ {
			i := (j + trial) % entries
			tc.lookup(TraceKey{AnchorPC: 100 + i, Dirs: uint8(i & 7)}, true)
		}
		// White-box: flatten every entry onto the same tick so only the
		// key order can decide the victim.
		for i := range tc.slots {
			tc.slots[i].lruTick = 7
		}
		tc.lookup(TraceKey{AnchorPC: 999}, true)

		if got := len(tc.slots); got != entries {
			t.Fatalf("trial %d: %d entries after eviction, want %d", trial, got, entries)
		}
		victim := TraceKey{AnchorPC: 100, Dirs: 0}
		if tc.find(victim) != nil {
			t.Fatalf("trial %d: smallest key %v survived; eviction picked an order-dependent victim", trial, victim)
		}
		for i := 1; i < entries; i++ {
			k := TraceKey{AnchorPC: 100 + i, Dirs: uint8(i & 7)}
			if tc.find(k) == nil {
				t.Fatalf("trial %d: non-victim %v was evicted", trial, k)
			}
		}
		if tc.find(TraceKey{AnchorPC: 999}) == nil {
			t.Fatalf("trial %d: newly inserted key missing", trial)
		}
		if tc.Stats().Evictions != 1 {
			t.Fatalf("trial %d: Evictions = %d, want 1", trial, tc.Stats().Evictions)
		}
	}
}
