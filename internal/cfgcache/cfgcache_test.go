package cfgcache

import (
	"testing"

	"dynaspam/internal/fabric"
	"dynaspam/internal/tcache"
)

func key(pc int) tcache.TraceKey {
	return tcache.TraceKey{AnchorPC: pc, Dirs: 0b101}
}

func fcfg() *fabric.Config {
	return &fabric.Config{StartPC: 0, ExitPC: 1}
}

func TestStoreLookupPromote(t *testing.T) {
	c := New(Config{Entries: 4, Threshold: 3, CounterMax: 7})
	k := key(10)
	fc := fcfg()
	e := c.Store(k, fc)
	if e.State != StateMapped {
		t.Fatal("fresh entry not in mapped state")
	}
	if got := c.Lookup(k); got == nil || got.Cfg != fc {
		t.Fatal("Lookup failed")
	}
	// Two predictions: still warming.
	c.Predicted(k)
	if st, ok := c.Predicted(k); !ok || st != StateMapped {
		t.Errorf("state after 2 predictions = %v", st)
	}
	// Third crosses threshold.
	if st, _ := c.Predicted(k); st != StateReady {
		t.Errorf("state after 3 predictions = %v, want ready", st)
	}
	if c.Stats().Ready != 1 {
		t.Errorf("Ready stat = %d", c.Stats().Ready)
	}
}

func TestPredictedUnknownKey(t *testing.T) {
	c := New(DefaultConfig())
	if _, ok := c.Predicted(key(1)); ok {
		t.Error("Predicted returned ok for unknown key")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Config{Entries: 2, Threshold: 2, CounterMax: 7})
	c.Store(key(1), fcfg())
	c.Store(key(2), fcfg())
	c.Lookup(key(1)) // refresh 1; 2 becomes LRU
	c.Store(key(3), fcfg())
	if c.Lookup(key(2)) != nil {
		t.Error("LRU entry survived eviction")
	}
	if c.Lookup(key(1)) == nil || c.Lookup(key(3)) == nil {
		t.Error("wrong entry evicted")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(DefaultConfig())
	k := key(5)
	c.Store(k, fcfg())
	c.Invalidate(k)
	if c.Lookup(k) != nil {
		t.Error("entry survived Invalidate")
	}
}

func TestDecayDemotes(t *testing.T) {
	c := New(Config{Entries: 4, Threshold: 2, CounterMax: 7, DecayInterval: 5})
	k := key(9)
	c.Store(k, fcfg())
	c.Predicted(k)
	c.Predicted(k) // ready
	other := key(11)
	c.Store(other, fcfg())
	for i := 0; i < 20; i++ {
		c.Predicted(other)
	}
	if e := c.Lookup(k); e != nil && e.State == StateReady && e.counter >= 2 {
		t.Error("decay never demoted idle ready entry")
	}
	if c.Stats().Decays == 0 {
		t.Error("no decays counted")
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with 0 entries did not panic")
		}
	}()
	New(Config{Entries: 0, Threshold: 1, CounterMax: 7})
}

func TestFabricsLRUAndLifetime(t *testing.T) {
	g := fabric.DefaultGeometry()
	f := NewFabrics(2, g, 32)
	cA, cB, cC := fcfg(), fcfg(), fcfg()

	instA, pen := f.Acquire(cA)
	if pen != 32 {
		t.Errorf("first acquire penalty = %d, want 32", pen)
	}
	for i := 0; i < 10; i++ {
		f.NoteInvocation(cA)
	}
	instB, _ := f.Acquire(cB)
	if instB == instA {
		t.Error("second config overwrote non-LRU fabric")
	}
	for i := 0; i < 4; i++ {
		f.NoteInvocation(cB)
	}
	// Third config evicts the LRU (A, acquired earliest).
	instC, pen := f.Acquire(cC)
	if pen != 32 {
		t.Errorf("reconfig penalty = %d, want 32", pen)
	}
	if instC != instA {
		t.Error("LRU policy picked wrong victim")
	}
	f.NoteInvocation(cC)

	// Lifetimes: A completed with 10; B live with 4; C live with 1.
	want := (10.0 + 4.0 + 1.0) / 3.0
	if got := f.AvgLifetime(); got != want {
		t.Errorf("AvgLifetime = %v, want %v", got, want)
	}
	if f.Reconfigurations() != 3 {
		t.Errorf("Reconfigurations = %d, want 3", f.Reconfigurations())
	}
}

func TestAcquireSameConfigNoPenalty(t *testing.T) {
	f := NewFabrics(1, fabric.DefaultGeometry(), 32)
	c := fcfg()
	f.Acquire(c)
	if _, pen := f.Acquire(c); pen != 0 {
		t.Errorf("re-acquire penalty = %d, want 0", pen)
	}
	if f.Reconfigurations() != 1 {
		t.Errorf("Reconfigurations = %d, want 1", f.Reconfigurations())
	}
}

func TestMoreFabricsFewerReconfigs(t *testing.T) {
	// Alternating two configs: 1 fabric thrashes, 2 fabrics never
	// reconfigure after warm-up (the Table 5 effect).
	cA, cB := fcfg(), fcfg()
	run := func(n int) uint64 {
		f := NewFabrics(n, fabric.DefaultGeometry(), 32)
		for i := 0; i < 20; i++ {
			f.Acquire(cA)
			f.NoteInvocation(cA)
			f.Acquire(cB)
			f.NoteInvocation(cB)
		}
		return f.Reconfigurations()
	}
	one, two := run(1), run(2)
	if one <= two {
		t.Errorf("reconfigs: 1 fabric %d, 2 fabrics %d; want strictly fewer with 2", one, two)
	}
	if two != 2 {
		t.Errorf("2-fabric reconfigs = %d, want 2 (warm-up only)", two)
	}
}

func TestNewFabricsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFabrics(0) did not panic")
		}
	}()
	NewFabrics(0, fabric.DefaultGeometry(), 0)
}
