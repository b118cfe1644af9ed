package cache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func small() *Cache {
	// 4 sets × 2 ways × 64B = 512B
	return New(Config{Name: "t", SizeBytes: 512, Assoc: 2, BlockBytes: 64, HitLatency: 2})
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	if hit, _ := c.access(0x100, false); hit {
		t.Error("cold access hit")
	}
	if hit, _ := c.access(0x100, false); !hit {
		t.Error("second access missed")
	}
	if hit, _ := c.access(0x13f, false); !hit {
		t.Error("same-block access missed")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 3 accesses 1 miss", s)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := small()
	// Three blocks mapping to the same set (set stride = 4 sets * 64B = 256B).
	a, b, d := uint64(0x000), uint64(0x400), uint64(0x800)
	c.access(a, false)
	c.access(b, false)
	c.access(a, false) // a is now MRU, b is LRU
	c.access(d, false) // evicts b
	if !c.Probe(a) {
		t.Error("a evicted, want retained (MRU)")
	}
	if c.Probe(b) {
		t.Error("b retained, want evicted (LRU)")
	}
	if !c.Probe(d) {
		t.Error("d not present after fill")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := small()
	c.access(0x000, true) // dirty
	c.access(0x400, false)
	_, dirtyEvict := c.access(0x800, false) // evicts dirty 0x000
	if !dirtyEvict {
		t.Error("dirty eviction not reported")
	}
	if c.Stats().Writeback != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writeback)
	}
}

func TestProbeDoesNotMutate(t *testing.T) {
	c := small()
	c.Probe(0x40)
	if c.Stats().Accesses != 0 {
		t.Error("Probe counted as access")
	}
	c.access(0x000, false)
	c.access(0x400, false)
	c.Probe(0x000) // must NOT refresh LRU
	c.access(0x800, false)
	if c.Probe(0x000) {
		t.Error("Probe refreshed LRU ordering")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "z", SizeBytes: 0, Assoc: 2, BlockBytes: 64},
		{Name: "n", SizeBytes: 500, Assoc: 2, BlockBytes: 64},
		{Name: "b", SizeBytes: 512, Assoc: 2, BlockBytes: 48},
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

func TestHierarchyLatencies(t *testing.T) {
	h := DefaultHierarchy()
	// Cold: L1 miss + L2 miss + memory.
	if got := h.AccessData(0x1000, false); got != 2+20+200 {
		t.Errorf("cold data latency = %d, want 222", got)
	}
	// Warm: L1 hit.
	if got := h.AccessData(0x1000, false); got != 2 {
		t.Errorf("warm data latency = %d, want 2", got)
	}
	if h.MemAccesses != 1 {
		t.Errorf("MemAccesses = %d, want 1", h.MemAccesses)
	}
	// Instruction path has its own L1 but shares L2: a fetch of the block
	// the data access warmed misses L1I yet hits L2.
	if got := h.AccessInst(0x1000); got != 2+20 {
		t.Errorf("L2-warm inst latency = %d, want 22", got)
	}
	if got := h.AccessInst(0x1000); got != 2 {
		t.Errorf("warm inst latency = %d, want 2", got)
	}
	// A genuinely cold block goes all the way to memory.
	if got := h.AccessInst(0x2000000); got != 222 {
		t.Errorf("cold inst latency = %d, want 222", got)
	}
}

func TestL2HitAfterL1Evict(t *testing.T) {
	h := DefaultHierarchy()
	h.AccessData(0x0, false)
	// L1D is 64KB 2-way with 512 sets: same-set stride is 32KB.
	h.AccessData(0x8000, false)
	h.AccessData(0x10000, false) // evicts 0x0 from L1 but it stays in L2
	if got := h.AccessData(0x0, false); got != 2+20 {
		t.Errorf("L2 hit latency = %d, want 22", got)
	}
}

// Property: after accessing address a, an immediate re-access hits,
// regardless of intervening accesses to fewer than assoc other blocks in the
// same set.
func TestHitAfterFillProperty(t *testing.T) {
	f := func(addr uint64) bool {
		c := small()
		addr &= 0xffffff
		c.access(addr, false)
		hit, _ := c.access(addr, false)
		return hit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: working set of `assoc` blocks in one set never thrashes.
func TestAssocWorkingSetProperty(t *testing.T) {
	f := func(seed uint16) bool {
		c := small()
		setStride := uint64(4 * 64)
		a := uint64(seed) * 64
		b := a + setStride
		c.access(a, false)
		c.access(b, false)
		for i := 0; i < 10; i++ {
			if h, _ := c.access(a, false); !h {
				return false
			}
			if h, _ := c.access(b, false); !h {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestWarmDataMatchesAccessData: one random data stream, warmed into one
// hierarchy and accessed in another, leaves both in the same state, and
// the warmed one with every counter at zero. The state is compared line
// by line, through Probe on every block of the stream's range, and through
// the outcomes of a second stream accessed in both, which also reads the
// dirty bits back as writebacks.
func TestWarmDataMatchesAccessData(t *testing.T) {
	tiny := func() *Hierarchy {
		return &Hierarchy{
			L1I:        small(),
			L1D:        small(),
			L2:         New(Config{Name: "L2", SizeBytes: 2048, Assoc: 4, BlockBytes: 64, HitLatency: 20}),
			MemLatency: 200,
		}
	}
	warmed, accessed := tiny(), tiny()
	rng := rand.New(rand.NewSource(1))
	const span = 16 << 10 // eight times the L2, so both levels evict
	for i := 0; i < 20000; i++ {
		addr, write := uint64(rng.Int63n(span)), rng.Intn(3) == 0
		warmed.WarmData(addr, write)
		accessed.AccessData(addr, write)
	}
	for _, c := range []*Cache{warmed.L1I, warmed.L1D, warmed.L2} {
		if c.Stats() != (Stats{}) {
			t.Errorf("%s: warming counted %+v", c.cfg.Name, c.Stats())
		}
	}
	if warmed.MemAccesses != 0 {
		t.Errorf("warming counted %d memory accesses", warmed.MemAccesses)
	}
	if !slices.Equal(warmed.L1D.lines, accessed.L1D.lines) || !slices.Equal(warmed.L2.lines, accessed.L2.lines) {
		t.Fatal("warmed and accessed hierarchies hold different lines")
	}
	for addr := uint64(0); addr < span; addr += 64 {
		if warmed.L1D.Probe(addr) != accessed.L1D.Probe(addr) || warmed.L2.Probe(addr) != accessed.L2.Probe(addr) {
			t.Fatalf("block %#x: warmed and accessed hierarchies disagree on Probe", addr)
		}
	}
	// The second stream starts from zeroed counters on both sides.
	for _, h := range []*Hierarchy{warmed, accessed} {
		h.L1I.stats, h.L1D.stats, h.L2.stats, h.MemAccesses = Stats{}, Stats{}, Stats{}, 0
	}
	for i := 0; i < 5000; i++ {
		addr, write := uint64(rng.Int63n(span)), rng.Intn(3) == 0
		if a, b := warmed.AccessData(addr, write), accessed.AccessData(addr, write); a != b {
			t.Fatalf("access %d at %#x: latency %d after warming, %d after accessing", i, addr, a, b)
		}
	}
	if warmed.L1D.Stats() != accessed.L1D.Stats() || warmed.L2.Stats() != accessed.L2.Stats() || warmed.MemAccesses != accessed.MemAccesses {
		t.Errorf("second stream counted L1D %+v L2 %+v mem %d after warming, L1D %+v L2 %+v mem %d after accessing",
			warmed.L1D.Stats(), warmed.L2.Stats(), warmed.MemAccesses, accessed.L1D.Stats(), accessed.L2.Stats(), accessed.MemAccesses)
	}
}
