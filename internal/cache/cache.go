// Package cache simulates the memory hierarchy of the evaluation platform:
// 64KB 2-way 2-cycle L1 instruction and data caches, a 2MB 8-way 20-cycle
// shared L2, and a fixed-latency main memory, all with 64-byte blocks and LRU
// replacement (Table 4 of the paper).
//
// The model is a latency/statistics model: it tracks tags and recency to
// decide hit or miss and returns the access latency in cycles. Data contents
// live in the flat mem.Memory; keeping timing and contents separate makes
// squash-and-replay in the out-of-order pipeline simple (timing state is
// monotonic, content state is architectural).
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	Assoc      int
	BlockBytes int
	HitLatency int // cycles, charged on a hit at this level
}

// Stats holds access counters for one cache level.
type Stats struct {
	Accesses  uint64
	Misses    uint64
	Evictions uint64
	Writeback uint64
}

// Cache is one level of set-associative cache with true-LRU replacement.
// A Cache is not safe for concurrent use, but distinct Caches share no
// state, so independent simulations can run in parallel.
type Cache struct {
	cfg      Config
	setShift uint // log2(BlockBytes): address bits below the set index
	setMask  uint64
	tagShift uint   // setShift + log2(sets): address bits below the tag
	lines    []line // sets × assoc
	stats    Stats
	lruClock uint64 // per-cache recency counter; see access
}

type line struct {
	valid bool
	dirty bool
	tag   uint64
	lru   uint64 // larger = more recently used
}

// New returns an empty cache. It panics if the geometry is not a power of
// two or the configuration is degenerate, since that indicates a programming
// error in experiment setup.
func New(cfg Config) *Cache {
	if cfg.BlockBytes <= 0 || cfg.Assoc <= 0 || cfg.SizeBytes <= 0 {
		panic(fmt.Sprintf("cache %s: bad geometry %+v", cfg.Name, cfg))
	}
	sets := cfg.SizeBytes / (cfg.BlockBytes * cfg.Assoc)
	if sets <= 0 || sets&(sets-1) != 0 || cfg.BlockBytes&(cfg.BlockBytes-1) != 0 {
		panic(fmt.Sprintf("cache %s: non-power-of-two geometry %+v", cfg.Name, cfg))
	}
	shift := uint(bits.TrailingZeros(uint(cfg.BlockBytes)))
	return &Cache{
		cfg:      cfg,
		setShift: shift,
		setMask:  uint64(sets - 1),
		tagShift: shift + uint(bits.TrailingZeros(uint(sets))),
		lines:    make([]line, sets*cfg.Assoc),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// access looks addr up through touch and counts the access. It returns
// hit, and whether a dirty block was evicted to make room (on miss fill).
func (c *Cache) access(addr uint64, write bool) (hit, dirtyEvict bool) {
	hit, evicted, dirtyEvict := c.touch(addr, write)
	c.stats.Accesses++
	if !hit {
		c.stats.Misses++
	}
	if evicted {
		c.stats.Evictions++
	}
	if dirtyEvict {
		c.stats.Writeback++
	}
	return hit, dirtyEvict
}

// touch looks addr up, updating tags and LRU state but no counter. On a
// miss it fills the block, and reports whether that evicted a valid block
// and whether the evicted block was dirty. The recency clock is a field of
// the cache (not a package global) so concurrent simulations never share
// mutable state; within one cache the clock ticks once per access, which
// is all true-LRU needs.
func (c *Cache) touch(addr uint64, write bool) (hit, evicted, dirtyEvict bool) {
	set := (addr >> c.setShift) & c.setMask
	tag := addr >> c.tagShift
	base := int(set) * c.cfg.Assoc
	c.lruClock++
	// Hit?
	for i := 0; i < c.cfg.Assoc; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == tag {
			l.lru = c.lruClock
			if write {
				l.dirty = true
			}
			return true, false, false
		}
	}
	// Miss: fill, evicting LRU.
	victim := base
	for i := 1; i < c.cfg.Assoc; i++ {
		l := &c.lines[base+i]
		if !l.valid {
			victim = base + i
			break
		}
		if l.lru < c.lines[victim].lru {
			victim = base + i
		}
	}
	v := &c.lines[victim]
	evicted, dirtyEvict = v.valid, v.valid && v.dirty
	*v = line{valid: true, dirty: write, tag: tag, lru: c.lruClock}
	return false, evicted, dirtyEvict
}

// Probe reports whether addr currently hits without updating any state.
func (c *Cache) Probe(addr uint64) bool {
	set := (addr >> c.setShift) & c.setMask
	tag := addr >> c.tagShift
	base := int(set) * c.cfg.Assoc
	for i := 0; i < c.cfg.Assoc; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Hierarchy ties an L1 (I or D) to a shared L2 and main memory and produces
// access latencies.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	MemLatency   int
	MemAccesses  uint64
	Prefetches   uint64
}

// DefaultHierarchy builds the Table 4 configuration: 64KB 2-way 2-cycle L1I
// and L1D, 2MB 8-way 20-cycle L2, 64-byte blocks, 200-cycle main memory.
func DefaultHierarchy() *Hierarchy {
	return &Hierarchy{
		L1I:        New(Config{Name: "L1I", SizeBytes: 64 << 10, Assoc: 2, BlockBytes: 64, HitLatency: 2}),
		L1D:        New(Config{Name: "L1D", SizeBytes: 64 << 10, Assoc: 2, BlockBytes: 64, HitLatency: 2}),
		L2:         New(Config{Name: "L2", SizeBytes: 2 << 20, Assoc: 8, BlockBytes: 64, HitLatency: 20}),
		MemLatency: 200,
	}
}

// AccessData returns the latency in cycles of a data access at addr.
func (h *Hierarchy) AccessData(addr uint64, write bool) int {
	lat := h.L1D.cfg.HitLatency
	hit, _ := h.L1D.access(addr, write)
	if hit {
		return lat
	}
	lat += h.L2.cfg.HitLatency
	hit2, _ := h.L2.access(addr, write)
	if hit2 {
		return lat
	}
	h.MemAccesses++
	return lat + h.MemLatency
}

// WarmData performs a functional-warming access on the data path: tags and
// LRU recency update exactly as in AccessData, but no counter moves: not
// the levels' Stats, not MemAccesses. Sampled simulation uses this to keep
// cache contents aging through fast-forwarded regions (SMARTS-style
// functional warming) without perturbing the statistics its detailed
// windows measure.
func (h *Hierarchy) WarmData(addr uint64, write bool) {
	if hit, _, _ := h.L1D.touch(addr, write); !hit {
		h.L2.touch(addr, write)
	}
}

// AccessInst returns the latency in cycles of an instruction fetch at addr.
func (h *Hierarchy) AccessInst(addr uint64) int {
	lat := h.L1I.cfg.HitLatency
	hit, _ := h.L1I.access(addr, false)
	if hit {
		return lat
	}
	lat += h.L2.cfg.HitLatency
	hit2, _ := h.L2.access(addr, false)
	if hit2 {
		return lat
	}
	h.MemAccesses++
	return lat + h.MemLatency
}

// PrefetchInst fills the block containing addr into the instruction path
// without charging latency (a simple next-line prefetcher; sequential fetch
// would otherwise pay a full memory round trip per 64-byte block).
func (h *Hierarchy) PrefetchInst(addr uint64) {
	if h.L1I.Probe(addr) {
		return
	}
	h.Prefetches++
	if !h.L2.Probe(addr) {
		h.L2.access(addr, false)
		h.MemAccesses++
	}
	h.L1I.access(addr, false)
}
