// Package cfgcache implements DynaSpAM's configuration cache (§3.1) and the
// multi-fabric reconfiguration manager used in the Table 5 experiment.
//
// A mapped trace's fabric configuration is stored under its TraceKey with a
// saturating counter: the counter increments each time fetch predicts the
// trace again, and only once it reaches a threshold is the entry marked
// ready and offloading begins. This filters out traces that were mapped but
// execute too rarely to amortize a reconfiguration. Counters decay
// periodically so stale traces release their fabric.
//
// The Fabrics manager holds N physical fabric instances and assigns
// configurations to them with an LRU policy, tracking configuration lifetime
// (invocations between reconfigurations) per the paper's Table 5.
package cfgcache

import (
	"fmt"

	"dynaspam/internal/fabric"
	"dynaspam/internal/probe"
	"dynaspam/internal/tcache"
)

// State is the lifecycle of a configuration entry.
type State int

const (
	// StateMapped: configuration produced, counter still warming up.
	StateMapped State = iota
	// StateReady: counter crossed the threshold; offloading enabled.
	StateReady
)

// Config sets cache geometry (Table 4: 16-entry, 3-bit counters, threshold
// 4).
type Config struct {
	Entries       int
	Threshold     uint32
	CounterMax    uint32
	DecayInterval int // decay counters every N predictions; 0 disables
}

// DefaultConfig returns the Table 4 configuration-cache setting.
func DefaultConfig() Config {
	return Config{Entries: 16, Threshold: 4, CounterMax: 7, DecayInterval: 1 << 14}
}

// Entry is one stored configuration.
type Entry struct {
	Key     tcache.TraceKey
	Cfg     *fabric.Config
	State   State
	counter uint32
	lruTick uint64
}

// Cache is the configuration cache.
type Cache struct {
	cfg     Config
	entries map[tcache.TraceKey]*Entry
	tick    uint64
	preds   int

	stats Stats
	probe *probe.Probe
}

// Stats counts cache activity.
type Stats struct {
	Stored      uint64
	Ready       uint64
	Evictions   uint64
	Predictions uint64
	Decays      uint64
	// Hits/Misses count Lookup calls that found / did not find an entry.
	Hits   uint64
	Misses uint64
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// New returns an empty configuration cache.
func New(cfg Config) *Cache {
	if cfg.Entries <= 0 || cfg.Threshold == 0 || cfg.CounterMax < cfg.Threshold {
		panic(fmt.Sprintf("cfgcache: bad config %+v", cfg))
	}
	return &Cache{cfg: cfg, entries: make(map[tcache.TraceKey]*Entry)}
}

// Store records a freshly mapped configuration under key with a zeroed
// counter (the mapping phase just completed).
func (c *Cache) Store(key tcache.TraceKey, fc *fabric.Config) *Entry {
	c.tick++
	if len(c.entries) >= c.cfg.Entries {
		if _, exists := c.entries[key]; !exists {
			// Same tie-break as tcache's eviction: (lruTick, TraceKey)
			// is a total order, so the victim never depends on map
			// iteration order.
			var victim *Entry
			//lint:allow mapiter victim selection minimizes over the total order (lruTick, TraceKey), so the result is iteration-order independent
			for _, e := range c.entries {
				if victim == nil || e.lruTick < victim.lruTick ||
					(e.lruTick == victim.lruTick && e.Key.Less(victim.Key)) {
					victim = e
				}
			}
			delete(c.entries, victim.Key)
			c.stats.Evictions++
			c.probe.CfgEvicted(victim.Key.AnchorPC, victim.Key.Dirs)
		}
	}
	e := &Entry{Key: key, Cfg: fc, State: StateMapped, lruTick: c.tick}
	c.entries[key] = e
	c.stats.Stored++
	if c.probe != nil {
		traceLen := 0
		if fc != nil { // tests store placeholder configs
			traceLen = len(fc.Insts)
		}
		c.probe.CfgStored(key.AnchorPC, key.Dirs, traceLen)
	}
	return e
}

// Lookup returns the entry for key, or nil.
func (c *Cache) Lookup(key tcache.TraceKey) *Entry {
	e := c.entries[key]
	if e != nil {
		c.stats.Hits++
		c.tick++
		e.lruTick = c.tick
	} else {
		c.stats.Misses++
	}
	return e
}

// Predicted notes that fetch predicted the trace again; it bumps the
// saturating counter and promotes the entry to ready at the threshold.
// It returns the entry's new state (and false if the key is unknown).
func (c *Cache) Predicted(key tcache.TraceKey) (State, bool) {
	e := c.Lookup(key)
	if e == nil {
		return StateMapped, false
	}
	c.stats.Predictions++
	if e.counter < c.cfg.CounterMax {
		e.counter++
	}
	if e.State == StateMapped && e.counter >= c.cfg.Threshold {
		e.State = StateReady
		c.stats.Ready++
		c.probe.CfgReady(key.AnchorPC, key.Dirs)
	}
	c.maybeDecay()
	return e.State, true
}

// Invalidate removes key (e.g. the trace proved unprofitable).
func (c *Cache) Invalidate(key tcache.TraceKey) { delete(c.entries, key) }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// SetProbe attaches the observability probe (nil disables; the default).
func (c *Cache) SetProbe(p *probe.Probe) { c.probe = p }

func (c *Cache) maybeDecay() {
	if c.cfg.DecayInterval <= 0 {
		return
	}
	c.preds++
	if c.preds < c.cfg.DecayInterval {
		return
	}
	c.preds = 0
	c.stats.Decays++
	for _, e := range c.entries {
		e.counter /= 2
		if e.counter < c.cfg.Threshold {
			e.State = StateMapped
		}
	}
}

// Fabrics manages N physical fabrics with LRU reconfiguration and records
// per-configuration lifetimes (Table 5).
type Fabrics struct {
	insts   []*fabric.Fabric
	lru     []uint64
	current []uint64 // invocations since last reconfiguration per fabric
	tick    uint64

	// ReconfigPenalty is the startup delay charged to the first
	// invocation after a reconfiguration.
	ReconfigPenalty int

	// lifetimeSum and lifetimes total and count the completed
	// configuration lifetimes, in invocations.
	lifetimeSum uint64
	lifetimes   int
	reconfigs   uint64
	probe       *probe.Probe
}

// NewFabrics builds n fabrics of geometry g.
func NewFabrics(n int, g fabric.Geometry, reconfigPenalty int) *Fabrics {
	if n <= 0 {
		panic("cfgcache: need at least one fabric")
	}
	f := &Fabrics{
		insts:           make([]*fabric.Fabric, n),
		lru:             make([]uint64, n),
		current:         make([]uint64, n),
		ReconfigPenalty: reconfigPenalty,
	}
	for i := range f.insts {
		f.insts[i] = fabric.New(g)
	}
	return f
}

// Acquire returns the fabric configured for cfg, reconfiguring the LRU
// fabric if necessary, plus the startup penalty for the next invocation
// (nonzero only right after reconfiguration).
func (f *Fabrics) Acquire(cfg *fabric.Config) (*fabric.Fabric, int) {
	f.tick++
	for i, inst := range f.insts {
		if inst.Configured() == cfg {
			f.lru[i] = f.tick
			return inst, 0
		}
	}
	// Reconfigure the LRU fabric.
	victim := 0
	for i := range f.insts {
		if f.lru[i] < f.lru[victim] {
			victim = i
		}
	}
	inst := f.insts[victim]
	if inst.Configured() != nil {
		f.lifetimeSum += f.current[victim]
		f.lifetimes++
	}
	f.current[victim] = 0
	f.lru[victim] = f.tick
	f.reconfigs++
	inst.Configure(cfg, f.ReconfigPenalty)
	f.probe.Reconfig(victim, f.ReconfigPenalty)
	return inst, f.ReconfigPenalty
}

// NoteInvocation records one invocation on the fabric currently holding cfg.
func (f *Fabrics) NoteInvocation(cfg *fabric.Config) {
	for i, inst := range f.insts {
		if inst.Configured() == cfg {
			f.current[i]++
			return
		}
	}
}

// AvgLifetime returns the mean number of invocations per configuration,
// counting both completed lifetimes and the live ones.
func (f *Fabrics) AvgLifetime() float64 {
	total, n := f.lifetimeSum, f.lifetimes
	for i, inst := range f.insts {
		if inst.Configured() != nil {
			total += f.current[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// Reconfigurations returns how many times any fabric was reprogrammed.
func (f *Fabrics) Reconfigurations() uint64 { return f.reconfigs }

// NumFabrics returns the number of managed fabrics.
func (f *Fabrics) NumFabrics() int { return len(f.insts) }

// Instance returns fabric i (for stats aggregation).
func (f *Fabrics) Instance(i int) *fabric.Fabric { return f.insts[i] }

// SetProbe attaches the observability probe to the manager and every
// managed fabric instance (nil disables; the default).
func (f *Fabrics) SetProbe(p *probe.Probe) {
	f.probe = p
	for _, inst := range f.insts {
		inst.SetProbe(p)
	}
}
