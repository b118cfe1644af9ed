// Package tcache implements DynaSpAM's trace detection unit (§3.1): a trace
// cache-like structure that recognizes recurring instruction sequences across
// multiple basic blocks.
//
// A trace is identified by a TraceKey: the PC of its anchor branch and the
// directions of the three consecutive dynamic branches that begin there. On
// every committed branch the T-Cache shifts the outcome into a small history
// buffer, forms the key of the trace that just completed, and bumps its
// saturating counter; once the counter crosses the hot threshold the entry's
// hot flag is set and the fetch stage may start a mapping session for it.
// Counters are periodically decayed so infrequent traces do not pin the
// fabric.
//
// The table is fully associative with true-LRU eviction: any key can take
// any of the Entries slots, and a miss on a full table evicts the entry
// least recently looked up, ties broken by the smaller TraceKey. The slots
// are a slice; a dense index keyed by AnchorPC<<3|Dirs maps each tracked
// key to its slot, so a lookup costs one slice index instead of a hash.
// Anchor PCs are program PCs, so the index stays small: it grows only to
// cover the largest anchor seen.
package tcache

import (
	"fmt"
	"math"

	"dynaspam/internal/probe"
)

// HistoryLen is the number of branch outcomes in a trace key (footnote 1 of
// the paper: three).
const HistoryLen = 3

// TraceKey uniquely identifies a trace: anchor branch PC plus the directions
// of the HistoryLen branches starting at the anchor, packed LSB-first
// (Dirs&1 is the anchor branch's own direction).
type TraceKey struct {
	AnchorPC int
	Dirs     uint8
}

// String implements fmt.Stringer.
func (k TraceKey) String() string {
	return fmt.Sprintf("pc%d/%03b", k.AnchorPC, k.Dirs)
}

// DirsOf packs a slice of branch directions into the Dirs field.
func DirsOf(taken []bool) uint8 {
	var d uint8
	for i, t := range taken {
		if i >= HistoryLen {
			break
		}
		if t {
			d |= 1 << uint(i)
		}
	}
	return d
}

// Dir returns direction i of the key (0 = anchor branch).
func (k TraceKey) Dir(i int) bool { return k.Dirs>>uint(i)&1 == 1 }

// SetDir records direction i of the key (0 = anchor branch), so a key can
// be built one branch at a time without collecting the directions first.
func (k *TraceKey) SetDir(i int, taken bool) {
	if taken {
		k.Dirs |= 1 << uint(i)
	} else {
		k.Dirs &^= 1 << uint(i)
	}
}

// Less orders keys by (AnchorPC, Dirs). It exists so LRU victim selection
// in this package and cfgcache can break lruTick ties deterministically:
// selection must be a pure function of cache contents, never of map
// iteration order.
func (k TraceKey) Less(o TraceKey) bool {
	if k.AnchorPC != o.AnchorPC {
		return k.AnchorPC < o.AnchorPC
	}
	return k.Dirs < o.Dirs
}

// Config sets the T-Cache geometry.
type Config struct {
	// Entries bounds the number of tracked trace keys.
	Entries int
	// HotThreshold is the counter value at which an entry is flagged hot.
	HotThreshold uint32
	// CounterMax saturates the counters.
	CounterMax uint32
	// DecayInterval halves all counters every N observed branches
	// (periodic clearing per §3.1); 0 disables decay.
	DecayInterval int
}

// DefaultConfig returns the evaluation setting: 256 entries, hot at 8
// sightings, 6-bit counters, decay every 64K branches.
func DefaultConfig() Config {
	return Config{Entries: 256, HotThreshold: 8, CounterMax: 63, DecayInterval: 1 << 16}
}

type entry struct {
	key     TraceKey
	counter uint32
	hot     bool
	lruTick uint64
}

// TCache is the trace detection unit.
type TCache struct {
	cfg Config
	// slots holds the tracked entries, at most cfg.Entries, in no
	// particular order; index[k] is 1 + the slot of the key whose
	// indexKey is k, or 0 when that key is untracked.
	slots    []entry
	index    []int32
	tick     uint64
	branches int

	// window holds the last HistoryLen committed branches, oldest first;
	// its first n slots are valid (n saturates at HistoryLen). A fixed
	// array keeps OnBranchCommit allocation-free.
	window [HistoryLen]committedBranch
	n      int

	stats Stats
	probe *probe.Probe
}

type committedBranch struct {
	pc    int
	taken bool
}

// Stats counts detection activity.
type Stats struct {
	BranchesSeen uint64
	HotDetected  uint64
	Decays       uint64
	Evictions    uint64
	// Hits/Misses count key lookups that found / did not find a tracked
	// entry (a miss that creates an entry still counts as a miss).
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

// New returns an empty T-Cache.
func New(cfg Config) *TCache {
	if cfg.Entries <= 0 || cfg.HotThreshold == 0 || cfg.CounterMax < cfg.HotThreshold {
		panic(fmt.Sprintf("tcache: bad config %+v", cfg))
	}
	return &TCache{cfg: cfg}
}

// indexKey returns key's position in the dense index, or false when the
// key cannot be tracked: an anchor that is not a program PC, or direction
// bits beyond HistoryLen. OnBranchCommit never forms such a key.
func indexKey(key TraceKey) (int, bool) {
	if key.AnchorPC < 0 || key.AnchorPC > math.MaxInt>>HistoryLen || key.Dirs >= 1<<HistoryLen {
		return 0, false
	}
	return key.AnchorPC<<HistoryLen | int(key.Dirs), true
}

// find returns the tracked entry of key, or nil.
func (t *TCache) find(key TraceKey) *entry {
	k, ok := indexKey(key)
	if !ok || k >= len(t.index) || t.index[k] == 0 {
		return nil
	}
	return &t.slots[t.index[k]-1]
}

// OnBranchCommit feeds one committed branch outcome. When the outcome
// completes a three-branch window it bumps the counter of the trace anchored
// at the window's oldest branch. It returns the key that became hot this
// call, if any.
func (t *TCache) OnBranchCommit(pc int, taken bool) (hot TraceKey, becameHot bool) {
	t.stats.BranchesSeen++
	if t.n == HistoryLen {
		copy(t.window[:], t.window[1:])
		t.n--
	}
	t.window[t.n] = committedBranch{pc: pc, taken: taken}
	t.n++
	if t.n < HistoryLen {
		return TraceKey{}, false
	}
	key := TraceKey{AnchorPC: t.window[0].pc}
	for i, b := range t.window {
		key.SetDir(i, b.taken)
	}
	e := t.lookup(key, true)
	if e.counter < t.cfg.CounterMax {
		e.counter++
	}
	wasHot := e.hot
	if e.counter >= t.cfg.HotThreshold {
		e.hot = true
	}
	t.maybeDecay()
	if e.hot && !wasHot {
		t.stats.HotDetected++
		t.probe.TCacheHot(key.AnchorPC, key.Dirs)
		return key, true
	}
	return TraceKey{}, false
}

// IsHot reports whether the trace identified by key is currently flagged hot.
func (t *TCache) IsHot(key TraceKey) bool {
	e := t.find(key)
	return e != nil && e.hot
}

// Counter returns the current saturation counter of key (0 if untracked).
func (t *TCache) Counter(key TraceKey) uint32 {
	if e := t.find(key); e != nil {
		return e.counter
	}
	return 0
}

// Unhot clears the hot flag of key (e.g. after the mapper found the trace
// unmappable), preventing repeated mapping attempts until it re-trains.
func (t *TCache) Unhot(key TraceKey) {
	if e := t.find(key); e != nil {
		e.hot = false
		e.counter = 0
	}
}

// ResetWindow clears the committed-branch window (pipeline squash between
// non-contiguous regions).
func (t *TCache) ResetWindow() { t.n = 0 }

// Stats returns a copy of the counters.
func (t *TCache) Stats() Stats { return t.stats }

// SetProbe attaches the observability probe (nil disables; the default).
func (t *TCache) SetProbe(p *probe.Probe) { t.probe = p }

// Len returns the number of tracked entries.
func (t *TCache) Len() int { return len(t.slots) }

func (t *TCache) lookup(key TraceKey, create bool) *entry {
	t.tick++
	if e := t.find(key); e != nil {
		t.stats.Hits++
		e.lruTick = t.tick
		return e
	}
	t.stats.Misses++
	if !create {
		return nil
	}
	k, ok := indexKey(key)
	if !ok {
		panic(fmt.Sprintf("tcache: key %v cannot be tracked", key))
	}
	slot := len(t.slots)
	if slot >= t.cfg.Entries {
		// Evict the LRU entry. lruTick ties are impossible through this
		// API today (every lookup bumps t.tick), but the TraceKey
		// tie-break makes the victim a function of the resident keys and
		// their ticks, never of which slot each one happens to occupy.
		slot = 0
		for i := 1; i < len(t.slots); i++ {
			e, v := &t.slots[i], &t.slots[slot]
			if e.lruTick < v.lruTick || (e.lruTick == v.lruTick && e.key.Less(v.key)) {
				slot = i
			}
		}
		vk, _ := indexKey(t.slots[slot].key)
		t.index[vk] = 0
		t.stats.Evictions++
	} else {
		t.slots = append(t.slots, entry{})
	}
	if k >= len(t.index) {
		index := make([]int32, max(2*len(t.index), k+1))
		copy(index, t.index)
		t.index = index
	}
	t.index[k] = int32(slot + 1)
	e := &t.slots[slot]
	*e = entry{key: key, lruTick: t.tick}
	return e
}

// maybeDecay halves counters (and clears stale hot flags) every
// DecayInterval branches.
func (t *TCache) maybeDecay() {
	if t.cfg.DecayInterval <= 0 {
		return
	}
	t.branches++
	if t.branches < t.cfg.DecayInterval {
		return
	}
	t.branches = 0
	t.stats.Decays++
	for i := range t.slots {
		e := &t.slots[i]
		e.counter /= 2
		if e.counter < t.cfg.HotThreshold {
			e.hot = false
		}
	}
}
