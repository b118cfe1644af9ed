package tcache

import "testing"

// mapTCache is the reference T-Cache: the table as a map from TraceKey to
// entry, with eviction minimizing (lruTick, TraceKey) over a map range —
// the implementation the slot slice and dense index replaced, kept whole.
// Its committed-branch window is the same fixed array as the package's
// (TestWindowMatchesSliceReference checks that one), so a difference
// points at the table.
type mapTCache struct {
	cfg      Config
	entries  map[TraceKey]*entry
	tick     uint64
	branches int
	window   [HistoryLen]committedBranch
	n        int
	stats    Stats
}

func newMapTCache(cfg Config) *mapTCache {
	return &mapTCache{cfg: cfg, entries: make(map[TraceKey]*entry)}
}

func (t *mapTCache) OnBranchCommit(pc int, taken bool) (hot TraceKey, becameHot bool) {
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
	e := t.lookup(key)
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
		return key, true
	}
	return TraceKey{}, false
}

func (t *mapTCache) IsHot(key TraceKey) bool {
	e := t.entries[key]
	return e != nil && e.hot
}

func (t *mapTCache) Counter(key TraceKey) uint32 {
	if e := t.entries[key]; e != nil {
		return e.counter
	}
	return 0
}

func (t *mapTCache) Unhot(key TraceKey) {
	if e := t.entries[key]; e != nil {
		e.hot = false
		e.counter = 0
	}
}

func (t *mapTCache) lookup(key TraceKey) *entry {
	t.tick++
	if e := t.entries[key]; e != nil {
		t.stats.Hits++
		e.lruTick = t.tick
		return e
	}
	t.stats.Misses++
	if len(t.entries) >= t.cfg.Entries {
		var victim *entry
		for _, e := range t.entries {
			if victim == nil || e.lruTick < victim.lruTick ||
				(e.lruTick == victim.lruTick && e.key.Less(victim.key)) {
				victim = e
			}
		}
		delete(t.entries, victim.key)
		t.stats.Evictions++
	}
	e := &entry{key: key, lruTick: t.tick}
	t.entries[key] = e
	return e
}

func (t *mapTCache) maybeDecay() {
	if t.cfg.DecayInterval <= 0 {
		return
	}
	t.branches++
	if t.branches < t.cfg.DecayInterval {
		return
	}
	t.branches = 0
	t.stats.Decays++
	for _, e := range t.entries {
		e.counter /= 2
		if e.counter < t.cfg.HotThreshold {
			e.hot = false
		}
	}
}

// fuzzPCs bounds the anchor PCs FuzzTCache draws, so streams recur often
// enough to turn keys hot while still overflowing small tables.
const fuzzPCs = 24

// fuzzEvents caps the events of one input. With at most 16 entries and a
// decay every few branches, a few hundred events reach every table state
// a longer stream can, and checking every key after each event costs
// ~10 µs, so longer inputs would only slow the fuzzer down.
const fuzzEvents = 256

// FuzzTCache drives the T-Cache and the map-based reference with the same
// commit stream and requires, after every call, the same return value,
// IsHot and Counter for every key the stream can form, Len and Stats. The
// first three bytes pick the geometry (Entries 1-16, a small
// DecayInterval, the hot threshold and counter ceiling); each further
// byte is one event: a committed branch (PC and direction), a window
// reset, or an Unhot of the key anchored at that PC.
func FuzzTCache(f *testing.F) {
	f.Add([]byte{3, 5, 2, 0x10, 0x21, 0x30, 0x10, 0x21, 0x30, 0x10, 0x21, 0x30, 0x10, 0x21, 0x30})
	f.Add([]byte{0, 0, 0, 1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 1, 3, 5})
	f.Add([]byte{15, 9, 7, 0x41, 0x41, 0x41, 0x43, 0xc2, 0x41, 0x41, 0x41, 0x43, 0x80, 0x41, 0x41})
	f.Fuzz(checkTCache)
}

// checkTCache is FuzzTCache's body for one input.
func checkTCache(t *testing.T, data []byte) {
	if len(data) < 3 {
		return
	}
	hot := uint32(data[2]%4) + 1
	cfg := Config{
		Entries:       int(data[0]%16) + 1,
		DecayInterval: int(data[1] % 12),
		HotThreshold:  hot,
		CounterMax:    hot + uint32(data[2]>>2%4),
	}
	got, ref := New(cfg), newMapTCache(cfg)
	for step, b := range data[3:min(len(data), 3+fuzzEvents)] {
		pc := int(b&0x3f) % fuzzPCs
		switch b >> 6 {
		case 0, 1:
			taken := b&0x40 != 0
			gk, gh := got.OnBranchCommit(pc, taken)
			rk, rh := ref.OnBranchCommit(pc, taken)
			if gk != rk || gh != rh {
				t.Fatalf("step %d: OnBranchCommit(%d, %v) = (%v, %v), reference (%v, %v)", step, pc, taken, gk, gh, rk, rh)
			}
		case 2:
			got.ResetWindow()
			ref.n = 0
		case 3:
			for d := range uint8(1 << HistoryLen) {
				got.Unhot(TraceKey{AnchorPC: pc, Dirs: d})
				ref.Unhot(TraceKey{AnchorPC: pc, Dirs: d})
			}
		}
		if got.Len() != len(ref.entries) {
			t.Fatalf("step %d: Len() = %d, reference %d", step, got.Len(), len(ref.entries))
		}
		if gs, rs := got.Stats(), ref.stats; gs != rs {
			t.Fatalf("step %d: Stats differ:\n got %+v\n ref %+v", step, gs, rs)
		}
		for a := range fuzzPCs {
			for d := range uint8(1 << HistoryLen) {
				k := TraceKey{AnchorPC: a, Dirs: d}
				if got.IsHot(k) != ref.IsHot(k) || got.Counter(k) != ref.Counter(k) {
					t.Fatalf("step %d: key %v: IsHot %v Counter %d, reference %v %d",
						step, k, got.IsHot(k), got.Counter(k), ref.IsHot(k), ref.Counter(k))
				}
			}
		}
	}
}
