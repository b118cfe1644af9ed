package tcache

import (
	"math/rand"
	"testing"
)

// sliceWindow is the reference T-Cache front end: the committed-branch
// window as a slice that is re-appended and resliced on every branch, with
// the key packed through DirsOf — the implementation the fixed-array window
// replaced. The entry table behind it (lookup, decay, eviction) is the
// package's own, on a private TCache instance.
type sliceWindow struct {
	tc     *TCache
	window []committedBranch
}

func (r *sliceWindow) OnBranchCommit(pc int, taken bool) (hot TraceKey, becameHot bool) {
	t := r.tc
	t.stats.BranchesSeen++
	r.window = append(r.window, committedBranch{pc: pc, taken: taken})
	if len(r.window) > HistoryLen {
		r.window = r.window[len(r.window)-HistoryLen:]
	}
	if len(r.window) < HistoryLen {
		return TraceKey{}, false
	}
	dirs := make([]bool, HistoryLen)
	for i, b := range r.window {
		dirs[i] = b.taken
	}
	key := TraceKey{AnchorPC: r.window[0].pc, Dirs: DirsOf(dirs)}
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
		return key, true
	}
	return TraceKey{}, false
}

func (r *sliceWindow) ResetWindow() { r.window = r.window[:0] }

// TestWindowMatchesSliceReference feeds one long fixed-seed branch stream
// through the T-Cache and through the slice-window reference and requires
// identical (hot, becameHot) returns at every step and identical Stats at
// the end. The stream mixes recurring loop paths (so keys turn hot) with
// noise over a PC pool larger than the table (so LRU evicts), resets the
// window at random points, unhots some freshly hot keys, and runs across
// many decay intervals.
func TestWindowMatchesSliceReference(t *testing.T) {
	cfg := Config{Entries: 24, HotThreshold: 4, CounterMax: 15, DecayInterval: 977}
	got := New(cfg)
	ref := &sliceWindow{tc: New(cfg)}
	rng := rand.New(rand.NewSource(14))

	const steps = 200_000
	loops := [][]committedBranch{
		{{10, true}, {20, false}, {30, true}},
		{{40, true}, {40, true}, {40, true}, {41, false}},
		{{50, false}, {60, true}},
	}
	resets, unhots := 0, 0
	for step := 0; step < steps; {
		switch r := rng.Intn(100); {
		case r < 2:
			got.ResetWindow()
			ref.ResetWindow()
			resets++
			continue
		case r < 60:
			// A burst of one loop's path.
			loop := loops[rng.Intn(len(loops))]
			for n := rng.Intn(20); n > 0 && step < steps; n-- {
				for _, b := range loop {
					compareStep(t, step, got, ref, b.pc, b.taken, &unhots, rng)
					step++
				}
			}
		default:
			compareStep(t, step, got, ref, 100+rng.Intn(64), rng.Intn(2) == 0, &unhots, rng)
			step++
		}
	}

	if gs, rs := got.Stats(), ref.tc.Stats(); gs != rs {
		t.Fatalf("final Stats differ:\n got %+v\n ref %+v", gs, rs)
	}
	if got.Len() != ref.tc.Len() {
		t.Fatalf("Len() = %d, reference %d", got.Len(), ref.tc.Len())
	}
	// The stream must have exercised every path the window feeds.
	st := got.Stats()
	t.Logf("%+v, %d resets, %d unhots", st, resets, unhots)
	if st.HotDetected == 0 || st.Evictions == 0 || st.Decays < 100 || resets == 0 || unhots == 0 {
		t.Fatalf("stream too tame: %+v, %d resets, %d unhots", st, resets, unhots)
	}
}

// compareStep feeds one branch to both T-Caches and fails on any difference
// in the returned key or flag. A key that just turned hot is sometimes
// Unhot-ed on both, as the framework does for unmappable traces.
func compareStep(t *testing.T, step int, got *TCache, ref *sliceWindow, pc int, taken bool, unhots *int, rng *rand.Rand) {
	t.Helper()
	gk, gh := got.OnBranchCommit(pc, taken)
	rk, rh := ref.OnBranchCommit(pc, taken)
	if gk != rk || gh != rh {
		t.Fatalf("step %d (pc %d, taken %v): got (%v, %v), reference (%v, %v)", step, pc, taken, gk, gh, rk, rh)
	}
	if gh && rng.Intn(4) == 0 {
		got.Unhot(gk)
		ref.tc.Unhot(rk)
		*unhots++
	}
}
