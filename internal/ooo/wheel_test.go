package ooo

import "testing"

// wheelComp builds a distinguishable completion: liveOutIdx doubles as a
// payload tag so tests can assert drain order without real ROB entries.
func wheelComp(tag int) completion {
	return completion{kind: compTraceLiveOut, liveOutIdx: tag}
}

// drainTags collects the payload tags of one cycle's drain.
func drainTags(w *eventWheel, cycle uint64) []int {
	comps := w.take(cycle)
	tags := make([]int, len(comps))
	for i, c := range comps {
		tags[i] = c.liveOutIdx
	}
	for i := range comps {
		comps[i] = completion{}
	}
	return tags
}

func sameTags(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestWheelInsertionOrderSameCycle is the determinism contract in its
// simplest form: completions scheduled for the same cycle drain in the
// order they were inserted, like appends to the old map's slice.
func TestWheelInsertionOrderSameCycle(t *testing.T) {
	var w eventWheel
	for tag := 0; tag < 8; tag++ {
		w.schedule(10, 15, wheelComp(tag))
	}
	if got := drainTags(&w, 15); !sameTags(got, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("same-cycle drain order %v, want insertion order", got)
	}
	if n := w.pendingEvents(); n != 0 {
		t.Fatalf("%d events left after drain", n)
	}
}

// TestWheelOverflowMergesBeforeBucket covers the mixed drain: events
// scheduled past the horizon (overflow heap) are by construction inserted
// earlier than ring-bucket events for the same cycle, so they must drain
// first to reproduce global insertion order.
func TestWheelOverflowMergesBeforeBucket(t *testing.T) {
	var w eventWheel
	const target = uint64(1000)
	// Inserted far in advance: overflow path (delta >= wheelSize).
	w.schedule(100, target, wheelComp(1))
	w.schedule(200, target, wheelComp(2))
	// Inserted close to the target: ring path.
	w.schedule(target-5, target, wheelComp(3))
	w.schedule(target-1, target, wheelComp(4))
	if got := drainTags(&w, target); !sameTags(got, []int{1, 2, 3, 4}) {
		t.Fatalf("mixed drain order %v, want overflow-then-bucket insertion order %v",
			got, []int{1, 2, 3, 4})
	}
}

// TestWheelOverflowSameCycleOrder stresses the heap tie-break: many
// overflow events due at the same cycle must pop in insertion order (the
// order counter), not heap-internal order.
func TestWheelOverflowSameCycleOrder(t *testing.T) {
	var w eventWheel
	const target = uint64(5000)
	want := make([]int, 40)
	for tag := range want {
		w.schedule(0, target, wheelComp(tag))
		want[tag] = tag
	}
	if got := drainTags(&w, target); !sameTags(got, want) {
		t.Fatalf("overflow same-cycle order %v, want %v", got, want)
	}
}

// TestWheelOverflowAcrossCycles checks (at, order) heap ordering when
// overflow events for several cycles interleave, including a drain cycle
// whose ring bucket is empty.
func TestWheelOverflowAcrossCycles(t *testing.T) {
	var w eventWheel
	w.schedule(0, 2000, wheelComp(20))
	w.schedule(0, 1000, wheelComp(10))
	w.schedule(0, 3000, wheelComp(30))
	w.schedule(0, 1000, wheelComp(11))
	if got := drainTags(&w, 1000); !sameTags(got, []int{10, 11}) {
		t.Fatalf("cycle 1000 drained %v, want [10 11]", got)
	}
	if got := drainTags(&w, 2000); !sameTags(got, []int{20}) {
		t.Fatalf("cycle 2000 drained %v, want [20]", got)
	}
	if got := drainTags(&w, 3000); !sameTags(got, []int{30}) {
		t.Fatalf("cycle 3000 drained %v, want [30]", got)
	}
}

// TestWheelRingWraps verifies bucket reuse: after a slot is drained and the
// wheel wraps, a later cycle mapping to the same slot sees only its own
// events.
func TestWheelRingWraps(t *testing.T) {
	var w eventWheel
	w.schedule(0, 5, wheelComp(1))
	if got := drainTags(&w, 5); !sameTags(got, []int{1}) {
		t.Fatalf("first lap drained %v", got)
	}
	// Same slot index, one lap later.
	at := uint64(5 + wheelSize)
	w.schedule(at-10, at, wheelComp(2))
	if got := drainTags(&w, at); !sameTags(got, []int{2}) {
		t.Fatalf("second lap drained %v, want [2]", got)
	}
}

// TestWheelTakeReusesStorage pins the zero-allocation property the hot loop
// relies on: after warm-up, schedule+take cycles do not allocate.
func TestWheelTakeReusesStorage(t *testing.T) {
	var w eventWheel
	cycle := uint64(0)
	lap := func() {
		for i := 0; i < 4; i++ {
			w.schedule(cycle, cycle+3, wheelComp(i))
		}
		for i := 0; i < 4; i++ {
			cycle++
			comps := w.take(cycle)
			for j := range comps {
				comps[j] = completion{}
			}
		}
	}
	// Warm up every ring slot's backing array (cycle advances each lap, so
	// one lap only warms the slots it touches).
	for i := 0; i < wheelSize; i++ {
		lap()
	}
	if avg := testing.AllocsPerRun(100, lap); avg != 0 {
		t.Fatalf("steady-state schedule/take allocates %.1f allocs per lap, want 0", avg)
	}
}

// pendingEvents counts events currently queued.
func (w *eventWheel) pendingEvents() int {
	n := len(w.overflow)
	for s := range w.slots {
		n += len(w.slots[s])
	}
	return n
}
