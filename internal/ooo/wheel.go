package ooo

// wheelSize is the event wheel's horizon in cycles. It must be a power of
// two and strictly larger than the longest completion delay a host
// instruction can schedule (load issue + L1 miss + L2 miss + memory is
// 1+2+20+200 = 223 cycles with the Table 4 hierarchy). Only trace
// invocations — whose fabric latency is unbounded — ever take the overflow
// path.
const wheelSize = 256

const wheelMask = wheelSize - 1

// farEvent is a completion scheduled beyond the wheel horizon, kept in a
// min-heap ordered by (at, order). order is a global insertion counter so
// same-cycle overflow events pop in insertion order.
type farEvent struct {
	at    uint64
	order uint64
	comp  completion
}

// eventWheel is a bucketed timer wheel for completion events: a ring of
// per-cycle buckets indexed by `cycle & wheelMask` plus a small overflow
// heap for events past the horizon. It replaces a map[cycle][]completion:
// schedule and drain are O(1) bucket operations with backing arrays reused
// across the whole run, and — unlike a map — nothing rehashes or churns.
//
// Determinism contract: take(cycle) yields the cycle's completions in the
// exact order schedule inserted them. This holds because for a fixed target
// cycle X the delta X-now only shrinks as time advances, so every insertion
// that overflowed (delta >= wheelSize) happened strictly before every
// insertion that landed in the ring bucket; draining due overflow events
// (in (at, order) heap order) ahead of the bucket therefore reproduces
// global insertion order, matching the append semantics of the old map.
type eventWheel struct {
	slots    [wheelSize][]completion
	overflow []farEvent
	order    uint64
	// mergeBuf is scratch for the rare drain that has due overflow events.
	mergeBuf []completion
}

// schedule inserts comp to fire at cycle `at`. The caller guarantees
// at > now: the bucket for the current cycle is being (or has been) drained
// this cycle, so an insertion there would be lost or collide with the drain.
func (w *eventWheel) schedule(now, at uint64, comp completion) {
	if at-now < wheelSize {
		w.slots[at&wheelMask] = append(w.slots[at&wheelMask], comp)
		return
	}
	w.overflow = append(w.overflow, farEvent{at: at, order: w.order, comp: comp})
	w.order++
	w.siftUp(len(w.overflow) - 1)
}

// take removes and returns every completion due at cycle, in insertion
// order. The returned slice aliases wheel-owned storage: it is valid until
// the next take or schedule call, and the caller must zero its elements
// when done so stale *ROBEntry pointers do not outlive their events.
func (w *eventWheel) take(cycle uint64) []completion {
	idx := cycle & wheelMask
	slot := w.slots[idx]
	w.slots[idx] = slot[:0]
	if len(w.overflow) == 0 || w.overflow[0].at > cycle {
		return slot
	}
	// Rare path: trace completions beyond the horizon are due. They were
	// inserted before anything in the ring bucket (see the determinism
	// contract above), so they drain first.
	merged := w.mergeBuf[:0]
	for len(w.overflow) > 0 && w.overflow[0].at <= cycle {
		merged = append(merged, w.popOverflow())
	}
	merged = append(merged, slot...)
	for i := range slot {
		slot[i] = completion{}
	}
	w.mergeBuf = merged
	return merged
}

func (w *eventWheel) less(i, j int) bool {
	a, b := &w.overflow[i], &w.overflow[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.order < b.order
}

func (w *eventWheel) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !w.less(i, parent) {
			return
		}
		w.overflow[i], w.overflow[parent] = w.overflow[parent], w.overflow[i]
		i = parent
	}
}

func (w *eventWheel) siftDown(i int) {
	n := len(w.overflow)
	for {
		least := i
		if l := 2*i + 1; l < n && w.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && w.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		w.overflow[i], w.overflow[least] = w.overflow[least], w.overflow[i]
		i = least
	}
}

func (w *eventWheel) popOverflow() completion {
	top := w.overflow[0].comp
	n := len(w.overflow) - 1
	w.overflow[0] = w.overflow[n]
	w.overflow[n] = farEvent{}
	w.overflow = w.overflow[:n]
	if n > 0 {
		w.siftDown(0)
	}
	return top
}
