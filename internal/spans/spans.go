// Package spans is the hierarchical wall-clock span tracer for the
// serving stack. Where internal/probe records what the *simulated
// machine* does cycle by cycle, spans record what the *host service*
// does to a job between submission and its terminal state: queue wait,
// admission, per-cell execution (with cache-hit / journal-replay /
// fresh-run attribution), journal flush.
//
// The jobs plane keeps one Recorder per job — a bounded ring of spans —
// and exports a job's tree on demand through GET /jobs/{id}/trace in the
// same Chrome/Perfetto JSON conventions as probe.WriteChromeTrace (see
// WriteChromeTrace in this package). Cell spans additionally carry
// sim-clock anchors: instant events naming the first and last simulated
// cycle the cell covered, so a wall-clock job trace links down to the
// cycle-level trace of any cell (`dynaspam -trace` over the same
// workload and parameters).
//
// Clocking: a Recorder reads time only through the function injected at
// construction (nil means the wall clock). Tests inject a deterministic
// step clock, which makes an exported trace a pure function of the span
// operations performed — the byte-determinism contract the trace
// endpoint is tested against. Like the telemetry plane, the package
// measures the host process and never the simulated machine, which is
// why dynalint's wallclock rule allowlists it.
//
// Every method is safe for concurrent use and nil-safe (a nil *Recorder
// discards everything and Start returns -1), mirroring probe's
// disabled-is-free convention.
package spans

import (
	"sync"
	"time"
)

// DefaultCapacity bounds a Recorder's ring when the caller passes a
// non-positive capacity. A job's tree is a handful of lifecycle spans
// plus one span per sweep cell, so 512 keeps every span of any current
// sweep with room for two orders of magnitude of growth.
const DefaultCapacity = 512

// initialSlots is the ring storage a Recorder allocates at its first
// Start (or its capacity, if smaller). The storage doubles as spans
// arrive, up to the capacity, so a job of a few cells pays for a few
// slots, not for DefaultCapacity.
const initialSlots = 16

// Label is one key/value annotation on a span (job_id, run_id, cell,
// status, source...).
type Label struct {
	// Key names the annotation.
	Key string
	// Value is the annotation's rendered value.
	Value string
}

// Anchor is a sim-clock anchor event on a span: it names a simulated
// cycle (first or last cycle of a cell's run) and remembers the host time
// the anchor was recorded, linking the wall-clock trace to the
// cycle-level one.
type Anchor struct {
	// Name identifies the anchor, e.g. "sim-cycle-first".
	Name string
	// Cycle is the simulated cycle the anchor points at.
	Cycle uint64
	// At is the host time the anchor was recorded.
	At time.Time
}

// Span is one recorded interval of a job's lifecycle. The zero ID is
// valid (the first span a Recorder starts); parentless spans carry
// Parent -1.
type Span struct {
	// ID is the span's recorder-local identifier, assigned in Start
	// order.
	ID int
	// Parent is the enclosing span's ID, or -1 for a root.
	Parent int
	// Cat groups spans for rendering ("job", "lifecycle", "cell").
	Cat string
	// Name is the span's display name.
	Name string
	// Start is when the span began.
	Start time.Time
	// End is when the span ended; zero while still open.
	End time.Time
	// Labels are the span's annotations, in Annotate order.
	Labels []Label
	// Anchors are the span's sim-clock anchors, in record order.
	Anchors []Anchor
}

// Recorder is a bounded ring of spans with an injected clock. When the
// ring is full the oldest span is overwritten (and Dropped incremented);
// span IDs stay stable, and operations on an evicted ID become no-ops.
type Recorder struct {
	mu   sync.Mutex
	now  func() time.Time
	capn int
	// buf is the ring storage. It grows as spans arrive (see
	// initialSlots) and reaches capn before any span is evicted, so it
	// wraps only at its full size: until then head is 0.
	buf    []Span
	head   int // buf index of the oldest live span
	count  int // live spans in buf
	nextID int // ID the next Start assigns
}

// NewRecorder returns a recorder holding at most capacity spans
// (non-positive means DefaultCapacity), reading time through now (nil
// means the wall clock).
func NewRecorder(capacity int, now func() time.Time) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if now == nil {
		now = time.Now
	}
	return &Recorder{now: now, capn: capacity}
}

// slotLocked returns the ring slot for id, or nil when id was evicted,
// never started, or negative. The caller holds mu.
func (r *Recorder) slotLocked(id int) *Span {
	oldest := r.nextID - r.count
	if id < oldest || id >= r.nextID {
		return nil
	}
	return &r.buf[(r.head+id-oldest)%len(r.buf)]
}

// Start opens a span under parent (-1 for a root) and returns its ID.
// On a nil recorder it returns -1, which every other method ignores.
func (r *Recorder) Start(parent int, cat, name string, labels ...Label) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == len(r.buf) && r.count < r.capn {
		// Storage full below capacity: grow it. The ring has not
		// wrapped yet, so the live spans are buf[:count] in order.
		buf := make([]Span, min(r.capn, max(initialSlots, 2*len(r.buf))))
		copy(buf, r.buf)
		r.buf = buf
	}
	var slot *Span
	if r.count == r.capn {
		// Ring full: the head slot is recycled for the new span.
		slot = &r.buf[r.head]
		r.head = (r.head + 1) % len(r.buf)
	} else {
		slot = &r.buf[(r.head+r.count)%len(r.buf)]
		r.count++
	}
	id := r.nextID
	r.nextID++
	*slot = Span{
		ID:      id,
		Parent:  parent,
		Cat:     cat,
		Name:    name,
		Start:   r.now(),
		Labels:  append(slot.Labels[:0], labels...),
		Anchors: slot.Anchors[:0],
	}
	return id
}

// End closes the span. Ending an already-ended, evicted, or invalid span
// is a no-op, so lifecycle code may End unconditionally.
func (r *Recorder) End(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.slotLocked(id); s != nil && s.End.IsZero() {
		s.End = r.now()
	}
}

// Annotate appends one label to the span (no-op for evicted or invalid
// IDs).
func (r *Recorder) Annotate(id int, key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.slotLocked(id); s != nil {
		s.Labels = append(s.Labels, Label{Key: key, Value: value})
	}
}

// AnchorCycle records a sim-clock anchor on the span at the current host
// time (no-op for evicted or invalid IDs).
func (r *Recorder) AnchorCycle(id int, name string, cycle uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.slotLocked(id); s != nil {
		s.Anchors = append(s.Anchors, Anchor{Name: name, Cycle: cycle, At: r.now()})
	}
}

// Duration returns how long the span was open; ok is false while the
// span is still open or when the ID is evicted or invalid.
func (r *Recorder) Duration(id int) (time.Duration, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.slotLocked(id)
	if s == nil || s.End.IsZero() {
		return 0, false
	}
	return s.End.Sub(s.Start), true
}

// Snapshot deep-copies the live spans in ID order. The result shares no
// memory with the recorder, so callers may render it without holding any
// lock — and two snapshots of an untouched recorder render identically.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, r.count)
	for i := 0; i < r.count; i++ {
		s := r.buf[(r.head+i)%len(r.buf)]
		s.Labels = append([]Label(nil), s.Labels...)
		s.Anchors = append([]Anchor(nil), s.Anchors...)
		out[i] = s
	}
	return out
}
