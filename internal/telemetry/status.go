package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"dynaspam/internal/runner"
)

// eventHistoryCap bounds the Tracker's replay buffer. A full figure sweep
// is tens of cells, so 8192 events keeps every run of a long serve-mode
// session; beyond that the oldest events age out and late SSE subscribers
// simply start from what remains.
const eventHistoryCap = 8192

// finishedSweepCap bounds the finished sweeps /status keeps: every active
// sweep stays, and of the finished ones the finishedSweepCap that ended
// last. In serve mode every job is a sweep, so without a bound the Tracker
// and the /status reply would grow with each job for the life of the
// process; GET /jobs still lists every job.
const finishedSweepCap = 16

// event is one /events item: a journal entry or a sweep lifecycle marker,
// pre-serialized so every subscriber writes identical bytes.
type event struct {
	id   uint64
	kind string // "run", "sweep_start", "sweep_end"
	data []byte // JSON payload
}

// CellStatus is one cell's outcome in a /status response, in sweep input
// order (index == runner Entry.Seq).
type CellStatus struct {
	Label  string  `json:"label"`
	Status string  `json:"status,omitempty"` // empty while still running
	WallMS float64 `json:"wall_ms,omitempty"`
}

// SweepStatus is one sweep's live progress in a /status response.
type SweepStatus struct {
	Name   string `json:"name"`
	Total  int    `json:"total"`
	Done   int    `json:"done"`
	Failed int    `json:"failed"`
	Active bool   `json:"active"`
	// ElapsedMS counts from SweepStart to now (or to SweepEnd once done).
	ElapsedMS float64 `json:"elapsed_ms"`
	// EtaMS extrapolates the mean finished-cell pace over the remaining
	// cells; 0 when unknown (nothing finished yet) or the sweep is over.
	EtaMS float64      `json:"eta_ms"`
	Cells []CellStatus `json:"cells"`
	// Labels carries caller-attached annotations (e.g. the jobs plane tags
	// each job sweep with its sim_policy fidelity).
	Labels map[string]string `json:"labels,omitempty"`
}

// Status is the /status response body.
type Status struct {
	RunID  string        `json:"run_id"`
	Sweeps []SweepStatus `json:"sweeps"`
}

// sweepState is the Tracker's mutable record of one sweep.
type sweepState struct {
	name   string
	total  int
	done   int
	failed int
	start  time.Time
	end    time.Time // zero while active
	cells  []CellStatus
	labels map[string]string
}

// Tracker is the live sweep observer behind /status and /events. It
// implements runner.Reporter: the runner tees every finished run's Entry
// here alongside the JSON-lines journal. All methods are safe for
// concurrent use; RunDone arrives from worker goroutines in completion
// order, and per-cell state is stored at Entry.Seq so /status renders
// input order regardless.
type Tracker struct {
	mu     sync.Mutex
	runID  string
	now    func() time.Time
	sweeps []*sweepState

	// The replay buffer is a head-indexed deque over events: the live
	// events are events[evHead:], oldest first (see appendEventLocked).
	events []event
	evHead int
	nextID uint64
	subs   []chan struct{}
}

// NewTracker returns a tracker labeling /status with runID.
func NewTracker(runID string) *Tracker {
	return newTrackerAt(runID, time.Now)
}

// newTrackerAt is NewTracker with an injected clock for deterministic
// ETA tests.
func newTrackerAt(runID string, now func() time.Time) *Tracker {
	return &Tracker{runID: runID, now: now}
}

// SweepStart implements runner.Reporter.
func (t *Tracker) SweepStart(name string, total int) {
	t.mu.Lock()
	t.sweeps = append(t.sweeps, &sweepState{
		name:  name,
		total: total,
		start: t.now(),
		cells: make([]CellStatus, total),
	})
	t.appendEventLocked("sweep_start", mustJSON(map[string]any{"sweep": name, "total": total}))
	t.mu.Unlock()
	t.wake()
}

// RunDone implements runner.Reporter.
func (t *Tracker) RunDone(e runner.Entry) {
	t.mu.Lock()
	if s := t.findLocked(e.Sweep); s != nil {
		s.done++
		if e.Status == runner.StatusError || e.Status == runner.StatusPanic {
			s.failed++
		}
		if e.Seq >= 0 && e.Seq < len(s.cells) {
			s.cells[e.Seq] = CellStatus{Label: e.Label, Status: e.Status, WallMS: e.WallMS}
		}
	}
	t.appendEventLocked("run", mustJSON(e))
	t.mu.Unlock()
	t.wake()
}

// SweepEnd implements runner.Reporter.
func (t *Tracker) SweepEnd(name string) {
	t.mu.Lock()
	if s := t.findLocked(name); s != nil {
		s.end = t.now()
		t.trimFinishedLocked()
	}
	t.appendEventLocked("sweep_end", mustJSON(map[string]any{"sweep": name}))
	t.mu.Unlock()
	t.wake()
}

// trimFinishedLocked runs as a sweep ends: past finishedSweepCap finished
// sweeps, it drops the one that ended first. The caller holds mu.
func (t *Tracker) trimFinishedLocked() {
	finished, first := 0, -1
	for i, s := range t.sweeps {
		if s.end.IsZero() {
			continue
		}
		finished++
		if first < 0 || s.end.Before(t.sweeps[first].end) {
			first = i
		}
	}
	if finished > finishedSweepCap {
		t.sweeps = slices.Delete(t.sweeps, first, first+1)
	}
}

// SetSweepLabels attaches annotations to the most recent sweep with the
// given name, shown verbatim in /status. Call after the sweep has started;
// unknown names are ignored.
func (t *Tracker) SetSweepLabels(name string, labels map[string]string) {
	t.mu.Lock()
	if s := t.findLocked(name); s != nil {
		s.labels = labels
	}
	t.mu.Unlock()
}

// findLocked returns the most recent sweep with the given name (serve
// mode can run the same sweep repeatedly; the latest is the live one).
// The caller holds mu.
func (t *Tracker) findLocked(name string) *sweepState {
	for i := len(t.sweeps) - 1; i >= 0; i-- {
		if t.sweeps[i].name == name {
			return t.sweeps[i]
		}
	}
	return nil
}

// appendEventLocked stores one event in the replay buffer; the caller
// holds mu and must call wake after unlocking. Once the buffer holds
// eventHistoryCap events, each new one ages out the oldest by advancing
// evHead; when the aged-out prefix reaches a quarter of the cap, the live
// events move back to the front of the same backing array. So a full
// buffer never reallocates, and each event costs at most four element
// copies, amortized.
func (t *Tracker) appendEventLocked(kind string, data []byte) {
	t.nextID++
	if len(t.events)-t.evHead == eventHistoryCap {
		t.events[t.evHead] = event{}
		t.evHead++
		if t.evHead == eventHistoryCap/4 {
			n := copy(t.events, t.events[t.evHead:])
			clear(t.events[n:])
			t.events, t.evHead = t.events[:n], 0
		}
	}
	t.events = append(t.events, event{id: t.nextID, kind: kind, data: data})
}

// wake nudges every /events subscriber. Each subscriber channel has one
// buffered slot used as a wake flag, so a slow subscriber never blocks a
// sweep worker.
func (t *Tracker) wake() {
	t.mu.Lock()
	subs := append([]chan struct{}(nil), t.subs...)
	t.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// subscribe registers an SSE subscriber and returns its wake channel.
func (t *Tracker) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	t.mu.Lock()
	t.subs = append(t.subs, ch)
	t.mu.Unlock()
	return ch
}

// unsubscribe removes a wake channel registered by subscribe.
func (t *Tracker) unsubscribe(ch chan struct{}) {
	t.mu.Lock()
	for i, c := range t.subs {
		if c == ch {
			t.subs = append(t.subs[:i], t.subs[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// eventsSince returns the buffered events with id > after.
func (t *Tracker) eventsSince(after uint64) []event {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Events are in ascending id order; find the first id > after.
	live := t.events[t.evHead:]
	lo, hi := 0, len(live)
	for lo < hi {
		mid := (lo + hi) / 2
		if live[mid].id <= after {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return append([]event(nil), live[lo:]...)
}

// Status snapshots every sweep's progress.
func (t *Tracker) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	st := Status{RunID: t.runID, Sweeps: make([]SweepStatus, 0, len(t.sweeps))}
	for _, s := range t.sweeps {
		ss := SweepStatus{
			Name:   s.name,
			Total:  s.total,
			Done:   s.done,
			Failed: s.failed,
			Active: s.end.IsZero(),
			Cells:  append([]CellStatus(nil), s.cells...),
			Labels: s.labels,
		}
		end := s.end
		if ss.Active {
			end = now
		}
		elapsed := end.Sub(s.start)
		ss.ElapsedMS = float64(elapsed.Microseconds()) / 1e3
		if ss.Active {
			ss.EtaMS = etaMS(elapsed, s.done, s.total)
		}
		st.Sweeps = append(st.Sweeps, ss)
	}
	return st
}

// ETA returns the EtaMS that Status would report for the most recent
// sweep with the given name, without copying every sweep: 0 for an
// unknown or ended sweep.
func (t *Tracker) ETA(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.findLocked(name)
	if s == nil || !s.end.IsZero() {
		return 0
	}
	return etaMS(t.now().Sub(s.start), s.done, s.total)
}

// etaMS extrapolates an active sweep's mean finished-cell pace over its
// remaining cells, in milliseconds; 0 when no cell has finished yet or
// none remains.
func etaMS(elapsed time.Duration, done, total int) float64 {
	if done <= 0 || done >= total {
		return 0
	}
	eta := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
	return float64(eta.Microseconds()) / 1e3
}

// ServeStatus handles GET /status.
func (t *Tracker) ServeStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(t.Status())
}

// ServeEvents handles GET /events as a Server-Sent Events stream: it
// replays the buffered history (honouring Last-Event-ID on reconnect) and
// then tails live events until the client disconnects. Every event frame
// carries an id (monotonic), an event name (run, sweep_start, sweep_end)
// and one JSON data line — the run events are exactly the journal's
// entries, so a browser EventSource and `tail -f journal.jsonl` see the
// same records.
func (t *Tracker) ServeEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	var last uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			last = n
		}
	}

	wakeCh := t.subscribe()
	defer t.unsubscribe(wakeCh)
	ctx := r.Context()
	for {
		evs := t.eventsSince(last)
		for _, ev := range evs {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.id, ev.kind, ev.data)
			last = ev.id
		}
		if len(evs) > 0 {
			fl.Flush()
		}
		select {
		case <-ctx.Done():
			return
		case <-wakeCh:
		}
	}
}

// mustJSON marshals a value that cannot fail (journal entries and flat
// maps of strings/ints).
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte(`{"marshal_error":` + strconv.Quote(err.Error()) + `}`)
	}
	return b
}
