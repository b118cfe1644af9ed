package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dynaspam/internal/runner"
)

// tickClock is a deterministic time source for ETA tests.
type tickClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTickClock() *tickClock {
	return &tickClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}

func (c *tickClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *tickClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func entry(sweep string, seq int, label, status string, wallMS float64) runner.Entry {
	return runner.Entry{Sweep: sweep, Seq: seq, Label: label, Status: status, WallMS: wallMS}
}

func TestTrackerStatusETA(t *testing.T) {
	clk := newTickClock()
	tr := newTrackerAt("run42", clk.now)
	tr.SweepStart("fig8", 4)
	clk.advance(10 * time.Second)
	if eta := tr.ETA("fig8"); eta != 0 {
		t.Errorf("ETA before any cell finished = %v, want 0", eta)
	}

	tr.RunDone(entry("fig8", 0, "BP/a", runner.StatusOK, 10000))
	clk.advance(10 * time.Second)
	tr.RunDone(entry("fig8", 1, "BP/b", runner.StatusError, 10000))

	st := tr.Status()
	if st.RunID != "run42" {
		t.Errorf("RunID = %q", st.RunID)
	}
	if len(st.Sweeps) != 1 {
		t.Fatalf("Sweeps = %d, want 1", len(st.Sweeps))
	}
	s := st.Sweeps[0]
	if s.Name != "fig8" || s.Total != 4 || s.Done != 2 || s.Failed != 1 || !s.Active {
		t.Fatalf("sweep state = %+v", s)
	}
	// 2 cells in 20s -> 10s/cell -> 2 remaining -> 20s ETA, exactly.
	if s.ElapsedMS != 20000 {
		t.Errorf("ElapsedMS = %v, want 20000", s.ElapsedMS)
	}
	if s.EtaMS != 20000 {
		t.Errorf("EtaMS = %v, want 20000", s.EtaMS)
	}
	if eta := tr.ETA("fig8"); eta != s.EtaMS {
		t.Errorf("ETA(fig8) = %v, want Status's %v", eta, s.EtaMS)
	}
	if eta := tr.ETA("no-such-sweep"); eta != 0 {
		t.Errorf("ETA of an unknown sweep = %v, want 0", eta)
	}
	// Cells render in input order with their wall times.
	if s.Cells[0].Label != "BP/a" || s.Cells[1].Status != runner.StatusError {
		t.Errorf("cells = %+v", s.Cells)
	}
	if s.Cells[2].Status != "" {
		t.Errorf("unfinished cell has status %q", s.Cells[2].Status)
	}

	clk.advance(5 * time.Second)
	tr.RunDone(entry("fig8", 2, "BP/c", runner.StatusOK, 5000))
	tr.RunDone(entry("fig8", 3, "BP/d", runner.StatusOK, 0))
	tr.SweepEnd("fig8")
	clk.advance(time.Hour) // elapsed must freeze at SweepEnd
	s = tr.Status().Sweeps[0]
	if s.Active || s.Done != 4 || s.EtaMS != 0 {
		t.Errorf("ended sweep = %+v", s)
	}
	if eta := tr.ETA("fig8"); eta != 0 {
		t.Errorf("ETA of an ended sweep = %v, want 0", eta)
	}
	if s.ElapsedMS != 25000 {
		t.Errorf("ended ElapsedMS = %v, want 25000", s.ElapsedMS)
	}
}

// TestTrackerKeepsLatestFinishedSweeps: /status keeps every active sweep
// and the finishedSweepCap finished ones that ended last, in start order.
// A sweep that started first but ended last is among those kept.
func TestTrackerKeepsLatestFinishedSweeps(t *testing.T) {
	clk := newTickClock()
	tr := newTrackerAt("r", clk.now)
	tr.SweepStart("long", 1)
	tr.SweepStart("live", 1)
	for i := range finishedSweepCap + 3 {
		name := "s" + strconv.Itoa(i)
		tr.SweepStart(name, 1)
		tr.RunDone(entry(name, 0, "a", runner.StatusOK, 1))
		clk.advance(time.Second)
		tr.SweepEnd(name)
	}
	clk.advance(time.Second)
	tr.SweepEnd("long")
	var names []string
	for _, s := range tr.Status().Sweeps {
		names = append(names, s.Name)
	}
	want := []string{"long", "live"}
	for i := 4; i < finishedSweepCap+3; i++ {
		want = append(want, "s"+strconv.Itoa(i))
	}
	if !slices.Equal(names, want) {
		t.Fatalf("sweeps %v, want %v", names, want)
	}
}

func TestTrackerRepeatedSweepNames(t *testing.T) {
	clk := newTickClock()
	tr := newTrackerAt("r", clk.now)
	tr.SweepStart("s", 1)
	tr.RunDone(entry("s", 0, "a", runner.StatusOK, 1))
	tr.SweepEnd("s")
	tr.SweepStart("s", 2) // serve mode: same sweep submitted again
	tr.RunDone(entry("s", 0, "a", runner.StatusOK, 1))
	st := tr.Status()
	if len(st.Sweeps) != 2 {
		t.Fatalf("Sweeps = %d, want 2", len(st.Sweeps))
	}
	if st.Sweeps[0].Active || !st.Sweeps[1].Active {
		t.Errorf("RunDone updated the wrong instance: %+v", st.Sweeps)
	}
	if st.Sweeps[1].Done != 1 || st.Sweeps[1].Total != 2 {
		t.Errorf("latest sweep = %+v", st.Sweeps[1])
	}
}

// sseFrames parses an SSE body into (id, event, data) triples.
type sseFrame struct{ id, event, data string }

func parseSSE(t *testing.T, body string) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur != (sseFrame{}) {
				frames = append(frames, cur)
				cur = sseFrame{}
			}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return frames
}

func TestServeEventsReplay(t *testing.T) {
	tr := NewTracker("r")
	tr.SweepStart("s", 2)
	tr.RunDone(entry("s", 0, "a", runner.StatusOK, 1.5))
	tr.RunDone(entry("s", 1, "b", runner.StatusOK, 2.5))
	tr.SweepEnd("s")

	// A canceled request still replays the buffered history before
	// blocking on the live tail.
	req := httptest.NewRequest("GET", "/events", nil)
	ctx, cancel := context.WithCancel(req.Context())
	cancel()
	rec := httptest.NewRecorder()
	tr.ServeEvents(rec, req.WithContext(ctx))

	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	frames := parseSSE(t, rec.Body.String())
	if len(frames) != 4 {
		t.Fatalf("frames = %d, want 4:\n%s", len(frames), rec.Body.String())
	}
	wantKinds := []string{"sweep_start", "run", "run", "sweep_end"}
	for i, f := range frames {
		if f.event != wantKinds[i] {
			t.Errorf("frame %d event = %q, want %q", i, f.event, wantKinds[i])
		}
	}
	// The run frames carry the journal entries verbatim.
	var e runner.Entry
	if err := json.Unmarshal([]byte(frames[1].data), &e); err != nil {
		t.Fatalf("run frame is not a journal entry: %v", err)
	}
	if e.Label != "a" || e.WallMS != 1.5 {
		t.Errorf("run frame entry = %+v", e)
	}

	// Reconnecting with Last-Event-ID resumes after the given frame.
	req2 := httptest.NewRequest("GET", "/events", nil)
	req2.Header.Set("Last-Event-ID", frames[1].id)
	ctx2, cancel2 := context.WithCancel(req2.Context())
	cancel2()
	rec2 := httptest.NewRecorder()
	tr.ServeEvents(rec2, req2.WithContext(ctx2))
	frames2 := parseSSE(t, rec2.Body.String())
	if len(frames2) != 2 {
		t.Fatalf("replay after Last-Event-ID got %d frames, want 2", len(frames2))
	}
	if frames2[0].id != frames[2].id {
		t.Errorf("replay resumed at id %s, want %s", frames2[0].id, frames[2].id)
	}
}

// TestServeEventsResumeAfterDrop: a subscriber reconnecting with a
// Last-Event-ID that has already aged out of the replay ring resumes from
// the oldest retained event — the dropped window is skipped, never
// re-fabricated, and what remains replays gapless from there.
func TestServeEventsResumeAfterDrop(t *testing.T) {
	tr := NewTracker("r")
	tr.SweepStart("s", eventHistoryCap+50)
	for i := 0; i < eventHistoryCap+50; i++ {
		tr.RunDone(entry("s", i, "x", runner.StatusOK, 0))
	}
	tr.mu.Lock()
	oldest := tr.events[tr.evHead].id
	tr.mu.Unlock()
	if oldest == 1 {
		t.Fatal("test did not overflow the replay ring")
	}

	// Last-Event-ID = 1 names the long-evicted sweep_start frame.
	req := httptest.NewRequest("GET", "/events", nil)
	req.Header.Set("Last-Event-ID", "1")
	ctx, cancel := context.WithCancel(req.Context())
	cancel()
	rec := httptest.NewRecorder()
	tr.ServeEvents(rec, req.WithContext(ctx))

	frames := parseSSE(t, rec.Body.String())
	if len(frames) != eventHistoryCap {
		t.Fatalf("resume replayed %d frames, want the %d retained", len(frames), eventHistoryCap)
	}
	if frames[0].id != strconv.FormatUint(oldest, 10) {
		t.Errorf("resume started at id %s, want oldest retained %d", frames[0].id, oldest)
	}
	prev := oldest - 1
	for i, f := range frames {
		id, err := strconv.ParseUint(f.id, 10, 64)
		if err != nil || id != prev+1 {
			t.Fatalf("frame %d id = %q, want %d", i, f.id, prev+1)
		}
		prev = id
	}
}

// TestRunDonePastCapAllocsNoMore: once the replay buffer is full, an event
// ages out the oldest in place, so RunDone past the cap allocates no more
// than below it (the event's JSON), where the buffer still grows.
func TestRunDonePastCapAllocsNoMore(t *testing.T) {
	tr := NewTracker("r")
	tr.SweepStart("s", 1)
	e := entry("s", 0, "x", runner.StatusOK, 0)
	below := testing.AllocsPerRun(eventHistoryCap/2, func() { tr.RunDone(e) })
	for range eventHistoryCap {
		tr.RunDone(e)
	}
	if tr.events[tr.evHead].id == 1 {
		t.Fatal("setup: the replay buffer is not full")
	}
	// Two compactions' worth of events, so in-place moves are measured.
	past := testing.AllocsPerRun(eventHistoryCap/2, func() { tr.RunDone(e) })
	if past > below {
		t.Fatalf("RunDone allocates %.2f times per event past the cap, %.2f below it", past, below)
	}
	if n := len(tr.eventsSince(0)); n != eventHistoryCap {
		t.Fatalf("replay buffer holds %d events, want %d", n, eventHistoryCap)
	}
}

func TestEventHistoryCap(t *testing.T) {
	tr := NewTracker("r")
	tr.SweepStart("s", eventHistoryCap+100)
	for i := 0; i < eventHistoryCap+100; i++ {
		tr.RunDone(entry("s", i, "x", runner.StatusOK, 0))
	}
	evs := tr.eventsSince(0)
	if len(evs) != eventHistoryCap {
		t.Fatalf("history holds %d events, want cap %d", len(evs), eventHistoryCap)
	}
	// The survivors are the newest events, ids still strictly ascending.
	for i := 1; i < len(evs); i++ {
		if evs[i].id != evs[i-1].id+1 {
			t.Fatalf("ids not contiguous at %d: %d then %d", i, evs[i-1].id, evs[i].id)
		}
	}
	if evs[len(evs)-1].id != uint64(eventHistoryCap+100+1) {
		t.Errorf("newest id = %d, want %d", evs[len(evs)-1].id, eventHistoryCap+100+1)
	}
}
