package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic time source for progress tests: every read
// returns the current instant, and Advance moves it forward.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestProgressETADeterministic drives the ETA renderer with an injected
// clock: after k of n runs in k*10s, the remaining (n-k)*10s must be
// reported exactly.
func TestProgressETADeterministic(t *testing.T) {
	var buf bytes.Buffer
	clk := newFakeClock()
	p := newProgressAt(&buf, "fig8", 4, clk.Now)

	for done := 1; done <= 3; done++ {
		clk.Advance(10 * time.Second)
		p.done()
		want := fmt.Sprintf("fig8: %d/4 runs done, ETA %s", done, time.Duration(4-done)*10*time.Second)
		if got := lastProgressLine(buf.String()); !strings.Contains(got, want) {
			t.Fatalf("after %d done: line %q, want it to contain %q", done, got, want)
		}
	}
	clk.Advance(10 * time.Second)
	p.done()
	p.finish()
	if got := lastProgressLine(buf.String()); !strings.Contains(got, "fig8: 4/4 runs done in 40s") {
		t.Fatalf("final line %q, want completion with 40s elapsed", got)
	}
}

// TestProgressThrottle: completions under 50ms apart must not emit
// intermediate updates, but the final completion always reports.
func TestProgressThrottle(t *testing.T) {
	var buf bytes.Buffer
	clk := newFakeClock()
	p := newProgressAt(&buf, "t", 5, clk.Now)

	clk.Advance(time.Second)
	p.done() // first: last is zero, so it reports
	first := buf.Len()
	for i := 0; i < 3; i++ {
		clk.Advance(10 * time.Millisecond) // inside the 50ms window
		p.done()
	}
	if buf.Len() != first {
		t.Fatalf("throttled completions emitted output: %q", buf.String())
	}
	clk.Advance(10 * time.Millisecond)
	p.done() // 5/5: final completion bypasses the throttle
	if got := lastProgressLine(buf.String()); !strings.Contains(got, "t: 5/5 runs done") {
		t.Fatalf("final completion missing: %q", got)
	}
}

// TestProgressFirstDoneReportsUnknownFree: with zero elapsed time the ETA
// must still render (0s), never divide by zero or print garbage.
func TestProgressZeroElapsed(t *testing.T) {
	var buf bytes.Buffer
	clk := newFakeClock()
	p := newProgressAt(&buf, "z", 2, clk.Now)
	clk.Advance(time.Hour) // outside the throttle window, zero *per-run* is fine
	p.done()
	if got := buf.String(); !strings.Contains(got, "z: 1/2 runs done, ETA 1h0m0s") {
		t.Fatalf("line %q, want ETA 1h0m0s (one run took an hour, one remains)", got)
	}
}

// TestProgressNilWriterInert: a nil writer disables every emission.
func TestProgressNilWriter(t *testing.T) {
	p := newProgressAt(nil, "x", 3, newFakeClock().Now)
	p.done()
	p.finish() // must not panic
}

// lastProgressLine returns the final \r-separated segment of the progress
// stream.
func lastProgressLine(s string) string {
	s = strings.TrimRight(s, "\n")
	if i := strings.LastIndex(s, "\r"); i >= 0 {
		return s[i+1:]
	}
	return s
}

// chunkRecorder captures each Write call separately so tests can assert
// the journal's line-granularity writes.
type chunkRecorder struct {
	mu     sync.Mutex
	chunks [][]byte
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.chunks = append(c.chunks, append([]byte(nil), p...))
	return len(p), nil
}

// TestJournalBuffersWholeLines: each Write reaches the underlying writer
// before it returns, as one whole line in one Write call, so a tailer
// never sees a torn JSON line.
func TestJournalBuffersWholeLines(t *testing.T) {
	rec := &chunkRecorder{}
	j := NewJournal(rec)
	for i := 0; i < 3; i++ {
		if err := j.Write(Entry{Seq: i, Label: "cell", Status: StatusOK}); err != nil {
			t.Fatal(err)
		}
		if len(rec.chunks) != i+1 {
			t.Fatalf("after %d writes the writer saw %d, want one per entry", i+1, len(rec.chunks))
		}
		ch := rec.chunks[i]
		if n := bytes.Count(ch, []byte("\n")); n != 1 || ch[len(ch)-1] != '\n' {
			t.Fatalf("write %d is not one whole line: %q", i, ch)
		}
		var e Entry
		if err := json.Unmarshal(ch, &e); err != nil || e.Seq != i {
			t.Fatalf("write %d does not parse as entry %d: %q (%v)", i, i, ch, err)
		}
	}
}

// recordingReporter captures the Reporter callback stream.
type recordingReporter struct {
	mu      sync.Mutex
	starts  []string
	totals  []int
	entries []Entry
	ends    []string
}

func (r *recordingReporter) SweepStart(name string, total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.starts = append(r.starts, name)
	r.totals = append(r.totals, total)
}

func (r *recordingReporter) RunDone(e Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = append(r.entries, e)
}

func (r *recordingReporter) SweepEnd(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ends = append(r.ends, name)
}

// TestReporterTeesWithJournal: with both sinks attached, the reporter
// receives exactly the journal's entry stream plus lifecycle brackets.
func TestReporterTeesWithJournal(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	rep := &recordingReporter{}
	// w/b must fail only after w/a and w/c have finished: an early
	// failure cancels the sweep, and whether the not-yet-started cells
	// get "skipped" entries or never get dequeued at all depends on
	// scheduling. Gating the failure makes the entry stream exact.
	done := make(chan struct{}, 2)
	jobs := []Job[metricResult]{
		{Label: "w/a", Run: func(ctx context.Context) (metricResult, error) {
			done <- struct{}{}
			return metricResult{7}, nil
		}},
		{Label: "w/b", Run: func(ctx context.Context) (metricResult, error) {
			<-done
			<-done
			return metricResult{}, errors.New("boom")
		}},
		{Label: "w/c", Run: func(ctx context.Context) (metricResult, error) {
			done <- struct{}{}
			return metricResult{9}, nil
		}},
	}
	_, err := Run(context.Background(), Options{Parallelism: 2, Journal: j, Reporter: rep, Name: "tee"}, jobs)
	if err == nil {
		t.Fatal("expected the failing job's error")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rep.starts) != 1 || rep.starts[0] != "tee" || rep.totals[0] != 3 {
		t.Fatalf("SweepStart calls = %v/%v, want one (tee, 3)", rep.starts, rep.totals)
	}
	if len(rep.ends) != 1 || rep.ends[0] != "tee" {
		t.Fatalf("SweepEnd calls = %v, want one (tee)", rep.ends)
	}
	if len(rep.entries) != 3 {
		t.Fatalf("reporter saw %d entries, want 3", len(rep.entries))
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Fatalf("journal has %d lines, want 3 (tee must not steal entries)", got)
	}
	bySeq := map[int]Entry{}
	for _, e := range rep.entries {
		if e.Sweep != "tee" {
			t.Errorf("entry %+v missing sweep name", e)
		}
		bySeq[e.Seq] = e
	}
	if e := bySeq[0]; e.Status != StatusOK || e.Metrics["cycles"] != 7 {
		t.Errorf("entry 0 = %+v, want ok with cycles=7", e)
	}
	if e := bySeq[1]; e.Status != StatusError || !strings.Contains(e.Error, "boom") {
		t.Errorf("entry 1 = %+v, want error", e)
	}
}

// TestReporterWithoutJournal: a Reporter alone (no Journal) still receives
// the full entry stream — the telemetry plane attaches without forcing a
// journal file.
func TestReporterWithoutJournal(t *testing.T) {
	rep := &recordingReporter{}
	if _, err := Run(context.Background(), Options{Parallelism: 4, Reporter: rep, Name: "solo"}, squareJobs(9, nil)); err != nil {
		t.Fatal(err)
	}
	if len(rep.entries) != 9 {
		t.Fatalf("reporter saw %d entries, want 9", len(rep.entries))
	}
	seen := map[int]bool{}
	for _, e := range rep.entries {
		if e.Status != StatusOK {
			t.Errorf("entry %+v not ok", e)
		}
		seen[e.Seq] = true
	}
	if len(seen) != 9 {
		t.Fatalf("reporter entries cover %d distinct seqs, want 9", len(seen))
	}
}

// startingReporter is a recordingReporter that also implements RunStarter.
type startingReporter struct {
	recordingReporter
	runStarts []Entry // Sweep/Seq/Label populated; abuse Entry as a record
}

func (r *startingReporter) RunStart(sweep string, seq int, label string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// A cell must not finish before it starts: RunDone for this seq
	// cannot already be recorded.
	for _, e := range r.entries {
		if e.Seq == seq {
			panic(fmt.Sprintf("RunStart(%s, %d) after its RunDone", sweep, seq))
		}
	}
	r.runStarts = append(r.runStarts, Entry{Sweep: sweep, Seq: seq, Label: label})
}

// TestRunStarterSeesEveryExecutedCell: a Reporter that also implements
// RunStarter gets one RunStart per executed cell, before that cell's
// RunDone, with the cell's input-order seq and label — and resumed
// (masked) cells get neither callback.
func TestRunStarterSeesEveryExecutedCell(t *testing.T) {
	rep := &startingReporter{}
	jobs := squareJobs(6, nil)
	completed := []bool{false, true, false, false, true, false}
	if _, err := RunResume(context.Background(), Options{Parallelism: 3, Reporter: rep, Name: "st"}, jobs, completed); err != nil {
		t.Fatal(err)
	}
	if len(rep.runStarts) != 4 {
		t.Fatalf("RunStart fired %d times, want 4: %+v", len(rep.runStarts), rep.runStarts)
	}
	byStart := map[int]Entry{}
	for _, s := range rep.runStarts {
		if s.Sweep != "st" {
			t.Errorf("RunStart carried sweep %q, want st", s.Sweep)
		}
		if want := jobs[s.Seq].Label; s.Label != want {
			t.Errorf("RunStart seq %d label = %q, want %q", s.Seq, s.Label, want)
		}
		byStart[s.Seq] = s
	}
	for _, seq := range []int{1, 4} {
		if _, ok := byStart[seq]; ok {
			t.Errorf("resumed cell %d received RunStart", seq)
		}
	}
	if len(rep.entries) != 4 {
		t.Fatalf("RunDone fired %d times, want 4", len(rep.entries))
	}
	for _, e := range rep.entries {
		if _, ok := byStart[e.Seq]; !ok {
			t.Errorf("cell %d finished without a RunStart", e.Seq)
		}
	}
}
