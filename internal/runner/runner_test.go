package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// squareJobs returns n jobs where job i returns i*i after a small,
// index-dependent delay so completion order differs from input order.
func squareJobs(n int, started *atomic.Int32) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Label: fmt.Sprintf("sq/%d", i),
			Run: func(ctx context.Context) (int, error) {
				if started != nil {
					started.Add(1)
				}
				// Later jobs finish sooner, scrambling completion order.
				time.Sleep(time.Duration((n-i)%7) * time.Millisecond)
				return i * i, nil
			},
		}
	}
	return jobs
}

func TestRunDeterministicOrder(t *testing.T) {
	for _, par := range []int{1, 2, 8, 32} {
		out, err := Run(context.Background(), Options{Parallelism: par}, squareJobs(33, nil))
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("par=%d: out[%d] = %d, want %d (results not in input order)", par, i, v, i*i)
			}
		}
	}
}

func TestRunZeroJobs(t *testing.T) {
	out, err := Run(context.Background(), Options{}, []Job[int]{})
	if err != nil || len(out) != 0 {
		t.Fatalf("Run(nil jobs) = %v, %v", out, err)
	}
}

func TestRunErrorCancelsRemaining(t *testing.T) {
	boom := errors.New("cell 3 exploded")
	var ranLate atomic.Int32
	var jobs []Job[int]
	for i := 0; i < 40; i++ {
		i := i
		jobs = append(jobs, Job[int]{
			Label: fmt.Sprintf("j/%d", i),
			Run: func(ctx context.Context) (int, error) {
				switch {
				case i == 3:
					return 0, boom
				case i < 3:
					return i, nil
				default:
					// Block until cancellation proves propagation; a
					// hang here fails the test by timeout.
					select {
					case <-ctx.Done():
						return 0, ctx.Err()
					case <-time.After(10 * time.Second):
						ranLate.Add(1)
						return i, nil
					}
				}
			},
		})
	}
	out, err := Run(context.Background(), Options{Parallelism: 4}, jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
	if ranLate.Load() != 0 {
		t.Fatalf("%d jobs ran to completion despite cancellation", ranLate.Load())
	}
	if out[30] != 0 {
		t.Errorf("cancelled job produced a result: out[30] = %d", out[30])
	}
}

// TestRunSerialErrorSemantics pins the deterministic single-worker contract:
// cells before the failure complete and keep their results, the failing
// cell's error is returned, and cells after it are skipped.
func TestRunSerialErrorSemantics(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	var jobs []Job[int]
	for i := 0; i < 6; i++ {
		i := i
		jobs = append(jobs, Job[int]{
			Label: fmt.Sprintf("j/%d", i),
			Run: func(ctx context.Context) (int, error) {
				ran.Add(1)
				if i == 3 {
					return 0, boom
				}
				return i, nil
			},
		})
	}
	out, err := Run(context.Background(), Options{Parallelism: 1}, jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
	if ran.Load() != 4 {
		t.Errorf("ran %d jobs, want 4 (0-2 succeed, 3 fails, rest skipped)", ran.Load())
	}
	for i := 0; i < 3; i++ {
		if out[i] != i {
			t.Errorf("out[%d] = %d, want %d (pre-failure result dropped)", i, out[i], i)
		}
	}
	if out[4] != 0 || out[5] != 0 {
		t.Errorf("skipped jobs produced results: %v", out[4:])
	}
}

func TestRunPanicBecomesError(t *testing.T) {
	jobs := []Job[string]{
		{Label: "fine", Run: func(ctx context.Context) (string, error) { return "ok", nil }},
		{Label: "broken", Run: func(ctx context.Context) (string, error) { panic("simulated mapper bug") }},
	}
	out, err := Run(context.Background(), Options{Parallelism: 1}, jobs)
	if err == nil {
		t.Fatal("panic was swallowed")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not a PanicError: %v", err, err)
	}
	if pe.Label != "broken" || !strings.Contains(pe.Error(), "simulated mapper bug") {
		t.Errorf("panic error lost context: %v", pe)
	}
	if out[0] != "ok" {
		t.Errorf("healthy result lost after sibling panic: %q", out[0])
	}
}

func TestRunParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Options{}, squareJobs(4, nil))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under cancelled ctx = %v, want context.Canceled", err)
	}
}

// metricResult exercises the Metricser journal hook.
type metricResult struct{ cycles float64 }

func (m metricResult) JournalMetrics() map[string]float64 {
	return map[string]float64{"cycles": m.cycles, "verified": 1}
}

func TestJournalOneValidJSONLinePerRun(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	// w/c fails only after w/a and w/b have finished; an early failure
	// cancels the sweep and whether pending cells journal as "skipped"
	// or never get dequeued depends on scheduling.
	done := make(chan struct{}, 2)
	jobs := []Job[metricResult]{
		{Label: "w/a", Run: func(ctx context.Context) (metricResult, error) {
			done <- struct{}{}
			return metricResult{100}, nil
		}},
		{Label: "w/b", Run: func(ctx context.Context) (metricResult, error) {
			done <- struct{}{}
			return metricResult{200}, nil
		}},
		{Label: "w/c", Run: func(ctx context.Context) (metricResult, error) {
			<-done
			<-done
			return metricResult{}, errors.New("golden mismatch")
		}},
	}
	_, err := Run(context.Background(), Options{Parallelism: 2, Journal: j, Name: "unit"}, jobs)
	if err == nil {
		t.Fatal("expected the failing job's error")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(jobs) {
		t.Fatalf("journal has %d lines, want one per run (%d):\n%s", len(lines), len(jobs), buf.String())
	}
	bySeq := map[int]Entry{}
	for _, ln := range lines {
		var e Entry
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("journal line is not valid JSON: %q: %v", ln, err)
		}
		if e.Sweep != "unit" || e.WallMS < 0 {
			t.Errorf("bad entry %+v", e)
		}
		bySeq[e.Seq] = e
	}
	if e := bySeq[0]; e.Status != StatusOK || e.Metrics["cycles"] != 100 || e.Metrics["verified"] != 1 {
		t.Errorf("entry 0 = %+v, want ok with metrics", e)
	}
	if e := bySeq[2]; e.Status != StatusError || !strings.Contains(e.Error, "golden mismatch") {
		t.Errorf("entry 2 = %+v, want error status", e)
	}
}

func TestJournalFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/journal.jsonl"
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Write(Entry{Label: "x", Status: StatusOK}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestProgressReportsCompletion(t *testing.T) {
	var buf bytes.Buffer
	_, err := Run(context.Background(), Options{Parallelism: 3, Progress: &buf, Name: "fig8"}, squareJobs(9, nil))
	if err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "fig8: 9/9 runs done") {
		t.Errorf("progress output missing final count: %q", s)
	}
}

func TestParallelismCappedByJobs(t *testing.T) {
	var started atomic.Int32
	out, err := Run(context.Background(), Options{Parallelism: 64}, squareJobs(3, &started))
	if err != nil || len(out) != 3 {
		t.Fatalf("Run = %v, %v", out, err)
	}
	if started.Load() != 3 {
		t.Errorf("started %d jobs, want 3", started.Load())
	}
}
