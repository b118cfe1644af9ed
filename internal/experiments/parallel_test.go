package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"dynaspam/internal/runner"
)

// TestFig8DeterministicAcrossWorkers is the golden-output regression lock:
// the Figure 8 sweep must produce identical rows — bit for bit, and each
// speedup is a ratio of two cycle counts — whether cells run serially or on
// 8 workers. Combined with the row-assembly order guarantee in
// internal/runner, this pins the "byte-identical output at any parallelism"
// contract.
func TestFig8DeterministicAcrossWorkers(t *testing.T) {
	ws := fast(t)
	serial, err := Fig8Sweep(context.Background(), ws, runner.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fig8Sweep(context.Background(), ws, runner.Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, want := fmt.Sprintf("%+v", parallel), fmt.Sprintf("%+v", serial)
	if got != want {
		t.Errorf("Fig8 rows differ between 1 and 8 workers:\n serial: %s\nparallel: %s", want, got)
	}
}

// TestSweepCellsShareNoState runs every (workload, mode) cell of the fast
// suite concurrently on many workers. Under `go test -race` this asserts
// that experiments.Run cells share no mutable state — the property the
// whole parallel harness rests on (e.g. the cache package's LRU clock used
// to be a package global, which this test would flag).
func TestSweepCellsShareNoState(t *testing.T) {
	ws := fast(t)
	// Two full sweeps' worth of cells in one pool maximizes overlap of
	// identical (workload, mode) pairs, the worst case for hidden sharing.
	var jobs []runner.Job[*RunResult]
	for rep := 0; rep < 2; rep++ {
		for _, w := range ws {
			for _, mode := range fig8Modes {
				jobs = append(jobs, runJob(w, params(mode), fmt.Sprintf("rep%d/%s/%v", rep, w.Abbrev, mode)))
			}
		}
	}
	results, err := runner.Run(context.Background(), runner.Options{Parallelism: 8}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Identical cells must also produce identical measurements.
	half := len(results) / 2
	for i := 0; i < half; i++ {
		a, b := results[i], results[half+i]
		if a.Cycles != b.Cycles || a.Committed != b.Committed {
			t.Errorf("%s/%v: repeated cell diverged: %d/%d cycles vs %d/%d",
				a.Workload, a.Mode, a.Cycles, a.Committed, b.Cycles, b.Committed)
		}
	}
}

// TestSweepJournal checks that a sweep journals exactly one valid JSON line
// per cell, with the domain metrics RunResult exposes.
func TestSweepJournal(t *testing.T) {
	ws := fast(t)
	var buf bytes.Buffer
	j := runner.NewJournal(&buf)
	rows, err := Fig9Sweep(context.Background(), ws, runner.Options{Parallelism: 4, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	wantLines := len(ws) * len(fig9Modes)
	if len(lines) != wantLines {
		t.Fatalf("journal has %d lines, want %d (one per run)", len(lines), wantLines)
	}
	for _, ln := range lines {
		var e runner.Entry
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("invalid journal line %q: %v", ln, err)
		}
		if e.Sweep != "fig9" || e.Status != runner.StatusOK {
			t.Errorf("unexpected entry %+v", e)
		}
		if e.Metrics["verified"] != 1 || e.Metrics["cycles"] <= 0 {
			t.Errorf("entry %s missing domain metrics: %v", e.Label, e.Metrics)
		}
	}
	if len(rows) != len(ws) {
		t.Errorf("Fig9Sweep returned %d rows, want %d", len(rows), len(ws))
	}
}

// TestSweepCancellation confirms a cancelled context aborts a sweep,
// including simulations already in flight (via core.System.RunCtx's
// cooperative poll).
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Fig8Sweep(ctx, fast(t), runner.Options{Parallelism: 2}); err == nil {
		t.Fatal("cancelled sweep reported success")
	}
}

// TestAblationRows sanity-checks the §2.2 ablation sweep: the
// resource-aware mapper must map at least as many traces as the naive one
// on every workload.
func TestAblationRows(t *testing.T) {
	rows, err := AblationSweep(context.Background(), fast(t), 32, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Traces == 0 {
			t.Errorf("%s: no traces sampled", r.Workload)
		}
		if r.AwareOK < r.NaiveOK {
			t.Errorf("%s: resource-aware mapper (%d ok) beaten by naive (%d ok)",
				r.Workload, r.AwareOK, r.NaiveOK)
		}
	}
}
