package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynaspam/internal/cpistack"
	"dynaspam/internal/runner"
	"dynaspam/internal/workloads"
)

// TestFig8CellsMatchGolden pins the exact simulated statistics of every
// Figure 8 cell: the OOO pipeline's, the DynaSpAM framework's and the
// fabrics' activity counters plus the CPI stack, one line per (workload,
// mode) cell. Host-side optimizations of the simulator must leave every
// line unchanged. The BFS golden exports lock only one run's opening
// events, so a timing change elsewhere in the sweep (a memory-ordering
// check that lets one load issue a cycle early, say) surfaces only here.
// Regenerate with DYNASPAM_UPDATE_GOLDEN=1 only when an intentional
// architectural change is being made.
func TestFig8CellsMatchGolden(t *testing.T) {
	var jobs []runner.Job[*RunResult]
	for _, w := range workloads.All() {
		for _, mode := range fig8Modes {
			jobs = append(jobs, runJob(w, params(mode), fmt.Sprintf("%s/%v", w.Abbrev, mode)))
		}
	}
	results, err := runner.Run(context.Background(), runner.Options{Parallelism: 2}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "%s/%v cpu=%+v core=%+v fabric=%+v cpi=", r.Workload, r.Mode, r.CPU, r.Core, r.Fabric)
		for i, c := range cpistack.Causes() {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s:%d", c, r.CPI.Get(c))
		}
		b.WriteByte('\n')
	}
	got := b.String()
	golden := filepath.Join("testdata", "fig8_cells.golden")
	if os.Getenv("DYNASPAM_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated (%d cells)", len(results))
		return
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(wantBytes), "\n")
	lines := strings.Split(got, "\n")
	if len(lines) != len(want) {
		t.Fatalf("sweep produced %d lines, golden has %d", len(lines), len(want))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("cell diverged from golden:\n got: %s\nwant: %s", lines[i], want[i])
		}
	}
}
