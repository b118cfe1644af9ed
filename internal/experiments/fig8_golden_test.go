package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynaspam/internal/core"
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
		writeCPI(&b, r.CPI)
		b.WriteByte('\n')
	}
	matchGolden(t, "fig8_cells.golden", b.String(), len(results))
}

// TestSampledCellsMatchGolden pins what the fast-forward loop leaves behind
// in the simulated statistics: the predictor, T-Cache and data-cache state
// it trains decide every later detailed window, yet the final memory (the
// only thing the golden check sees) is the same whatever it trains. The
// cells are the eleven kernels in the baseline and accel-spec modes under
// the ff policy and under a short sampling geometry (many fast-forward
// regions per run), plus the three 100x inputs sampled at the default
// geometry. Each line prints the fidelity accounting, the pipeline, the
// framework, the fabrics, the T-Cache, the config cache and the CPI stack.
// Regenerate with DYNASPAM_UPDATE_GOLDEN=1 only when an intentional
// architectural change is being made.
func TestSampledCellsMatchGolden(t *testing.T) {
	var jobs []runner.Job[*RunResult]
	add := func(w *workloads.Workload, pol core.SimPolicy) {
		for _, mode := range []core.Mode{core.ModeBaseline, core.ModeAccel} {
			p := params(mode)
			p.Sim = pol
			jobs = append(jobs, runJob(w, p, fmt.Sprintf("%s/%v/%v", w.Abbrev, mode, pol.Mode)))
		}
	}
	for _, w := range workloads.All() {
		add(w, core.SimPolicy{Mode: core.SimFastForward})
	}
	for _, w := range workloads.All() {
		add(w, core.SimPolicy{Mode: core.SimSampled, FFInterval: 2000, Warmup: 300, DetailWindow: 1000})
	}
	for _, ab := range []string{"BFSX100", "SPMVX100", "SCX100"} {
		w, err := workloads.ByAbbrev(ab)
		if err != nil {
			t.Fatal(err)
		}
		add(w, core.SimPolicy{Mode: core.SimSampled})
	}
	results, err := runner.Run(context.Background(), runner.Options{Parallelism: 2}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i, r := range results {
		fmt.Fprintf(&b, "%s sim=%+v cpu=%+v core=%+v fabric=%+v tcache=%+v cfg=%+v cpi=",
			jobs[i].Label, r.Sim, r.CPU, r.Core, r.Fabric, r.TCache, r.Cfg)
		writeCPI(&b, r.CPI)
		b.WriteByte('\n')
	}
	matchGolden(t, "sampled_cells.golden", b.String(), len(results))
}

// writeCPI appends a CPI stack as cause:cycles pairs in taxonomy order.
func writeCPI(b *strings.Builder, s cpistack.Stack) {
	for i, c := range cpistack.Causes() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%s:%d", c, s.Get(c))
	}
}

// matchGolden compares a sweep's cell lines against testdata/name line by
// line, or rewrites the file when DYNASPAM_UPDATE_GOLDEN is set.
func matchGolden(t *testing.T, name, got string, cells int) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if os.Getenv("DYNASPAM_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated (%d cells)", cells)
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
