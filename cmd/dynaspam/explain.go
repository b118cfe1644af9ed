package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"dynaspam/internal/core"
	"dynaspam/internal/cpistack"
	"dynaspam/internal/experiments"
	"dynaspam/internal/jobs"
	"dynaspam/internal/runner"
	"dynaspam/internal/stats"
)

// runExplain implements `dynaspam explain`: run each selected benchmark
// under the plain baseline and full acceleration, and print the two CPI
// stacks side by side so the speedup (or slowdown) decomposes into cycle
// causes. Every stack is checked for sum-exactness (Σ buckets == cycles)
// before printing; a violation is a simulator bug and exits non-zero.
// Output is deterministic: byte-identical across repeated runs and across
// -j worker counts.
func runExplain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dynaspam explain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName   = fs.String("bench", "all", `benchmark abbreviation, comma-separated list, or "all"`)
		jsonOut     = fs.Bool("json", false, "emit machine-readable JSON instead of tables")
		parallelism = fs.Int("j", 0, "parallel simulations (0 = GOMAXPROCS)")
		simPolicy   = fs.String("sim-policy", "full", "simulation fidelity: full | ff | sampled")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	log, _ := newRunLogger(stderr)

	spec := jobs.Spec{Bench: *benchName, SimPolicy: *simPolicy}
	ws, err := spec.Workloads()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	params, err := spec.Params()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// Two cells per workload, baseline first; the runner returns results in
	// input order regardless of scheduling.
	var cells []runner.Job[*experiments.RunResult]
	for _, w := range ws {
		for _, mode := range []core.Mode{core.ModeBaseline, core.ModeAccel} {
			p := params
			p.Mode = mode
			cells = append(cells, runner.Job[*experiments.RunResult]{
				Label: fmt.Sprintf("%s/%v", w.Abbrev, mode),
				Run: func(ctx context.Context) (*experiments.RunResult, error) {
					return experiments.RunCtx(ctx, w, p)
				},
			})
		}
	}
	opts := runner.Options{Parallelism: *parallelism, Name: "explain", Log: log}
	results, err := runner.Run(ctx, opts, cells)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for i, r := range results {
		if total := r.CPI.Total(); total != r.Cycles {
			fmt.Fprintf(stderr, "explain: %s: CPI stack sums to %d but the run took %d cycles; cycle accounting lost %d\n",
				cells[i].Label, total, r.Cycles, int64(r.Cycles)-int64(total))
			return 1
		}
	}

	rows := make([]explainRow, len(ws))
	for i, w := range ws {
		rows[i] = buildExplainRow(w.Abbrev, results[2*i], results[2*i+1])
	}
	if *jsonOut {
		enc, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", enc)
		return 0
	}
	for i, row := range rows {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		printExplainRow(stdout, row)
	}
	return 0
}

// explainStack is one mode's cycle accounting in an explainRow.
type explainStack struct {
	Cycles uint64            `json:"cycles"`
	Stack  map[string]uint64 `json:"stack"`
}

// explainRow is one workload's baseline-vs-accel comparison. Deltas are in
// share percentage points (accel share minus baseline share).
type explainRow struct {
	Workload string       `json:"workload"`
	Baseline explainStack `json:"baseline"`
	Accel    explainStack `json:"accel"`
	Speedup  float64      `json:"speedup"`
	// TopRegressingCause is the non-base cause whose share of total cycles
	// grew the most from baseline to accel — where the accelerated machine
	// newly spends its time.
	TopRegressingCause string  `json:"top_regressing_cause"`
	TopRegressingDelta float64 `json:"top_regressing_delta_pp"`
}

// buildExplainRow folds two verified results into one comparison row.
func buildExplainRow(workload string, base, accel *experiments.RunResult) explainRow {
	row := explainRow{
		Workload: workload,
		Baseline: explainStack{Cycles: base.Cycles, Stack: stackMap(&base.CPI)},
		Accel:    explainStack{Cycles: accel.Cycles, Stack: stackMap(&accel.CPI)},
		Speedup:  stats.Ratio(float64(base.Cycles), float64(accel.Cycles)),
	}
	best := 0.0
	for _, c := range cpistack.Causes() {
		if c == cpistack.CauseBase {
			// A larger base share is the speedup itself, not a regression.
			continue
		}
		d := (accel.CPI.Share(c) - base.CPI.Share(c)) * 100
		if row.TopRegressingCause == "" || d > best {
			row.TopRegressingCause = c.String()
			best = d
		}
	}
	row.TopRegressingDelta = best
	return row
}

// stackMap renders a stack as cause-name -> cycles, zero buckets omitted
// (json.Marshal emits map keys sorted, so the encoding is deterministic).
func stackMap(s *cpistack.Stack) map[string]uint64 {
	m := make(map[string]uint64)
	for _, c := range cpistack.Causes() {
		if v := s.Get(c); v > 0 {
			m[c.String()] = v
		}
	}
	return m
}

// printExplainRow renders one workload's side-by-side stack table.
func printExplainRow(out io.Writer, row explainRow) {
	fmt.Fprintf(out, "%s: baseline %d cycles, accel %d cycles, speedup %.2fx\n",
		row.Workload, row.Baseline.Cycles, row.Accel.Cycles, row.Speedup)
	tb := stats.NewTable("Cause", "Baseline", "Base%", "Accel", "Accel%", "Δpp")
	for _, c := range cpistack.Causes() {
		name := c.String()
		b, a := row.Baseline.Stack[name], row.Accel.Stack[name]
		if b == 0 && a == 0 {
			continue
		}
		bs := share(b, row.Baseline.Cycles)
		as := share(a, row.Accel.Cycles)
		tb.AddRow(name,
			fmt.Sprint(b), fmt.Sprintf("%.1f%%", bs),
			fmt.Sprint(a), fmt.Sprintf("%.1f%%", as),
			fmt.Sprintf("%+.1f", as-bs))
	}
	tb.AddRow("TOTAL",
		fmt.Sprint(row.Baseline.Cycles), "100.0%",
		fmt.Sprint(row.Accel.Cycles), "100.0%", "")
	fmt.Fprint(out, tb.String())
	fmt.Fprintf(out, "top regressing cause: %s (%+.1fpp)\n",
		row.TopRegressingCause, row.TopRegressingDelta)
}

// share returns v's percentage of total (0 when total is 0).
func share(v, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(v) / float64(total)
}
