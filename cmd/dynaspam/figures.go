package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"dynaspam/internal/area"
	"dynaspam/internal/experiments"
	"dynaspam/internal/fabric"
	"dynaspam/internal/runner"
	"dynaspam/internal/workloads"
)

// figure is one table or figure of the paper's evaluation: its -fig name
// and the function that sweeps it and prints it under its heading.
type figure struct {
	name string
	run  func(ctx context.Context, out io.Writer, ws []*workloads.Workload, opts runner.Options) error
}

// figures lists the evaluation in paper order; -fig all prints every
// entry, separated by blank lines.
var figures = []figure{
	{"7", fig7},
	{"t5", table5},
	{"8", fig8},
	{"9", fig9},
	{"t6", table6},
	{"ablation", ablation},
}

// runFigures implements `dynaspam figures`: regenerate every table and
// figure of the paper's evaluation section against the reproduction.
//
//	dynaspam figures                # everything
//	dynaspam figures -fig 7         # Figure 7  (trace coverage vs trace length)
//	dynaspam figures -fig t5        # Table 5   (traces and configuration lifetimes)
//	dynaspam figures -fig 8         # Figure 8  (speedups over the host pipeline)
//	dynaspam figures -fig 9         # Figure 9  (energy breakdown)
//	dynaspam figures -fig t6        # Table 6   (area)
//	dynaspam figures -fig ablation  # §2.2 naive vs resource-aware mapping
//
// Sweeps fan their independent (workload, configuration) cells out across
// -j workers; the output is byte-identical at any worker count. -journal
// and -progress behave as in the default sweep.
func runFigures(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dynaspam figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "which figure/table: 7, t5, 8, 9, t6, ablation, all")
	sweep := addSweepFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected := figures
	if *fig != "all" {
		selected = nil
		for _, f := range figures {
			if f.name == *fig {
				selected = []figure{f}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "unknown figure %q\n", *fig)
			return 2
		}
	}
	log, _ := newRunLogger(stderr)
	opts, closeJournal, ok := sweep.options("", log, stderr)
	if !ok {
		return 1
	}
	defer closeJournal()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	ws := workloads.All()
	for i, f := range selected {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if err := f.run(ctx, stdout, ws, opts); err != nil {
			log.Error("figure generation failed", "fig", *fig, "err", err)
			return 1
		}
	}
	return 0
}

func fig7(ctx context.Context, out io.Writer, ws []*workloads.Workload, opts runner.Options) error {
	fmt.Fprintln(out, "=== Figure 7: dynamic instruction placement vs trace length ===")
	rows, err := experiments.Fig7Sweep(ctx, ws, []int{16, 24, 32, 40}, opts)
	if err != nil {
		return err
	}
	fmt.Fprint(out, experiments.Fig7Report(rows))
	return nil
}

func table5(ctx context.Context, out io.Writer, ws []*workloads.Workload, opts runner.Options) error {
	fmt.Fprintln(out, "=== Table 5: detected traces and configuration lifetimes ===")
	rows, err := experiments.Table5Sweep(ctx, ws, []int{1, 2, 4}, opts)
	if err != nil {
		return err
	}
	fmt.Fprint(out, experiments.Table5Report(rows))

	// The paper's §5.2 quotes BFS with 8 fabrics as the limit case.
	bfs, err := workloads.ByAbbrev("BFS")
	if err != nil {
		return err
	}
	r8, err := experiments.Table5Sweep(ctx, []*workloads.Workload{bfs}, []int{8}, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "BFS with 8 fabrics: avg configuration lifetime %.1f invocations\n", r8[0].Lifetime[0])
	return nil
}

func fig8(ctx context.Context, out io.Writer, ws []*workloads.Workload, opts runner.Options) error {
	fmt.Fprintln(out, "=== Figure 8: speedup vs host OOO pipeline ===")
	rows, err := experiments.Fig8Sweep(ctx, ws, opts)
	if err != nil {
		return err
	}
	report, err := experiments.Fig8Report(rows)
	if err != nil {
		return err
	}
	fmt.Fprint(out, report)
	return nil
}

func fig9(ctx context.Context, out io.Writer, ws []*workloads.Workload, opts runner.Options) error {
	fmt.Fprintln(out, "=== Figure 9: energy by component (baseline -> DynaSpAM) ===")
	rows, err := experiments.Fig9Sweep(ctx, ws, opts)
	if err != nil {
		return err
	}
	report, err := experiments.Fig9Report(rows)
	if err != nil {
		return err
	}
	fmt.Fprint(out, report)
	return nil
}

func table6(_ context.Context, out io.Writer, _ []*workloads.Workload, _ runner.Options) error {
	fmt.Fprintln(out, "=== Table 6: area ===")
	fmt.Fprint(out, area.Report(fabric.DefaultGeometry()))
	return nil
}

// ablation reproduces §2.2 / Figure 2: the naive program-order mapper
// against the resource-aware mapper on every hot trace shape the workloads
// produce, measuring feasibility and routing cost.
func ablation(ctx context.Context, out io.Writer, ws []*workloads.Workload, opts runner.Options) error {
	fmt.Fprintln(out, "=== Ablation: naive vs resource-aware mapping (§2.2, Figure 2) ===")
	rows, err := experiments.AblationSweep(ctx, ws, 32, opts)
	if err != nil {
		return err
	}
	fmt.Fprint(out, experiments.AblationReport(rows))
	return nil
}
