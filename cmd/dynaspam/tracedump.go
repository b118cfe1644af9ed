package main

import (
	"flag"
	"fmt"
	"io"

	"dynaspam/internal/experiments"
	"dynaspam/internal/fabric"
	"dynaspam/internal/mapper"
	"dynaspam/internal/workloads"
)

// runTracedump implements `dynaspam tracedump`: extract a workload's hot
// trace shapes and render their fabric mappings stripe by stripe — a lens
// into what the resource-aware mapper actually produces.
//
//	dynaspam tracedump -bench NW           # map every distinct trace shape
//	dynaspam tracedump -bench NW -n 1      # just the first
//	dynaspam tracedump -bench NW -naive    # with the program-order baseline
//	dynaspam tracedump -bench NW -validate # additionally self-check each mapping
//
// -validate checks every mapped configuration: PE utilization inside
// (0, 1], a non-empty stripe rendering, and a byte-identical re-render
// (the renderer must be deterministic). Any violation exits non-zero.
// Output is deterministic — a pure function of the flags — so the golden
// test and the trace-smoke CI step can byte-compare it.
func runTracedump(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dynaspam tracedump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName = fs.String("bench", "NW", "benchmark abbreviation")
		limit     = fs.Int("n", 3, "maximum traces to dump (0 = all)")
		naive     = fs.Bool("naive", false, "use the naive program-order mapper")
		validate  = fs.Bool("validate", false, "self-check each mapping (utilization bounds, deterministic render)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	w, err := workloads.ByAbbrev(*benchName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	g := fabric.DefaultGeometry()
	traces := experiments.SampleTraces(w, 32)
	fmt.Fprintf(stdout, "%s: %d distinct trace shapes\n\n", w.Name, len(traces))

	shown, violations := 0, 0
	for i, tr := range traces {
		if *limit > 0 && shown >= *limit {
			break
		}
		var cfg *fabric.Config
		if *naive {
			cfg, err = mapper.MapNaive(tr, g, tr[0].PC, tr[len(tr)-1].PC+1)
		} else {
			cfg, err = mapper.MapStatic(tr, g, tr[0].PC, tr[len(tr)-1].PC+1)
		}
		if err != nil {
			fmt.Fprintf(stdout, "--- trace %d: UNMAPPABLE: %v\n\n", i, err)
			shown++
			continue
		}
		overall, peak := cfg.Utilization(g)
		fmt.Fprintf(stdout, "--- trace %d (PE utilization %.1f%%, busiest pool %.1f%%)\n",
			i, 100*overall, 100*peak)
		rendered := cfg.Render(g)
		fmt.Fprintln(stdout, rendered)
		shown++
		if *validate {
			violations += checkMapping(stderr, i, g, cfg, overall, peak, rendered)
		}
	}
	if violations > 0 {
		fmt.Fprintf(stderr, "tracedump: %d validation failure(s)\n", violations)
		return 1
	}
	return 0
}

// checkMapping runs the -validate invariants on one mapped configuration
// and returns the number of violations found.
func checkMapping(stderr io.Writer, i int, g fabric.Geometry, cfg *fabric.Config, overall, peak float64, rendered string) int {
	n := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(stderr, "trace %d: "+format+"\n", append([]any{i}, args...)...)
		n++
	}
	if overall <= 0 || overall > 1 {
		fail("overall PE utilization %v outside (0, 1]", overall)
	}
	if peak <= 0 || peak > 1 {
		fail("peak pool utilization %v outside (0, 1]", peak)
	}
	if peak < overall {
		fail("busiest pool %v below overall utilization %v", peak, overall)
	}
	if rendered == "" {
		fail("empty rendering")
	}
	if again := cfg.Render(g); again != rendered {
		fail("non-deterministic rendering (%d vs %d bytes)", len(rendered), len(again))
	}
	if len(cfg.Insts) == 0 {
		fail("mapped configuration has no instructions")
	}
	return n
}
