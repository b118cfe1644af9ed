// Command perfbench is the repository's benchmark: it measures the
// simulator and its job service end to end on three workloads, checks
// their outputs, and, in a separate traced mode, splits host time across
// the repository's layers. perfbench/README.md documents the workloads,
// the metrics and how to run it; perfbench/run.sh builds and runs it.
//
//	perfbench --workload fig8|scaled-sampled|serve-jobs --seed N --seconds S --trace 0|1
//
// A run starts several measuring child processes, one after another, so
// every one of them pays a real cold start. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"time"
)

// children is the number of measuring processes per mode: setup_s is the
// median of their cold starts.
const children = 3

// runBudget bounds a whole run, so it ends within 180 seconds even when
// the program under test hangs.
const runBudget = 170 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "fig8 | scaled-sampled | serve-jobs")
		seed     = flag.Int64("seed", 1, "fixes the order cells are handed to the runner and jobs are submitted")
		seconds  = flag.Float64("seconds", 10, "measuring time of a run, after the cold starts")
		trace    = flag.Int("trace", 0, "1 adds traced child processes and prints the per-layer metrics")
		outDir   = flag.String("out", ".bench_build/out", "directory for job state and trace files")
		child    = flag.Bool("child", false, "run as one measuring process (internal)")
		index    = flag.Int("index", 0, "child index (internal)")
		share    = flag.Float64("share", 0, "child measuring time in seconds (internal)")
	)
	flag.Parse()
	if !slices.Contains(workloadNames, *workload) || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload fig8|scaled-sampled|serve-jobs, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	if *child {
		res, err := runChild(ctx, childConfig{
			Workload: *workload, Seed: *seed, Index: *index, ShareS: *share,
			Trace: *trace == 1, OutDir: *outDir,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			os.Exit(1)
		}
		return
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, OutDir: *outDir}
	rep, err := measure(ctx, cfg, func(ctx context.Context, c childConfig) (childResult, error) {
		return spawn(ctx, exe, c)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
}

// spawn runs one measuring child process and decodes its report.
func spawn(ctx context.Context, exe string, c childConfig) (childResult, error) {
	trace := "0"
	if c.Trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child",
		"-workload", c.Workload, "-seed", strconv.FormatInt(c.Seed, 10),
		"-index", strconv.Itoa(c.Index), "-share", strconv.FormatFloat(c.ShareS, 'g', -1, 64),
		"-trace", trace, "-out", c.OutDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	var res childResult
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("child %d (trace=%v): %w", c.Index, c.Trace, err)
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return res, fmt.Errorf("child %d report: %w", c.Index, err)
	}
	return res, nil
}
