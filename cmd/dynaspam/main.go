// Command dynaspam runs one or more benchmarks under a chosen DynaSpAM
// configuration and prints the runs' statistics.
//
// Usage:
//
//	dynaspam -bench KM -mode accel-spec -tracelen 32 -fabrics 1
//	dynaspam -bench BP,NW,PF -j 4         # parallel sweep, compact table
//	dynaspam -bench all -journal runs.jsonl
//	dynaspam -list
//
// A single benchmark prints the full statistics and energy breakdown; a
// comma-separated list (or "all") fans the simulations out across -j
// workers and prints one summary row per benchmark. With -journal, every
// simulation appends one JSON line (wall time, cycles, IPC, counters,
// verification status) to the given file.
//
// Observability:
//
//	dynaspam -bench NW -trace out.json        # Chrome trace events (Perfetto)
//	dynaspam -bench NW -pipeview out.kanata   # Konata-style pipeline view
//	dynaspam explain -bench BFS               # baseline-vs-accel CPI stacks
//	dynaspam explain -bench all -json         # same, machine-readable
//	dynaspam -bench all -cpuprofile cpu.prof  # profile the simulator itself
//	dynaspam -bench all -serve :8080          # live telemetry during the sweep
//	dynaspam serve -addr :8080 -state dir     # multi-tenant sweep job server
//	curl -s localhost:8080/metrics | dynaspam lint-metrics
//	curl -s localhost:8080/jobs/job-000001/trace | dynaspam lint-trace
//
// The paper's evaluation and the inspection tools are subcommands too:
//
//	dynaspam figures -j 8                     # every paper table and figure
//	dynaspam figures -fig 8 -journal runs.jsonl
//	dynaspam pipeview nw.kanata               # render a -pipeview export
//	dynaspam tracedump -bench NW              # a workload's fabric mappings
//
// -trace and -pipeview attach a cycle-accurate probe to every simulation
// and export the recorded events after the sweep; output is deterministic:
// byte-identical across repeated runs and across -j worker counts. Render
// a pipeline view in the terminal with `dynaspam pipeview`.
//
// -serve exposes the live telemetry plane (/metrics, /status, /events,
// /healthz, /debug/pprof) for the duration of the sweep. `dynaspam serve`
// keeps the process up as a multi-tenant job server: sweeps are submitted
// as jobs (POST /jobs), queue FIFO, run -max-jobs at a time, and — with a
// -state directory — survive crashes by resuming at their first
// unfinished cell; identical resubmissions are served from a result
// cache. See OPERATIONS.md for the full API. Telemetry is observe-only:
// simulation outputs are bit-identical with the server on or off.
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"dynaspam/internal/core"
	"dynaspam/internal/energy"
	"dynaspam/internal/experiments"
	"dynaspam/internal/jobs"
	"dynaspam/internal/probe"
	"dynaspam/internal/runner"
	"dynaspam/internal/stats"
	"dynaspam/internal/telemetry"
	"dynaspam/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches the subcommands and returns the process exit code. It is
// the testable entry point: main only binds it to os.Args and os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "serve":
			return runServe(args[1:], stderr)
		case "explain":
			return runExplain(args[1:], stdout, stderr)
		case "figures":
			return runFigures(args[1:], stdout, stderr)
		case "pipeview":
			return runPipeview(args[1:], stdout, stderr)
		case "tracedump":
			return runTracedump(args[1:], stdout, stderr)
		case "lint-metrics":
			return runLint("lint-metrics", telemetry.LintExposition, args[1:], stdout, stderr)
		case "lint-trace":
			return runLint("lint-trace", probe.LintChromeTrace, args[1:], stdout, stderr)
		}
	}
	return runSweep(args, stdout, stderr)
}

// newRunLogger builds the process's structured logger: text records on w,
// every record carrying a fresh random run-correlation ID so the log
// stream of one invocation can be filtered out of an aggregated store.
func newRunLogger(w io.Writer) (*slog.Logger, string) {
	b := make([]byte, 4)
	if _, err := rand.Read(b); err != nil {
		// Fall back to a fixed ID; correlation degrades, logging must not.
		copy(b, []byte{0, 0, 0, 0})
	}
	id := hex.EncodeToString(b)
	return slog.New(slog.NewTextHandler(w, nil)).With("run_id", id), id
}

// sweepFlags are the -j, -journal and -progress flags shared by the
// sweeping subcommands (the default sweep and figures).
type sweepFlags struct {
	parallelism *int
	journal     *string
	progress    *bool
}

// addSweepFlags registers the sweep flags on fs.
func addSweepFlags(fs *flag.FlagSet) sweepFlags {
	return sweepFlags{
		parallelism: fs.Int("j", 0, "parallel simulations (0 = GOMAXPROCS)"),
		journal:     fs.String("journal", "", "write a JSON-lines run journal to this file"),
		progress:    fs.Bool("progress", false, "report live sweep progress on stderr"),
	}
}

// options builds the runner options the flags select: name, workers,
// progress on stderr and, with -journal, an open journal. The returned
// function closes the journal and must run once the sweep is over. ok is
// false, with the failure logged, when the journal cannot be opened.
func (f sweepFlags) options(name string, log *slog.Logger, stderr io.Writer) (opts runner.Options, closeJournal func(), ok bool) {
	opts = runner.Options{Parallelism: *f.parallelism, Name: name, Log: log}
	if *f.progress {
		opts.Progress = stderr
	}
	if *f.journal == "" {
		return opts, func() {}, true
	}
	j, err := runner.OpenJournal(*f.journal)
	if err != nil {
		log.Error("journal open failed", "path", *f.journal, "err", err)
		return opts, nil, false
	}
	opts.Journal = j
	return opts, func() {
		if err := j.Close(); err != nil {
			log.Error("journal close failed", "path", *f.journal, "err", err)
		}
	}, true
}

// runSweep is the default mode: run the selected benchmarks once and
// print their statistics.
func runSweep(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dynaspam", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName  = fs.String("bench", "PF", `benchmark abbreviation, comma-separated list, or "all" (see -list)`)
		modeName   = fs.String("mode", "accel-spec", "baseline | mapping | accel-nospec | accel-spec")
		traceLen   = fs.Int("tracelen", 32, "trace length cap in instructions")
		fabrics    = fs.Int("fabrics", 1, "number of physical fabrics")
		simPolicy  = fs.String("sim-policy", "full", "simulation fidelity: full | ff | sampled")
		ffInterval = fs.Int("ff-interval", 0, "instructions fast-forwarded per sampling region (0 = default)")
		detailWin  = fs.Int("detail-window", 0, "detailed commits measured per sampling period (0 = default)")
		warmup     = fs.Int("warmup", 0, "unmeasured detailed commits before each window (0 = default)")
		list       = fs.Bool("list", false, "list benchmarks and exit")
		tracePath  = fs.String("trace", "", "write a Chrome trace-event JSON file (load in Perfetto)")
		pipePath   = fs.String("pipeview", "", "write a Konata-style pipeline view (render with `dynaspam pipeview`)")
		traceLimit = fs.Int("trace-limit", 0, "cap recorded events per simulation (0 = unlimited)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the simulator to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile of the simulator to this file")
		serveAddr  = fs.String("serve", "", "serve live telemetry (/metrics, /status, /events) on this address for the sweep's duration")
	)
	sweep := addSweepFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	log, runID := newRunLogger(stderr)

	// Both profile files open before any simulation runs, so a bad path
	// fails fast instead of discarding a finished sweep's profile.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Error("cpuprofile open failed", "path", *cpuProfile, "err", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Error("cpuprofile start failed", "path", *cpuProfile, "err", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Error("cpuprofile close failed", "path", *cpuProfile, "err", err)
			}
		}()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Error("memprofile open failed", "path", *memProfile, "err", err)
			return 1
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Error("memprofile write failed", "path", *memProfile, "err", err)
			}
			if err := f.Close(); err != nil {
				log.Error("memprofile close failed", "path", *memProfile, "err", err)
			}
		}()
	}

	if *list {
		tb := stats.NewTable("Abbrev", "Name", "Domain")
		for _, w := range workloads.All() {
			tb.AddRow(w.Abbrev, w.Name, w.Domain)
		}
		fmt.Fprint(stdout, tb.String())
		return 0
	}

	// The flags resolve exactly as a POST /jobs body does, so the CLI and
	// the jobs API accept and reject the same configurations.
	spec := jobs.Spec{
		Bench:        *benchName,
		Mode:         *modeName,
		TraceLen:     *traceLen,
		Fabrics:      *fabrics,
		SimPolicy:    *simPolicy,
		FFInterval:   *ffInterval,
		DetailWindow: *detailWin,
		Warmup:       *warmup,
	}
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
	mode := params.Mode

	// SIGINT/SIGTERM cancel the sweep; in-flight cells stop at their next
	// context poll and queued cells are skipped.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	opts, closeJournal, ok := sweep.options("dynaspam", log, stderr)
	if !ok {
		return 1
	}
	defer closeJournal()

	var tel *telemetry.Server
	if *serveAddr != "" {
		tel = telemetry.NewServer(runID, log)
		if _, err := tel.Start(*serveAddr); err != nil {
			log.Error("telemetry listen failed", "addr", *serveAddr, "err", err)
			return 1
		}
		opts.Reporter = tel.Reporter()
		defer func() {
			shCtx, shCancel := context.WithTimeout(context.Background(), shutdownGrace)
			defer shCancel()
			if err := tel.Shutdown(shCtx); err != nil {
				log.Error("telemetry shutdown failed", "err", err)
			}
		}()
	}

	// With -trace/-pipeview, each simulation gets its own full probe
	// (workers never share one), pre-allocated in input order so the
	// merged export is identical at any -j. With only -serve, cells get
	// metrics-only probes: registry counters and histograms for /metrics,
	// no event log to bound memory.
	tracing := *tracePath != "" || *pipePath != ""
	var probes []*probe.Probe
	if tracing || tel != nil {
		probes = make([]*probe.Probe, len(ws))
		for i := range ws {
			if tracing {
				probes[i] = probe.New(*traceLimit)
			} else {
				probes[i] = probe.NewMetricsOnly()
			}
		}
	}

	// Every cell is independent, so even the single-benchmark case goes
	// through the runner: journaling and progress behave identically.
	var cells []runner.Job[*experiments.RunResult]
	for i, w := range ws {
		i, w := i, w
		cells = append(cells, runner.Job[*experiments.RunResult]{
			Label: fmt.Sprintf("%s/%v", w.Abbrev, mode),
			Run: func(ctx context.Context) (*experiments.RunResult, error) {
				if probes == nil {
					return experiments.RunCtx(ctx, w, params)
				}
				res, err := experiments.RunProbedCtx(ctx, w, params, probes[i])
				if err == nil && tel != nil {
					// The cell is done mutating its registry; hand the
					// aggregator an immutable export so /metrics sees the
					// cell's counters as soon as it finishes.
					tel.Aggregator().Merge(probes[i].Metrics().Export())
				}
				return res, err
			},
		})
	}
	results, err := runner.Run(ctx, opts, cells)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if tracing {
		var runs []probe.TraceRun
		for i, w := range ws {
			runs = append(runs, probes[i].TraceRun(fmt.Sprintf("%s/%v", w.Abbrev, mode)))
		}
		if *tracePath != "" {
			if err := exportFile(*tracePath, runs, probe.WriteChromeTrace); err != nil {
				log.Error("trace export failed", "path", *tracePath, "err", err)
				return 1
			}
		}
		if *pipePath != "" {
			if err := exportFile(*pipePath, runs, probe.WritePipeView); err != nil {
				log.Error("pipeview export failed", "path", *pipePath, "err", err)
				return 1
			}
		}
	}

	if len(ws) == 1 {
		printDetailed(stdout, ws[0], mode, results[0])
		return 0
	}
	printSummary(stdout, mode, results)
	return 0
}

// runLint implements the lint-metrics and lint-trace subcommands: check
// the document on stdin (or in a file argument) and print "ok" when it
// passes, e.g. `curl -s host/metrics | dynaspam lint-metrics`.
func runLint(name string, check func(io.Reader) error, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dynaspam "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	in := io.Reader(os.Stdin)
	src := "stdin"
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		in, src = f, fs.Arg(0)
	}
	if err := check(in); err != nil {
		fmt.Fprintf(stderr, "%s: %s: %v\n", name, src, err)
		return 1
	}
	fmt.Fprintln(stdout, "ok")
	return 0
}

// exportFile writes runs to path with the given exporter.
func exportFile(path string, runs []probe.TraceRun, write func(w io.Writer, runs []probe.TraceRun) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, runs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSummary renders one row per benchmark of a multi-benchmark sweep.
func printSummary(out io.Writer, mode core.Mode, results []*experiments.RunResult) {
	fmt.Fprintf(out, "%d benchmarks under %v\n\n", len(results), mode)
	tb := stats.NewTable("Bench", "Cycles", "Insts", "IPC", "Fabric", "Mapped", "Offloaded",
		"InvLat", "InvII", "T$ hit", "C$ hit", "Energy pJ")
	for _, r := range results {
		tb.AddRow(r.Workload,
			fmt.Sprint(r.Cycles), fmt.Sprint(r.Committed), fmt.Sprintf("%.2f", r.IPC),
			stats.Pct(float64(r.FabricOps)/float64(r.Committed)),
			fmt.Sprint(r.MappedTraces), fmt.Sprint(r.OffloadedTraces),
			fmt.Sprintf("%.1f", r.MeanInvocLatency()), fmt.Sprintf("%.1f", r.MeanInvocII()),
			stats.Pct(r.TCache.HitRate()), stats.Pct(r.Cfg.HitRate()),
			fmt.Sprintf("%.0f", r.Energy.Total()))
	}
	fmt.Fprint(out, tb.String())
}

// printDetailed renders the full single-benchmark statistics view.
func printDetailed(out io.Writer, w *workloads.Workload, mode core.Mode, res *experiments.RunResult) {
	fmt.Fprintf(out, "%s (%s) under %v\n\n", w.Name, w.Abbrev, mode)
	tb := stats.NewTable("Metric", "Value")
	tb.AddRowf("cycles", fmt.Sprintf("%d", res.Cycles))
	tb.AddRowf("instructions", fmt.Sprintf("%d", res.Committed))
	tb.AddRowf("IPC", res.IPC)
	tb.AddRowf("host instructions", fmt.Sprintf("%d (%s)", res.HostOps, stats.Pct(float64(res.HostOps)/float64(res.Committed))))
	tb.AddRowf("mapping instructions", fmt.Sprintf("%d (%s)", res.MappedOps, stats.Pct(float64(res.MappedOps)/float64(res.Committed))))
	tb.AddRowf("fabric instructions", fmt.Sprintf("%d (%s)", res.FabricOps, stats.Pct(float64(res.FabricOps)/float64(res.Committed))))
	tb.AddRowf("traces mapped", fmt.Sprintf("%d", res.MappedTraces))
	tb.AddRowf("traces offloaded", fmt.Sprintf("%d", res.OffloadedTraces))
	tb.AddRowf("invocations", fmt.Sprintf("%d", res.Core.Offloads))
	tb.AddRowf("invocation commits", fmt.Sprintf("%d", res.Core.TraceCommits))
	tb.AddRowf("invocation squashes", fmt.Sprintf("%d", res.Core.TraceSquashes))
	tb.AddRowf("mean invocation latency", fmt.Sprintf("%.1f cycles", res.MeanInvocLatency()))
	tb.AddRowf("mean initiation interval", fmt.Sprintf("%.1f cycles", res.MeanInvocII()))
	tb.AddRowf("T-Cache hit rate", stats.Pct(res.TCache.HitRate()))
	tb.AddRowf("config-cache hit rate", stats.Pct(res.Cfg.HitRate()))
	tb.AddRowf("avg config lifetime", res.AvgConfigLife)
	tb.AddRowf("reconfigurations", fmt.Sprintf("%d", res.Reconfigs))
	tb.AddRowf("branch mispredicts", fmt.Sprintf("%d", res.CPU.BranchMispredicts))
	tb.AddRowf("memory violations", fmt.Sprintf("%d", res.CPU.MemViolations))
	if res.Sim.FFInsts > 0 {
		tb.AddRowf("sim policy", res.Sim.Policy.Mode.String())
		tb.AddRowf("fast-forwarded insts", fmt.Sprintf("%d", res.Sim.FFInsts))
		tb.AddRowf("detailed insts", fmt.Sprintf("%d", res.Sim.DetailInsts))
		tb.AddRowf("measurement windows", fmt.Sprintf("%d", res.Sim.Windows))
		tb.AddRowf("detailed cycles", fmt.Sprintf("%d", res.Sim.DetailCycles))
		tb.AddRowf("estimated cycles", fmt.Sprintf("%d", res.Sim.EstCycles))
	}
	fmt.Fprint(out, tb.String())

	fmt.Fprintf(out, "\nEnergy breakdown (pJ):\n")
	eb := stats.NewTable("Component", "Energy")
	for c := energy.Component(0); c < energy.NumComponents; c++ {
		eb.AddRowf(c.String(), res.Energy[c])
	}
	eb.AddRowf("TOTAL", res.Energy.Total())
	fmt.Fprint(out, eb.String())
}
