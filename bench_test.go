// Package dynaspam_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (§5). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark prints the regenerated rows once (on the first iteration)
// and reports simulation metrics so changes in framework behaviour are
// visible as benchmark deltas:
//
//	BenchmarkFig7TraceCoverage    — Figure 7 (coverage vs trace length)
//	BenchmarkTable5ConfigLifetime — Table 5  (traces, lifetimes vs fabrics)
//	BenchmarkFig8Speedup          — Figure 8 (speedups; the headline result)
//	BenchmarkFig9Energy           — Figure 9 (energy breakdown)
//	BenchmarkTable6Area           — Table 6  (area model)
//	BenchmarkAblationNaiveMapper  — §2.2     (naive vs resource-aware mapping)
//	BenchmarkBaselinePipeline     — host-pipeline simulation throughput
//	BenchmarkFastForwardPipeline  — functional fast-forward throughput
//	BenchmarkSampledPipeline      — SMARTS-style sampled simulation
//	BenchmarkParallelSweep        — Figure 8 sweep at 1..N workers (the
//	                                internal/runner speedup measurement)
package dynaspam_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"dynaspam/internal/area"
	"dynaspam/internal/core"
	"dynaspam/internal/cpistack"
	"dynaspam/internal/experiments"
	"dynaspam/internal/fabric"
	"dynaspam/internal/interp"
	"dynaspam/internal/isa"
	"dynaspam/internal/mapper"
	"dynaspam/internal/mem"
	"dynaspam/internal/ooo"
	"dynaspam/internal/probe"
	"dynaspam/internal/program"
	"dynaspam/internal/runner"
	"dynaspam/internal/spans"
	"dynaspam/internal/workloads"
)

var printOnce sync.Map

// once prints s a single time per benchmark name across -benchtime
// iterations.
func once(b *testing.B, s string) {
	if _, loaded := printOnce.LoadOrStore(b.Name(), true); !loaded {
		b.Logf("\n%s", s)
	}
}

// warmUp runs one untimed iteration and then resets the timer and the
// allocation counters, so the one-time setup a benchmark's first run pays
// is not averaged into its per-op figures: allocs/op is then the same at
// any -benchtime.
func warmUp(b *testing.B, run func() error) {
	b.Helper()
	if err := run(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
}

func BenchmarkFig7TraceCoverage(b *testing.B) {
	ws := workloads.All()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7Sweep(context.Background(), ws, []int{16, 24, 32, 40}, runner.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			once(b, experiments.Fig7Report(rows))
			var fabricAt32 []float64
			for _, r := range rows {
				if r.TraceLen == 32 {
					fabricAt32 = append(fabricAt32, r.FabricPct)
				}
			}
			mean := 0.0
			for _, f := range fabricAt32 {
				mean += f
			}
			b.ReportMetric(100*mean/float64(len(fabricAt32)), "fabric%@32")
		}
	}
}

func BenchmarkTable5ConfigLifetime(b *testing.B) {
	ws := workloads.All()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5Sweep(context.Background(), ws, []int{1, 2, 4}, runner.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			once(b, experiments.Table5Report(rows))
		}
	}
}

func BenchmarkFig8Speedup(b *testing.B) {
	ws := workloads.All()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8Sweep(context.Background(), ws, runner.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report, err := experiments.Fig8Report(rows)
			if err != nil {
				b.Fatal(err)
			}
			once(b, report)
			_, n, s, _ := experiments.GeomeanSpeedups(rows) // Fig8Report checked them
			b.ReportMetric(s, "geomean-speedup")
			b.ReportMetric(n, "geomean-nospec")
		}
	}
}

func BenchmarkFig9Energy(b *testing.B) {
	ws := workloads.All()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig9Sweep(context.Background(), ws, runner.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report, err := experiments.Fig9Report(rows)
			if err != nil {
				b.Fatal(err)
			}
			once(b, report)
			red, _ := experiments.GeomeanEnergyReduction(rows) // Fig9Report checked it
			b.ReportMetric(100*red, "geomean-reduction%")
		}
	}
}

func BenchmarkTable6Area(b *testing.B) {
	g := fabric.DefaultGeometry()
	for i := 0; i < b.N; i++ {
		report := area.Report(g)
		if i == 0 {
			once(b, report)
			b.ReportMetric(area.FabricMM2(g, 8), "fabric-mm2@8")
		}
	}
}

func BenchmarkAblationNaiveMapper(b *testing.B) {
	ws := workloads.All()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationSweep(context.Background(), ws, 32, runner.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			once(b, experiments.AblationReport(rows))
			totalTraces, naiveTotal, awareTotal := 0, 0, 0
			for _, r := range rows {
				totalTraces += r.Traces
				naiveTotal += r.NaiveOK
				awareTotal += r.AwareOK
			}
			b.ReportMetric(100*float64(naiveTotal)/float64(totalTraces), "naive-ok%")
			b.ReportMetric(100*float64(awareTotal)/float64(totalTraces), "aware-ok%")
		}
	}
}

// BenchmarkAblationPriorityPolicy isolates the contribution of the Table 2
// priority scoring from the mapper's large scope by mapping every real
// trace shape with the paper's policy and with a flat (reuse-blind) policy,
// comparing allocated datapath slots.
func BenchmarkAblationPriorityPolicy(b *testing.B) {
	ws := workloads.All()
	g := fabric.DefaultGeometry()
	for i := 0; i < b.N; i++ {
		table2Slots, flatSlots, both := 0, 0, 0
		for _, w := range ws {
			for _, tr := range experiments.SampleTraces(w, 32) {
				a, errA := mapper.MapStaticPolicy(tr, g, 0, len(tr), mapper.Table2Policy)
				f, errF := mapper.MapStaticPolicy(tr, g, 0, len(tr), mapper.FlatPolicy)
				if errA == nil && errF == nil {
					both++
					table2Slots += a.DatapathSlots
					flatSlots += f.DatapathSlots
				}
			}
		}
		if i == 0 {
			once(b, fmt.Sprintf("traces mapped by both policies: %d\nTable 2 datapath slots: %d\nflat policy datapath slots: %d",
				both, table2Slots, flatSlots))
			b.ReportMetric(float64(table2Slots)/float64(both), "table2-slots/trace")
			b.ReportMetric(float64(flatSlots)/float64(both), "flat-slots/trace")
		}
	}
}

// BenchmarkBaselinePipeline measures raw simulation throughput of the host
// pipeline (cycles simulated per second), a sanity anchor for the other
// benchmarks' wall times.
func BenchmarkBaselinePipeline(b *testing.B) {
	w, err := workloads.ByAbbrev("HS")
	if err != nil {
		b.Fatal(err)
	}
	params := core.DefaultParams()
	params.Mode = core.ModeBaseline
	warmUp(b, func() error { _, err := experiments.Run(w, params); return err })
	cycles := uint64(0)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(w, params)
		if err != nil {
			b.Fatal(err)
		}
		cycles += r.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/run")
}

// BenchmarkTraceOverhead pins the observability contract: a simulation with
// tracing disabled (nil probe) must cost exactly what it cost before the
// probe points existed — compare the disabled sub-benchmark's ns/op and
// allocs/op against BenchmarkBaselinePipeline history. The enabled
// sub-benchmark documents the price of full event recording for scale.
func BenchmarkTraceOverhead(b *testing.B) {
	w, err := workloads.ByAbbrev("NW")
	if err != nil {
		b.Fatal(err)
	}
	params := core.DefaultParams()
	params.Mode = core.ModeAccel
	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		warmUp(b, func() error {
			_, err := experiments.RunProbedCtx(context.Background(), w, params, nil)
			return err
		})
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RunProbedCtx(context.Background(), w, params, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		b.ReportAllocs()
		warmUp(b, func() error {
			_, err := experiments.RunProbedCtx(context.Background(), w, params, probe.New(0))
			return err
		})
		events := 0
		for i := 0; i < b.N; i++ {
			p := probe.New(0)
			if _, err := experiments.RunProbedCtx(context.Background(), w, params, p); err != nil {
				b.Fatal(err)
			}
			events = len(p.Events())
		}
		b.ReportMetric(float64(events), "events/run")
	})
}

// BenchmarkParallelSweep measures the wall-clock effect of fanning the
// Figure 8 sweep (11 workloads × 4 modes = 44 independent simulations) out
// across internal/runner workers. Compare the j1 and jN sub-benchmark times:
// on a machine with ≥4 cores, jN should be at least 2× faster than j1. Every
// worker count must produce byte-identical rows; the benchmark fails if any
// diverges from the serial reference.
func BenchmarkParallelSweep(b *testing.B) {
	ws := workloads.All()
	ref, err := experiments.Fig8Sweep(context.Background(), ws, runner.Options{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	refStr := fmt.Sprintf("%+v", ref)

	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, j := range counts {
		j := j
		b.Run(fmt.Sprintf("j%d", j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Fig8Sweep(context.Background(), ws, runner.Options{Parallelism: j})
				if err != nil {
					b.Fatal(err)
				}
				if got := fmt.Sprintf("%+v", rows); got != refStr {
					b.Fatalf("rows with %d workers differ from serial reference:\n got %s\nwant %s", j, got, refStr)
				}
			}
		})
	}
}

// BenchmarkCPUStep measures the per-cycle cost of the OOO loop in isolation:
// a register-only loop body (no memory traffic, no mispredicts — the jump's
// target is always predicted once warm) keeps the pipeline saturated while
// the cycle budget caps the run at exactly b.N cycles, so ns/op is ns per
// simulated cycle and allocs/op is the steady-state per-cycle allocation
// count of the scheduler, wakeup, and commit machinery.
func BenchmarkCPUStep(b *testing.B) {
	p := program.NewBuilder("step").
		Label("loop").
		Add(isa.R(3), isa.R(1), isa.R(2)).
		Add(isa.R(4), isa.R(3), isa.R(1)).
		Add(isa.R(5), isa.R(4), isa.R(2)).
		Add(isa.R(6), isa.R(5), isa.R(1)).
		Jmp("loop").
		Halt().
		MustBuild()
	cfg := ooo.DefaultConfig()
	cfg.MaxCycles = uint64(b.N)
	cpu := ooo.New(cfg, p, mem.New(), nil)
	b.ReportAllocs()
	b.ResetTimer()
	// The infinite loop exits via the cycle budget; that error is the
	// benchmark's intended stop condition, not a failure.
	if err := cpu.Run(); err == nil {
		b.Fatal("infinite loop halted unexpectedly")
	}
}

// BenchmarkCPUStepFullRS measures the per-cycle cost of the OOO loop with
// the 64-entry reservation station full, where a scan-based select would
// be at its slowest: each iteration's non-pipelined divide (12 cycles)
// feeds seven adds, so waiting adds pile up behind the divide chain and
// rename stalls on the RS. As in BenchmarkCPUStep, ns/op is ns per
// simulated cycle and allocs/op must stay 0.
func BenchmarkCPUStepFullRS(b *testing.B) {
	bld := program.NewBuilder("fullrs").
		Label("loop").
		Div(isa.R(3), isa.R(3), isa.R(1))
	for r := 4; r <= 10; r++ {
		bld.Add(isa.R(r), isa.R(3), isa.R(2))
	}
	p := bld.Jmp("loop").Halt().MustBuild()
	cfg := ooo.DefaultConfig()
	cfg.MaxCycles = uint64(b.N)
	cpu := ooo.New(cfg, p, mem.New(), nil)
	b.ReportAllocs()
	b.ResetTimer()
	// The infinite loop exits via the cycle budget; that error is the
	// benchmark's intended stop condition, not a failure.
	if err := cpu.Run(); err == nil {
		b.Fatal("infinite loop halted unexpectedly")
	}
	b.StopTimer()
	// Past warm-up, almost every cycle waits on the divide with rename
	// blocked by the full RS.
	if rs := cpu.CPIStack().Get(cpistack.CauseStructRS); b.N >= 10_000 && rs < uint64(b.N)/2 {
		b.Fatalf("RS-full stalls on %d of %d cycles: the RS is not kept full", rs, b.N)
	}
}

// BenchmarkCPIStackOverhead measures the per-cycle cost of the pipeline
// with cycle accounting exercised on the same saturated register loop as
// BenchmarkCPUStep: classification runs once per counted cycle, so comparing
// the two benchmarks' ns/op isolates what attribution adds to the OOO loop.
// Attribution must stay at 0 allocs/op (the stack is a fixed array embedded
// in the CPU), and the stack must sum exactly to the cycles simulated.
func BenchmarkCPIStackOverhead(b *testing.B) {
	p := program.NewBuilder("cpistep").
		Label("loop").
		Add(isa.R(3), isa.R(1), isa.R(2)).
		Add(isa.R(4), isa.R(3), isa.R(2)).
		Add(isa.R(5), isa.R(4), isa.R(1)).
		Add(isa.R(6), isa.R(5), isa.R(2)).
		Jmp("loop").
		Halt().
		MustBuild()
	cfg := ooo.DefaultConfig()
	cfg.MaxCycles = uint64(b.N)
	cpu := ooo.New(cfg, p, mem.New(), nil)
	b.ReportAllocs()
	b.ResetTimer()
	// The infinite loop exits via the cycle budget; that error is the
	// benchmark's intended stop condition, not a failure.
	if err := cpu.Run(); err == nil {
		b.Fatal("infinite loop halted unexpectedly")
	}
	b.StopTimer()
	if total := cpu.CPIStack().Total(); total != cpu.Stats().Cycles {
		b.Fatalf("CPI stack sums to %d over %d cycles", total, cpu.Stats().Cycles)
	}
}

// BenchmarkFabricInvokeOnPath measures one fabric invocation that stays on
// its recorded path, end to end — operand arrival, dataflow scheduling,
// functional evaluation, live-out extraction and the published start times
// — on a real trace mapped by the resource-aware mapper. The invocation is
// one the program really makes: the interpreter runs HS to a visit of the
// trace's anchor whose path the trace follows, and the invocation takes
// that visit's register values as live-ins and reads its memory. Every
// iteration must match the trace's exit. Results are released back to the
// fabric each iteration, so allocs/op is the steady-state per-invocation
// allocation count.
func BenchmarkFabricInvokeOnPath(b *testing.B) {
	w, err := workloads.ByAbbrev("HS")
	if err != nil {
		b.Fatal(err)
	}
	g := fabric.DefaultGeometry()
	var cfg *fabric.Config
	for _, tr := range experiments.SampleTraces(w, 32) {
		if c, err := mapper.MapStatic(tr, g, 0, len(tr)); err == nil {
			cfg = c
			break
		}
	}
	if cfg == nil {
		b.Fatal("no mappable sample trace")
	}
	f := fabric.New(g)
	s := interp.New(w.NewMemory())
	env := fabric.EvalEnv{
		ReadMem:     s.Mem.Read64,
		AccessMem:   func(addr uint64, write bool) int { return 2 },
		Speculative: true,
	}
	liveIns := make([]uint64, len(cfg.LiveIns))
	anchor := cfg.Insts[0].PC
	for {
		if err := s.Step(w.Prog); err != nil || s.Halted {
			b.Fatalf("HS halted (err %v) before a visit of pc %d followed the trace", err, anchor)
		}
		if s.PC != anchor {
			continue
		}
		for i, r := range cfg.LiveIns {
			if r.IsFP() {
				liveIns[i] = math.Float64bits(s.ReadFP(r))
			} else {
				liveIns[i] = uint64(s.ReadReg(r))
			}
		}
		res := f.Run(fabric.Invocation{Cfg: cfg, LiveIns: liveIns}, env)
		onPath := res.ExitMatches
		f.Release(&res)
		if onPath {
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := f.Run(fabric.Invocation{Cfg: cfg, LiveIns: liveIns, Now: int64(i)}, env)
		if !res.ExitMatches {
			b.Fatalf("iteration %d left the trace's path at pc %d", i, res.ActualExitPC)
		}
		f.Release(&res)
	}
}

// BenchmarkSpanOverhead measures the always-on per-job cost of the span
// tracer on the serving path: one job-shaped tree (lifecycle spans plus
// eleven annotated cell spans with sim-clock anchors, the Figure 8 sweep
// shape) recorded per iteration against a deterministic clock. The export
// path (GET /jobs/{id}/trace) is on-demand and excluded — this is the
// overhead every job pays whether or not anyone ever fetches its trace.
func BenchmarkSpanOverhead(b *testing.B) {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	clock := func() time.Time {
		base = base.Add(time.Millisecond)
		return base
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := spans.NewRecorder(spans.DefaultCapacity, clock)
		root := rec.Start(-1, "lifecycle", "job job-000001",
			spans.Label{Key: "job_id", Value: "job-000001"},
			spans.Label{Key: "run_id", Value: "bench"})
		queue := rec.Start(root, "lifecycle", "queue-wait")
		rec.End(queue)
		admit := rec.Start(root, "lifecycle", "admit")
		rec.End(admit)
		run := rec.Start(root, "lifecycle", "run")
		for c := 0; c < 11; c++ {
			cell := rec.Start(run, "cell", "cell NW/accel-spec",
				spans.Label{Key: "cell", Value: "NW/accel-spec"})
			rec.Annotate(cell, "status", "ok")
			rec.Annotate(cell, "source", "run")
			rec.AnchorCycle(cell, "sim-cycle-first", 0)
			rec.AnchorCycle(cell, "sim-cycle-last", 123456)
			rec.End(cell)
		}
		rec.End(run)
		flush := rec.Start(root, "lifecycle", "journal-flush")
		rec.End(flush)
		rec.End(root)
	}
}

// BenchmarkFastForwardPipeline measures functional fast-forward throughput:
// the whole BFS workload executed through the interpreter-speed path (branch
// predictor, T-Cache counters, and caches still trained) with only the final
// halt committed in detail. Compare cycles-simulated wall time against
// BenchmarkBaselinePipeline to see the fidelity/speed trade.
func BenchmarkFastForwardPipeline(b *testing.B) {
	w, err := workloads.ByAbbrev("BFS")
	if err != nil {
		b.Fatal(err)
	}
	params := core.DefaultParams()
	params.Mode = core.ModeAccel
	params.Sim = core.SimPolicy{Mode: core.SimFastForward}
	warmUp(b, func() error { _, err := experiments.Run(w, params); return err })
	insts := uint64(0)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(w, params)
		if err != nil {
			b.Fatal(err)
		}
		insts += r.Sim.FFInsts + r.Sim.DetailInsts
	}
	b.ReportMetric(float64(insts)/float64(b.N), "insts/run")
}

// BenchmarkSampledPipeline measures SMARTS-style sampled simulation on BFS:
// short detailed windows interleaved with functionally-warmed fast-forward.
// ns/op against BenchmarkBaselinePipeline-style full detail is the headline
// production-workload speedup; insts/run confirms full coverage.
func BenchmarkSampledPipeline(b *testing.B) {
	w, err := workloads.ByAbbrev("BFS")
	if err != nil {
		b.Fatal(err)
	}
	params := core.DefaultParams()
	params.Mode = core.ModeAccel
	// Windows sized for BFS's ~30k dynamic instructions so several sampling
	// periods fit (the production defaults assume multi-million-inst runs).
	params.Sim = core.SimPolicy{Mode: core.SimSampled, Warmup: 500, DetailWindow: 2000, FFInterval: 10_000}
	warmUp(b, func() error { _, err := experiments.Run(w, params); return err })
	insts := uint64(0)
	windows := uint64(0)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(w, params)
		if err != nil {
			b.Fatal(err)
		}
		insts += r.Sim.FFInsts + r.Sim.DetailInsts
		windows += uint64(r.Sim.Windows)
	}
	b.ReportMetric(float64(insts)/float64(b.N), "insts/run")
	b.ReportMetric(float64(windows)/float64(b.N), "windows/run")
}
