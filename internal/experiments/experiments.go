// Package experiments reproduces every table and figure of the paper's
// evaluation (§5): trace coverage vs. trace length (Figure 7), detected
// traces and configuration lifetimes (Table 5), speedups of the three
// DynaSpAM configurations over the host pipeline (Figure 8), the
// per-component energy breakdown (Figure 9), the area model (Table 6), and
// the §2.2 naive-vs-resource-aware mapping ablation (Figure 2).
//
// Every run validates the simulated machine's final memory against the
// workload's golden reference before reporting numbers, so a performance
// result can never come from a functionally wrong execution.
//
// Each sweep (Fig7Sweep, Table5Sweep, Fig8Sweep, Fig9Sweep, AblationSweep)
// takes a context and runner.Options, letting callers pick the worker
// count, attach a JSON-lines run journal, and stream progress; the zero
// Options run with defaults. Every (workload, configuration) cell is an
// independent simulation — it builds its own memory image and core.System
// — so sweeps fan cells out across workers via internal/runner and
// reassemble rows in input order: the rendered output (the Report
// functions) is byte-identical at any parallelism.
package experiments

import (
	"context"
	"fmt"

	"dynaspam/internal/cfgcache"
	"dynaspam/internal/core"
	"dynaspam/internal/cpistack"
	"dynaspam/internal/energy"
	"dynaspam/internal/fabric"
	"dynaspam/internal/ooo"
	"dynaspam/internal/probe"
	"dynaspam/internal/runner"
	"dynaspam/internal/stats"
	"dynaspam/internal/tcache"
	"dynaspam/internal/workloads"
)

// RunResult captures one (workload, configuration) simulation.
type RunResult struct {
	Workload string
	Mode     core.Mode

	Cycles    uint64
	Committed uint64
	IPC       float64

	// Instruction placement (Figure 7).
	FabricOps uint64 // committed via trace invocations
	MappedOps uint64 // committed during mapping sessions
	HostOps   uint64 // everything else

	// Trace machinery (Table 5).
	MappedTraces    int
	OffloadedTraces int
	AvgConfigLife   float64
	Reconfigs       uint64

	// Energy (Figure 9).
	Energy energy.Breakdown

	// Sim is the fidelity accounting. Under reduced-fidelity policies
	// Cycles/Committed/IPC/Energy above are estimates: Cycles is the
	// sampled EstCycles, Committed includes fast-forwarded instructions,
	// and Energy is the detailed-window energy scaled to the full
	// instruction count. Full-detail runs have Sim.FFInsts == 0 and the
	// top-level numbers are exact.
	Sim core.SimStats

	Core   core.Stats
	CPU    ooo.Stats
	Fabric fabric.Stats
	TCache tcache.Stats
	Cfg    cfgcache.Stats

	// CPI is the run's cycle-accounting stack (internal/cpistack): every
	// counted cycle attributed to exactly one cause, with fast-forwarded
	// regions in the estimated bucket, so CPI.Total() == Cycles under every
	// SimPolicy.
	CPI cpistack.Stack

	// Probe is the observability tracer attached to the run via
	// RunProbedCtx (nil for plain runs).
	Probe *probe.Probe
}

// MeanInvocLatency returns the average fabric-invocation latency in cycles
// (0 when nothing was offloaded).
func (r *RunResult) MeanInvocLatency() float64 {
	if r.Core.InvocCount == 0 {
		return 0
	}
	return float64(r.Core.InvocLatencySum) / float64(r.Core.InvocCount)
}

// MeanInvocII returns the average initiation interval between successive
// invocations of the same configuration (0 when fewer than two occurred).
func (r *RunResult) MeanInvocII() float64 {
	if r.Core.InvocIICount == 0 {
		return 0
	}
	return float64(r.Core.InvocIISum) / float64(r.Core.InvocIICount)
}

// JournalMetrics implements runner.Metricser: the domain measurements
// attached to this run's journal entry. A result only exists after the
// golden-memory check passed, so verified is always 1 here; failed runs
// journal as status "error" with no metrics.
func (r *RunResult) JournalMetrics() map[string]float64 {
	m := map[string]float64{
		"cycles":             float64(r.Cycles),
		"committed":          float64(r.Committed),
		"ipc":                r.IPC,
		"host_ops":           float64(r.HostOps),
		"mapped_ops":         float64(r.MappedOps),
		"fabric_ops":         float64(r.FabricOps),
		"mapped_traces":      float64(r.MappedTraces),
		"offloaded_traces":   float64(r.OffloadedTraces),
		"avg_config_life":    r.AvgConfigLife,
		"reconfigs":          float64(r.Reconfigs),
		"fabric_invocations": float64(r.Fabric.Invocations),
		"trace_squashes":     float64(r.Core.TraceSquashes),
		"energy_pj":          r.Energy.Total(),
		"verified":           1,
		// Diagnostics the simulator always collects (probe or not).
		"invoc_latency_mean": r.MeanInvocLatency(),
		"invoc_ii_mean":      r.MeanInvocII(),
		"tcache_hit_rate":    r.TCache.HitRate(),
		"cfgcache_hit_rate":  r.Cfg.HitRate(),
		// Fidelity accounting (sim_mode is the core.SimMode enum value;
		// zero for full detail, where ff_insts is zero too).
		"sim_mode":         float64(r.Sim.Policy.Mode),
		"sim_ff_insts":     float64(r.Sim.FFInsts),
		"sim_detail_insts": float64(r.Sim.DetailInsts),
		"sim_windows":      float64(r.Sim.Windows),
	}
	// The cycle-accounting stack, one key per cause. Σ cpi_* == cycles
	// exactly (the cpistack invariant), so journal readers can recompute
	// shares without a separate total.
	for _, c := range cpistack.Causes() {
		m["cpi_"+c.String()] = float64(r.CPI.Get(c))
	}
	// With a probe attached, fold its registry in: counters plus histogram
	// count/sum/mean/bucket keys. Key sets are disjoint by construction
	// (probe metric names never collide with the literals above), and each
	// iteration writes only its own key.
	for k, v := range r.Probe.Metrics().Snapshot() {
		m[k] = v
	}
	return m
}

// Run simulates workload w under params, verifies architectural correctness
// against the golden reference, and gathers every statistic the figures
// need.
func Run(w *workloads.Workload, params core.Params) (*RunResult, error) {
	return RunCtx(context.Background(), w, params)
}

// RunCtx is Run with cooperative cancellation: the simulation aborts early
// once ctx is done, which parallel sweeps use to stop in-flight cells after
// another cell fails.
func RunCtx(ctx context.Context, w *workloads.Workload, params core.Params) (*RunResult, error) {
	return RunProbedCtx(ctx, w, params, nil)
}

// RunProbedCtx is RunCtx with an observability probe attached to the
// system for the whole simulation. The returned result carries p (in its
// Probe field) so callers can export the event trace and so
// JournalMetrics includes the probe's counters and histograms. A nil p is
// exactly RunCtx: tracing is disabled and adds no overhead.
func RunProbedCtx(ctx context.Context, w *workloads.Workload, params core.Params, p *probe.Probe) (*RunResult, error) {
	m := w.NewMemory()
	sys := core.New(params, w.Prog, m)
	if p != nil {
		sys.SetProbe(p)
	}
	if err := sys.RunCtx(ctx); err != nil {
		return nil, fmt.Errorf("%s/%v: %w", w.Abbrev, params.Mode, err)
	}
	if err := sys.Verify(); err != nil {
		return nil, fmt.Errorf("%s/%v: %w", w.Abbrev, params.Mode, err)
	}
	sys.FlushCPISamples()
	golden := w.GoldenMemory()
	if eq, diff := golden.Equal(m); !eq {
		return nil, fmt.Errorf("%s/%v: architectural mismatch: %s", w.Abbrev, params.Mode, diff)
	}

	cpu := sys.CPU().Stats()
	var fstat fabric.Stats
	for i := 0; i < sys.Fabrics().NumFabrics(); i++ {
		s := sys.Fabrics().Instance(i).Stats()
		fstat.Invocations += s.Invocations
		fstat.OpsExecuted += s.OpsExecuted
		for t := range s.FUOps {
			fstat.FUOps[t] += s.FUOps[t]
		}
		fstat.PassRegMoves += s.PassRegMoves
		fstat.GlobalBusMoves += s.GlobalBusMoves
		fstat.Loads += s.Loads
		fstat.Stores += s.Stores
		fstat.Violations += s.Violations
		fstat.EarlyExits += s.EarlyExits
		fstat.ActivePECycles += s.ActivePECycles
		fstat.IdlePECycles += s.IdlePECycles
	}

	model := energy.DefaultModel()
	breakdown := model.Compute(energy.Inputs{
		CPU:        cpu,
		Hier:       sys.CPU().Hierarchy(),
		FabricStat: fstat,
		Reconfigs:  sys.Fabrics().Reconfigurations(),
	})

	cs := sys.Stats()
	res := &RunResult{
		Workload:        w.Abbrev,
		Mode:            params.Mode,
		Cycles:          cpu.Cycles,
		Committed:       cpu.Committed,
		IPC:             cpu.IPC(),
		FabricOps:       cpu.TraceCommittedOps,
		MappedOps:       cs.MappedCommits,
		MappedTraces:    sys.MappedTraces(),
		OffloadedTraces: sys.OffloadedTraces(),
		AvgConfigLife:   sys.Fabrics().AvgLifetime(),
		Reconfigs:       sys.Fabrics().Reconfigurations(),
		Energy:          breakdown,
		Core:            cs,
		CPU:             cpu,
		Fabric:          fstat,
		TCache:          sys.TCache().Stats(),
		Cfg:             sys.CfgCache().Stats(),
		Sim:             sys.SimStats(),
		CPI:             sys.CPIStack(),
		Probe:           p,
	}
	// Fold the exact end-of-run stack into the probe registry so the
	// cycle-accounting totals flow through the telemetry aggregator to
	// /metrics like every other probe counter.
	if p != nil {
		reg := p.Metrics()
		for _, c := range cpistack.Causes() {
			if v := res.CPI.Get(c); v > 0 {
				reg.Counter("cpi_cycles_"+c.String(), float64(v))
			}
		}
	}
	if sim := res.Sim; sim.FFInsts > 0 {
		// Reduced fidelity: extrapolate the detailed measurements to the
		// whole instruction stream. Fast-forwarded instructions ran on the
		// host by definition, so they land in HostOps via Committed below;
		// energy scales by the instruction ratio since the detailed windows
		// are the only regions with measured activity.
		res.Cycles = sim.EstCycles
		res.Committed = sim.DetailInsts + sim.FFInsts
		res.IPC = float64(res.Committed) / float64(res.Cycles)
		scale := float64(res.Committed) / float64(sim.DetailInsts)
		for i := range res.Energy {
			res.Energy[i] *= scale
		}
	}
	if res.Committed >= res.FabricOps+res.MappedOps {
		res.HostOps = res.Committed - res.FabricOps - res.MappedOps
	}
	return res, nil
}

// params returns the default parameter bundle with the given mode.
func params(mode core.Mode) core.Params {
	p := core.DefaultParams()
	p.Mode = mode
	return p
}

// runJob wraps one simulation cell as a runner job.
func runJob(w *workloads.Workload, p core.Params, label string) runner.Job[*RunResult] {
	return runner.Job[*RunResult]{
		Label: label,
		Run: func(ctx context.Context) (*RunResult, error) {
			return RunCtx(ctx, w, p)
		},
	}
}

// named fills in a default sweep name for journal/progress output.
func named(opts runner.Options, name string) runner.Options {
	if opts.Name == "" {
		opts.Name = name
	}
	return opts
}

// Fig7Row is one (workload, trace length) coverage measurement.
type Fig7Row struct {
	Workload  string
	TraceLen  int
	HostPct   float64
	MappedPct float64
	FabricPct float64
}

// Fig7Sweep sweeps trace lengths and reports the fraction of dynamic
// instructions executed on the host pipeline, during mapping, and on the
// fabric (paper Figure 7; lengths 16–40): one cell per (workload, trace
// length), fanned out across opts.Parallelism workers.
func Fig7Sweep(ctx context.Context, ws []*workloads.Workload, traceLens []int, opts runner.Options) ([]Fig7Row, error) {
	var jobs []runner.Job[*RunResult]
	for _, w := range ws {
		for _, tl := range traceLens {
			p := params(core.ModeAccel)
			p.TraceLen = tl
			jobs = append(jobs, runJob(w, p, fmt.Sprintf("%s/len=%d", w.Abbrev, tl)))
		}
	}
	results, err := runner.Run(ctx, named(opts, "fig7"), jobs)
	if err != nil {
		return nil, err
	}
	var rows []Fig7Row
	for i, w := range ws {
		for j, tl := range traceLens {
			r := results[i*len(traceLens)+j]
			total := float64(r.Committed)
			rows = append(rows, Fig7Row{
				Workload:  w.Abbrev,
				TraceLen:  tl,
				HostPct:   float64(r.HostOps) / total,
				MappedPct: float64(r.MappedOps) / total,
				FabricPct: float64(r.FabricOps) / total,
			})
		}
	}
	return rows, nil
}

// Table5Row is one workload's trace statistics.
type Table5Row struct {
	Workload  string
	Mapped    int
	Offloaded int
	// Lifetime[i] is the average configuration lifetime with
	// fabricCounts[i] fabrics.
	Lifetime []float64
}

// Table5Sweep reports detected/offloaded traces and average configuration
// lifetime for each fabric count (paper Table 5: 1, 2, 4 fabrics): one
// cell per (workload, fabric count).
func Table5Sweep(ctx context.Context, ws []*workloads.Workload, fabricCounts []int, opts runner.Options) ([]Table5Row, error) {
	var jobs []runner.Job[*RunResult]
	for _, w := range ws {
		for _, nf := range fabricCounts {
			p := params(core.ModeAccel)
			p.NumFabrics = nf
			jobs = append(jobs, runJob(w, p, fmt.Sprintf("%s/fabrics=%d", w.Abbrev, nf)))
		}
	}
	results, err := runner.Run(ctx, named(opts, "table5"), jobs)
	if err != nil {
		return nil, err
	}
	var rows []Table5Row
	for i, w := range ws {
		row := Table5Row{Workload: w.Abbrev}
		for j := range fabricCounts {
			r := results[i*len(fabricCounts)+j]
			row.Lifetime = append(row.Lifetime, r.AvgConfigLife)
			if j == 0 {
				row.Mapped = r.MappedTraces
				row.Offloaded = r.OffloadedTraces
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// fig8Modes are the four simulations behind each Figure 8 row, in cell
// order: baseline first, then the three DynaSpAM configurations.
var fig8Modes = []core.Mode{core.ModeBaseline, core.ModeMappingOnly, core.ModeAccelNoSpec, core.ModeAccel}

// Fig8Row is one workload's speedups over the baseline.
type Fig8Row struct {
	Workload    string
	MappingOnly float64
	AccelNoSpec float64
	AccelSpec   float64
	BaseCycles  uint64
	AccelCycles uint64
}

// Fig8Sweep runs each workload in the four modes and reports speedups over
// the host OOO pipeline (paper Figure 8): one cell per (workload, mode),
// four cells per row.
func Fig8Sweep(ctx context.Context, ws []*workloads.Workload, opts runner.Options) ([]Fig8Row, error) {
	var jobs []runner.Job[*RunResult]
	for _, w := range ws {
		for _, mode := range fig8Modes {
			jobs = append(jobs, runJob(w, params(mode), fmt.Sprintf("%s/%v", w.Abbrev, mode)))
		}
	}
	results, err := runner.Run(ctx, named(opts, "fig8"), jobs)
	if err != nil {
		return nil, err
	}
	var rows []Fig8Row
	for i, w := range ws {
		base, mapping, nospec, spec := results[4*i], results[4*i+1], results[4*i+2], results[4*i+3]
		rows = append(rows, Fig8Row{
			Workload:    w.Abbrev,
			MappingOnly: stats.Ratio(float64(base.Cycles), float64(mapping.Cycles)),
			AccelNoSpec: stats.Ratio(float64(base.Cycles), float64(nospec.Cycles)),
			AccelSpec:   stats.Ratio(float64(base.Cycles), float64(spec.Cycles)),
			BaseCycles:  base.Cycles,
			AccelCycles: spec.Cycles,
		})
	}
	return rows, nil
}

// GeomeanSpeedups returns the geometric means of the three speedup columns.
// A non-positive speedup (a degenerate run) is reported as an error rather
// than crashing the sweep.
func GeomeanSpeedups(rows []Fig8Row) (mapping, nospec, spec float64, err error) {
	var a, b, c []float64
	for _, r := range rows {
		a = append(a, r.MappingOnly)
		b = append(b, r.AccelNoSpec)
		c = append(c, r.AccelSpec)
	}
	if mapping, err = stats.GeomeanErr(a); err != nil {
		return 0, 0, 0, fmt.Errorf("fig8 mapping-only column: %w", err)
	}
	if nospec, err = stats.GeomeanErr(b); err != nil {
		return 0, 0, 0, fmt.Errorf("fig8 accel-nospec column: %w", err)
	}
	if spec, err = stats.GeomeanErr(c); err != nil {
		return 0, 0, 0, fmt.Errorf("fig8 accel-spec column: %w", err)
	}
	return mapping, nospec, spec, nil
}

// fig9Modes are the two simulations behind each Figure 9 row.
var fig9Modes = []core.Mode{core.ModeBaseline, core.ModeAccel}

// Fig9Row is one workload's energy comparison.
type Fig9Row struct {
	Workload string
	Baseline energy.Breakdown
	DynaSpAM energy.Breakdown
	// Reduction is 1 - accel/baseline total energy.
	Reduction float64
}

// Fig9Sweep reports per-component energy for the baseline and full
// DynaSpAM (paper Figure 9): one cell per (workload, mode), two cells per
// row.
func Fig9Sweep(ctx context.Context, ws []*workloads.Workload, opts runner.Options) ([]Fig9Row, error) {
	var jobs []runner.Job[*RunResult]
	for _, w := range ws {
		for _, mode := range fig9Modes {
			jobs = append(jobs, runJob(w, params(mode), fmt.Sprintf("%s/%v", w.Abbrev, mode)))
		}
	}
	results, err := runner.Run(ctx, named(opts, "fig9"), jobs)
	if err != nil {
		return nil, err
	}
	var rows []Fig9Row
	for i, w := range ws {
		base, accel := results[2*i], results[2*i+1]
		rows = append(rows, Fig9Row{
			Workload:  w.Abbrev,
			Baseline:  base.Energy,
			DynaSpAM:  accel.Energy,
			Reduction: 1 - accel.Energy.Total()/base.Energy.Total(),
		})
	}
	return rows, nil
}

// GeomeanEnergyReduction returns the geometric-mean relative energy
// (accel/baseline), expressed as a reduction. A non-positive ratio (a
// degenerate energy measurement) is reported as an error.
func GeomeanEnergyReduction(rows []Fig9Row) (float64, error) {
	var ratios []float64
	for _, r := range rows {
		ratios = append(ratios, r.DynaSpAM.Total()/r.Baseline.Total())
	}
	g, err := stats.GeomeanErr(ratios)
	if err != nil {
		return 0, fmt.Errorf("fig9 energy ratios: %w", err)
	}
	return 1 - g, nil
}
