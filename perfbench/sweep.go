package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dynaspam/internal/core"
	"dynaspam/internal/cpistack"
	"dynaspam/internal/experiments"
	"dynaspam/internal/runner"
	"dynaspam/internal/spans"
	"dynaspam/internal/stats"
	"dynaspam/internal/workloads"
)

// sweepDeadline bounds one sweep pass; cells still running then are
// cancelled and count as failed, so a hang fails the run instead of
// stalling it.
const sweepDeadline = 100 * time.Second

// cell is one (workload, configuration) simulation of a sweep.
type cell struct {
	w     *workloads.Workload
	p     core.Params
	label string
}

// sweep drives the fig8 and scaled-sampled workloads: a fixed cell list
// handed to runner.Run in an order drawn from the seed for every pass.
type sweep struct {
	cells   []cell
	workers int
	rng     *rand.Rand
	rec     *spans.Recorder // nil when untraced
}

// fig8Modes are Figure 8's four configurations, as experiments.Fig8Sweep
// runs them.
var fig8Modes = []core.Mode{core.ModeBaseline, core.ModeMappingOnly, core.ModeAccelNoSpec, core.ModeAccel}

// scaledBenches are the 100x inputs of the scaled-sampled workload.
// BFSX1000 is left out: one sampled cell of it takes 9-12 s.
var scaledBenches = []string{"BFSX100", "SPMVX100", "SCX100"}

// newSweep resolves a sweep workload's cells. small keeps the first two
// Figure 8 kernels, or the first scaled input, for the self-test.
func newSweep(name string, small bool, rng *rand.Rand, rec *spans.Recorder) (*sweep, error) {
	s := &sweep{workers: 1, rng: rng, rec: rec}
	add := func(w *workloads.Workload, mode core.Mode, sim core.SimMode) {
		p := core.DefaultParams()
		p.Mode = mode
		p.Sim.Mode = sim
		s.cells = append(s.cells, cell{w: w, p: p, label: fmt.Sprintf("%s/%v", w.Abbrev, mode)})
	}
	switch name {
	case "fig8":
		// One worker per CPU, as a Figure 8 sweep runs: its 44 cells are
		// short enough that the seeded order leaves ~1% of worker time idle.
		s.workers = runtime.NumCPU()
		ws := workloads.All()
		if small {
			ws = ws[:2]
		}
		for _, w := range ws {
			for _, m := range fig8Modes {
				add(w, m, core.SimFull)
			}
		}
	case "scaled-sampled":
		// One worker: on two, these six unequal cells (0.4-1.3 s) left ~12%
		// of worker time idle, by an amount that moved with the seeded
		// order. Serially the pass time is the cells' sum in any order.
		benches := scaledBenches
		if small {
			benches = benches[:1]
		}
		for _, ab := range benches {
			w, err := workloads.ByAbbrev(ab)
			if err != nil {
				return nil, err
			}
			add(w, core.ModeBaseline, core.SimSampled)
			add(w, core.ModeAccel, core.SimSampled)
		}
	default:
		return nil, fmt.Errorf("not a sweep workload: %q", name)
	}
	return s, nil
}

// pass runs every cell once and returns the pass's measurements. The
// exact counts are summed in cell-list order, whatever order the runner
// finished them in.
func (s *sweep) pass(ctx context.Context) passRecord {
	ctx, cancel := context.WithTimeout(ctx, sweepDeadline)
	defer cancel()
	passSpan := s.rec.Start(-1, "pass", "pass")
	order := s.rng.Perm(len(s.cells))
	jobs := make([]runner.Job[*experiments.RunResult], len(order))
	cellSpans := make([]int, len(order))
	for k, i := range order {
		c, k := s.cells[i], k
		jobs[k] = runner.Job[*experiments.RunResult]{
			Label: c.label,
			Run: func(ctx context.Context) (*experiments.RunResult, error) {
				cellSpans[k] = s.rec.Start(passSpan, "cell", "experiments.RunCtx "+c.label)
				defer s.rec.End(cellSpans[k])
				return experiments.RunCtx(ctx, c.w, c.p)
			},
		}
	}
	runSpan := s.rec.Start(passSpan, "runner", "runner.Run")
	start := time.Now()
	out, err := runner.Run(ctx, runner.Options{Parallelism: s.workers, Name: "perfbench"}, jobs)
	wall := time.Since(start).Seconds()
	s.rec.End(runSpan)
	s.rec.End(passSpan)

	rec := passRecord{WallS: wall, SimWallS: wall, Attempted: len(order)}
	results := make([]*experiments.RunResult, len(s.cells))
	for k, i := range order {
		results[i] = out[k]
		if out[k] == nil {
			rec.Failed++
		}
	}
	if err != nil {
		rec.Errors = append(rec.Errors, err.Error())
	}
	if rec.Failed > 0 {
		return rec
	}
	rec.Results = len(results)
	rec.Counts = s.counts(results)
	rec.Digest = fmt.Sprintf("%016x", metricsDigest(rec.Counts))
	for _, r := range results {
		rec.Insts += float64(r.Committed) // detailed + fast-forwarded
	}
	if s.rec != nil {
		busy := 0.0
		for _, id := range cellSpans {
			if d, ok := s.rec.Duration(id); ok {
				busy += d.Seconds()
			}
		}
		workers := min(s.workers, len(s.cells))
		rec.Layer = map[string]float64{"runner.idle_s": float64(workers)*wall - busy}
	}
	return rec
}

// counts sums the exact simulated statistics of a pass's results (in
// cell-list order). They depend only on the modelled design, so every pass
// of every run must reproduce them bit for bit.
func (s *sweep) counts(rs []*experiments.RunResult) map[string]float64 {
	var sum struct {
		cycles, committed, squashed, mispredicts, memViolations uint64
		offloads, traceCommits, traceSquashes, sessions, mapped uint64
		invocations, opsExecuted, fabricViolations, reconfigs   uint64
		tcHits, tcMisses, ccHits, ccMisses, ff, detail, windows uint64
	}
	var cpi cpistack.Stack
	baseCycles := map[string]uint64{}
	var speedups []float64
	for i, r := range rs {
		sum.cycles += r.CPU.Cycles
		sum.committed += r.CPU.Committed
		sum.squashed += r.CPU.Squashed
		sum.mispredicts += r.CPU.BranchMispredicts
		sum.memViolations += r.CPU.MemViolations
		sum.offloads += r.Core.Offloads
		sum.traceCommits += r.Core.TraceCommits
		sum.traceSquashes += r.Core.TraceSquashes
		sum.sessions += r.Core.MappingSessions
		sum.mapped += r.Core.TracesMapped
		sum.invocations += r.Fabric.Invocations
		sum.opsExecuted += r.Fabric.OpsExecuted
		sum.fabricViolations += r.Fabric.Violations
		sum.reconfigs += r.Reconfigs
		sum.tcHits += r.TCache.Hits
		sum.tcMisses += r.TCache.Misses
		sum.ccHits += r.Cfg.Hits
		sum.ccMisses += r.Cfg.Misses
		sum.ff += r.Sim.FFInsts
		sum.detail += r.Sim.DetailInsts
		sum.windows += uint64(r.Sim.Windows)
		cpi.AddStack(&r.CPI)
		switch s.cells[i].p.Mode {
		case core.ModeBaseline:
			baseCycles[r.Workload] = r.Cycles
		case core.ModeAccel:
			speedups = append(speedups, stats.Ratio(float64(baseCycles[r.Workload]), float64(r.Cycles)))
		}
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	geomean, _ := stats.GeomeanErr(speedups) // 0 when a cell degenerated; the digest still pins it
	m := map[string]float64{
		"ooo.cycles":                  float64(sum.cycles),
		"ooo.committed":               float64(sum.committed),
		"ooo.squashed":                float64(sum.squashed),
		"ooo.mispredicts":             float64(sum.mispredicts),
		"core.offloads":               float64(sum.offloads),
		"core.trace_commits":          float64(sum.traceCommits),
		"core.offload_commit_ratio":   ratio(sum.traceCommits, sum.offloads),
		"core.trace_squashes":         float64(sum.traceSquashes),
		"mapper.sessions":             float64(sum.sessions),
		"mapper.success_ratio":        ratio(sum.mapped, sum.sessions),
		"fabric.invocations":          float64(sum.invocations),
		"fabric.ops_executed":         float64(sum.opsExecuted),
		"fabric.violations":           float64(sum.fabricViolations),
		"tcache.hit_rate":             ratio(sum.tcHits, sum.tcHits+sum.tcMisses),
		"cfgcache.hit_rate":           ratio(sum.ccHits, sum.ccHits+sum.ccMisses),
		"cfgcache.reconfigs":          float64(sum.reconfigs),
		"memdep.violations":           float64(sum.memViolations),
		"sim.ff_minsts":               float64(sum.ff) / 1e6,
		"sim.detail_minsts":           float64(sum.detail) / 1e6,
		"sim.windows":                 float64(sum.windows),
		"experiments.speedup_geomean": geomean,
	}
	for _, c := range cpistack.Causes() {
		m["cpi."+c.String()] = float64(cpi.Get(c))
	}
	return m
}
