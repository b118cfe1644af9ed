package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"dynaspam/internal/cpistack"
)

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and directions (the self-test checks they agree).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the system sees, printed by every
// run on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_minsts_per_s", "Minst/s", "higher"},
	{"results_per_s", "1/s", "higher"},
	{"alloc_mb_per_pass", "MB", "lower"},
}

// perLayer are the metrics of single layers, printed by traced runs.
// Metrics that do not apply to a workload read 0 there.
func perLayer() []metricDef {
	var ds []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			ds = append(ds, metricDef{n, unit, better})
		}
	}
	for _, b := range buckets {
		add("s", "lower", b+".host_s")
	}
	add("s", "lower", "profile.total_s", "interp.step_s", "cache.warm_s", "fabric.run_s",
		"workloads.inputs_s", "workloads.golden_s", "mem.equal_s", "runtime.gc_cpu_s", "runner.idle_s")
	add("count", "lower", "runtime.gc_cycles", "runtime.alloc_objects")
	add("MB", "lower", "runtime.peak_rss_mb")
	add("ms", "lower", "workloads.resolve_ms", "http.submit_ms_p50", "jobs.journal_flush_ms_p50",
		"jobs.queue_wait_ms_p50", "jobs.run_ms_p50",
		"jobs.fresh_ms_p50", "jobs.fresh_ms_p90", "jobs.cached_ms_p50", "jobs.cached_ms_p90")
	add("count", "higher", "jobs.fresh_samples", "jobs.cached_samples", "jobs.cache_hits")
	add("count", "lower", "jobs.cache_misses")
	add("ratio", "higher", "jobs.cache_hit_ratio")
	add("cycles", "lower", "ooo.cycles")
	add("count", "higher", "ooo.committed", "core.offloads", "core.trace_commits", "fabric.invocations", "fabric.ops_executed")
	add("count", "lower", "ooo.squashed", "ooo.mispredicts", "core.trace_squashes", "mapper.sessions",
		"fabric.violations", "cfgcache.reconfigs", "memdep.violations", "sim.windows")
	add("ratio", "higher", "core.offload_commit_ratio", "mapper.success_ratio", "tcache.hit_rate", "cfgcache.hit_rate")
	add("Minst", "higher", "sim.ff_minsts", "sim.detail_minsts")
	for _, c := range cpiCauses() {
		add("cycles", "lower", "cpi."+c)
	}
	add("x", "higher", "experiments.speedup_geomean")
	return ds
}

// runConfig is one benchmark run's command line.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	OutDir   string
	Small    bool
}

// report is a run's aggregate over its child processes.
type report struct {
	cfg       runConfig
	e2e       map[string]float64 // untraced children
	traced    map[string]float64 // traced children's end-to-end metrics
	layer     map[string]float64
	attempted int
	failed    int
	errors    []string
	digests   map[string]int // digest → passes that produced it
	passes    int
	tPasses   int
	passWall  []float64 // untraced timed passes, in run order
	passCPU   []float64
	fresh     []float64
	cached    []float64
	env       [][2]string
}

// childRunner starts one measuring process (a real one, or an in-process
// stand-in for the self-test).
type childRunner func(ctx context.Context, c childConfig) (childResult, error)

// measure runs the untraced children, then (with --trace 1) as many
// traced ones, and aggregates them.
func measure(ctx context.Context, cfg runConfig, run childRunner) (*report, error) {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{cfg: cfg, digests: map[string]int{}, env: environment(cfg)}
	modes := []bool{false}
	if cfg.Trace {
		modes = append(modes, true)
	}
	for _, traced := range modes {
		var rs []childResult
		for k := 0; k < children; k++ {
			r, err := run(ctx, childConfig{
				Workload: cfg.Workload, Seed: cfg.Seed, Index: k, ShareS: cfg.Seconds / children,
				Trace: traced, Small: cfg.Small, OutDir: cfg.OutDir,
			})
			if err != nil {
				return nil, err
			}
			rs = append(rs, r)
		}
		if traced {
			rep.traced, rep.tPasses = rep.endToEnd(rs)
			rep.layer = layerMeans(rs)
			// Job latencies come from the untraced children, which ran first.
			for name, p := range rep.jobPercentiles() {
				if p.OK {
					rep.layer["jobs."+name] = p.Value
				}
			}
			rep.layer["jobs.fresh_samples"] = float64(len(rep.fresh))
			rep.layer["jobs.cached_samples"] = float64(len(rep.cached))
		} else {
			rep.e2e, rep.passes = rep.endToEnd(rs)
			for _, r := range rs {
				for _, p := range r.Passes {
					rep.passWall = append(rep.passWall, p.WallS)
					rep.passCPU = append(rep.passCPU, p.CPUS)
					rep.fresh = append(rep.fresh, p.FreshMS...)
					rep.cached = append(rep.cached, p.CachedMS...)
				}
			}
		}
	}
	return rep, nil
}

// endToEnd computes the end-to-end metrics of a set of children and adds
// their operations, failures and digests to the report.
func (rep *report) endToEnd(rs []childResult) (map[string]float64, int) {
	var setup, sim, results, alloc []float64
	n := 0
	for _, r := range rs {
		setup = append(setup, r.SetupS)
		rep.account(r.Setup)
		for _, p := range r.Passes {
			rep.account(p)
			sim = append(sim, p.Insts/1e6/p.SimWallS)
			results = append(results, float64(p.Results)/p.WallS)
			alloc = append(alloc, p.AllocMB)
			n++
		}
	}
	return map[string]float64{
		"setup_s":           median(setup),
		"sim_minsts_per_s":  median(sim),
		"results_per_s":     median(results),
		"alloc_mb_per_pass": median(alloc),
	}, n
}

func (rep *report) account(p passRecord) {
	rep.attempted += p.Attempted
	rep.failed += p.Failed
	for _, e := range p.Errors {
		if len(rep.errors) < 10 {
			rep.errors = append(rep.errors, e)
		}
	}
	rep.digests[p.Digest]++
}

// correct reports whether every operation succeeded and every pass
// produced the same exact results.
func (rep *report) correct() bool {
	_, missing := rep.digests[""]
	return rep.failed == 0 && rep.attempted > 0 && len(rep.digests) == 1 && !missing
}

// layerMeans averages each per-layer metric over the traced children,
// weighting each child by its timed passes; a weighted mean keeps the
// buckets summing to the profile total. The exact counts are copied from
// the first pass: the digest check proves every pass matches it.
func layerMeans(rs []childResult) map[string]float64 {
	out := map[string]float64{}
	n := 0.0
	for _, r := range rs {
		w := float64(len(r.Passes))
		n += w
		for k, v := range r.Layer {
			out[k] += v * w
		}
	}
	for k := range out {
		out[k] /= n
	}
	if len(rs) > 0 && len(rs[0].Passes) > 0 {
		for k, v := range rs[0].Passes[0].Counts {
			out[k] = v
		}
	}
	return out
}

func (rep *report) jobPercentiles() map[string]percentile {
	return map[string]percentile{
		"fresh_ms_p50":  tailPercentile(rep.fresh, 0.5),
		"fresh_ms_p90":  tailPercentile(rep.fresh, 0.9),
		"cached_ms_p50": tailPercentile(rep.cached, 0.5),
		"cached_ms_p90": tailPercentile(rep.cached, 0.9),
	}
}

// print writes the human-readable report, then the JSON result line.
func (rep *report) print(w io.Writer) {
	cfg := rep.cfg
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace)
	for _, kv := range rep.env {
		fmt.Fprintf(w, "env %-14s %s\n", kv[0], kv[1])
	}
	fmt.Fprintln(w, "inputs: kernel inputs come from the kernels' built-in generators (package workloads takes no seed);")
	fmt.Fprintln(w, "        --seed fixes the order cells are handed to the runner and jobs are submitted")
	fmt.Fprintf(w, "untraced: %d children, %d timed passes, pass wall s:", children, rep.passes)
	for _, s := range rep.passWall {
		fmt.Fprintf(w, " %.3f", s)
	}
	fmt.Fprint(w, "; cpu s:")
	for _, s := range rep.passCPU {
		fmt.Fprintf(w, " %.3f", s)
	}
	fmt.Fprintln(w)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%-22s %14.4f %s\n", d.Name, rep.e2e[d.Name], d.Unit)
	}
	fmt.Fprintf(w, "%-22s %14.4f ratio (%d failed / %d attempted)\n", "error_ratio",
		float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	if cfg.Workload == "serve-jobs" {
		ps := rep.jobPercentiles()
		for _, name := range []string{"fresh_ms_p50", "fresh_ms_p90", "cached_ms_p50", "cached_ms_p90"} {
			p := ps[name]
			note := ""
			if !p.OK {
				note = fmt.Sprintf(" (under %d samples beyond it: not a valid percentile)", minTail)
			}
			fmt.Fprintf(w, "%-22s %14.4f ms (n=%d)%s\n", "job_"+name, p.Value, p.N, note)
		}
	}
	for _, e := range rep.errors {
		fmt.Fprintln(w, "error:", e)
	}
	digests := make([]string, 0, len(rep.digests))
	for d := range rep.digests {
		digests = append(digests, d)
	}
	sort.Strings(digests)
	fmt.Fprintf(w, "digest %s (exact simulated results; must be one value across all passes and runs)\n", strings.Join(digests, ","))

	metrics := map[string]map[string]any{}
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // only a failed run (correct=false) has no passes to measure
		}
		metrics[name] = map[string]any{"value": v, "unit": unit}
	}
	if cfg.Trace {
		fmt.Fprintf(w, "traced: %d children, %d timed passes; tracing overhead (traced - untraced):\n", children, rep.tPasses)
		for _, d := range endToEnd {
			fmt.Fprintf(w, "  %-20s %+14.4f %s\n", d.Name, rep.traced[d.Name]-rep.e2e[d.Name], d.Unit)
		}
		sum := 0.0
		for _, b := range buckets {
			sum += rep.layer[b+".host_s"]
		}
		fmt.Fprintf(w, "per-layer (mean per pass over %d traced children; buckets sum %.4f s of profile %.4f s):\n",
			children, sum, rep.layer["profile.total_s"])
		for _, d := range perLayer() {
			fmt.Fprintf(w, "  %-30s %16.6f %s\n", d.Name, rep.layer[d.Name], d.Unit)
			put(d.Name, d.Unit, rep.layer[d.Name])
		}
	} else {
		for _, d := range endToEnd {
			put(d.Name, d.Unit, rep.e2e[d.Name])
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": rep.correct(), "attempted": rep.attempted, "failed": rep.failed, "metrics": metrics,
	})
	fmt.Fprintln(w, string(line))
}

// environment records what a result depends on besides the code.
func environment(cfg runConfig) [][2]string {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "none"
	}
	return [][2]string{
		{"go", runtime.Version()},
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"commit", commit},
		{"source_sha256", sourceDigest(".")},
		{"state_dir_fs", fsType(cfg.OutDir)},
		{"traced", fmt.Sprint(cfg.Trace)},
	}
}

// sourceDigest hashes the Go sources and module files under root, which
// identifies the code measured when the checkout is not a git repository.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown (" + err.Error() + ")"
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x9123683E:
		return "btrfs"
	case 0x58465342:
		return "xfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// cpiCauses names the cycle-accounting causes in cpistack order.
func cpiCauses() []string {
	var out []string
	for _, c := range cpistack.Causes() {
		out = append(out, c.String())
	}
	return out
}
