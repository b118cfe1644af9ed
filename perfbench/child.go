package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"dynaspam/internal/spans"
	"dynaspam/internal/workloads"
)

// passRecord is what one pass of a workload measured.
type passRecord struct {
	// WallS is the pass's wall time; SimWallS the part of it that
	// simulated (the whole pass for sweeps, the fresh-job phase for
	// serve-jobs).
	WallS    float64
	SimWallS float64
	// Insts counts simulated instructions, detailed plus fast-forwarded.
	Insts float64
	// Results counts cells or jobs completed.
	Results int
	// AllocMB is the Go heap allocated during the pass, in 1e6 bytes.
	AllocMB float64
	// CPUS is the process's user+system CPU time during the pass.
	CPUS float64
	// Attempted and Failed count cells or jobs; Errors keeps the first
	// few failure messages.
	Attempted, Failed int
	Errors            []string
	// Digest fingerprints the pass's exact simulated results; it must be
	// identical for every pass of every run.
	Digest string
	// Counts are the exact per-layer counts (sweeps only).
	Counts map[string]float64
	// FreshMS and CachedMS are submit→done job latencies (serve-jobs).
	FreshMS, CachedMS []float64
	// Layer holds per-layer metrics the pass measured itself (traced).
	Layer map[string]float64
}

// childConfig is one measuring process's assignment.
type childConfig struct {
	Workload string
	Seed     int64
	Index    int
	ShareS   float64 // measuring time after the cold start
	Trace    bool
	Small    bool   // the self-test's smallest inputs
	OutDir   string // job state dirs and trace files
}

// childResult is one measuring process's report to the parent.
type childResult struct {
	// SetupS is the cold start: from the first call into the program
	// through the end of the first, discarded pass.
	SetupS float64
	Setup  passRecord
	Passes []passRecord
	// Layer is the traced per-layer metrics, averaged per timed pass.
	Layer     map[string]float64
	PeakRSSMB float64
}

// loader is a workload: one call measures one pass.
type loader interface {
	pass(ctx context.Context) passRecord
}

// workloadNames lists the workloads in report order.
var workloadNames = []string{"fig8", "scaled-sampled", "serve-jobs"}

func newLoader(cfg childConfig, rng *rand.Rand, rec *spans.Recorder) (loader, error) {
	if cfg.Workload == "serve-jobs" {
		return newServe(filepath.Join(cfg.OutDir, "state"), cfg.Small, rng, rec)
	}
	return newSweep(cfg.Workload, cfg.Small, rng, rec)
}

// runChild cold-starts the workload, then measures timed passes until its
// share of the run is used up, so always at least one. The seed and the
// child index fix the hand-off order of every pass.
func runChild(ctx context.Context, cfg childConfig) (childResult, error) {
	var res childResult
	rng := rand.New(rand.NewSource(cfg.Seed*1009 + int64(cfg.Index)))
	var rec *spans.Recorder
	if cfg.Trace {
		rec = spans.NewRecorder(1<<16, nil)
	}
	t0 := time.Now()
	load, err := newLoader(cfg, rng, rec)
	if err != nil {
		return res, err
	}
	res.Setup = load.pass(ctx)
	res.SetupS = time.Since(t0).Seconds()

	var prof bytes.Buffer
	var jobTraces bytes.Buffer
	gc0 := gcCPUSeconds()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if cfg.Trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return res, err
		}
		if s, ok := load.(*serveLoad); ok {
			s.traceOut = &jobTraces // the first timed pass's job span trees
		}
	}
	start := time.Now()
	for {
		// Start every timed pass from a collected heap and with the
		// previous pass's file writes and deletes already on disk.
		runtime.GC()
		syscall.Sync()
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		c0 := cpuSeconds()
		p := load.pass(ctx)
		p.CPUS = cpuSeconds() - c0
		runtime.ReadMemStats(&b)
		p.AllocMB = float64(b.TotalAlloc-a.TotalAlloc) / 1e6
		res.Passes = append(res.Passes, p)
		if s, ok := load.(*serveLoad); ok {
			s.traceOut = nil
		}
		if time.Since(start).Seconds() >= cfg.ShareS || ctx.Err() != nil {
			break
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if !cfg.Trace {
		return res, nil
	}
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	n := float64(len(res.Passes))
	led, err := readLedger(prof.Bytes())
	if err != nil {
		return res, err
	}
	layer := map[string]float64{
		"profile.total_s":       led.TotalS / n,
		"runtime.gc_cpu_s":      (gcCPUSeconds() - gc0) / n,
		"runtime.gc_cycles":     float64(ms1.NumGC-ms0.NumGC) / n,
		"runtime.alloc_objects": float64(ms1.Mallocs-ms0.Mallocs) / n,
		"runtime.peak_rss_mb":   res.PeakRSSMB,
	}
	for _, b := range buckets {
		layer[b+".host_s"] = led.SelfS[b] / n
	}
	for k := range inclusive {
		layer[k] = led.InclusiveS[k] / n
	}
	for _, p := range res.Passes {
		for k, v := range p.Layer {
			layer[k] += v / n
		}
	}
	layer["workloads.resolve_ms"] = resolveMS(rec)
	res.Layer = layer

	dir := filepath.Join(cfg.OutDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-child%d", cfg.Workload, cfg.Seed, cfg.Index))
	var spanDoc bytes.Buffer
	if err := spans.WriteChromeTrace(&spanDoc, "perfbench "+cfg.Workload, rec.Snapshot()); err != nil {
		return res, err
	}
	files := map[string][]byte{".spans.json": spanDoc.Bytes(), ".cpu.pprof": prof.Bytes()}
	if jobTraces.Len() > 0 {
		files[".jobs.jsonl"] = jobTraces.Bytes()
	}
	for ext, b := range files {
		if err := os.WriteFile(base+ext, b, 0o644); err != nil {
			return res, err
		}
	}
	return res, nil
}

// resolveMS times single workloads.ByAbbrev calls, the spec resolution
// every job submission repeats, and returns the median in milliseconds.
func resolveMS(rec *spans.Recorder) float64 {
	var ms []float64
	for i := 0; i < 5; i++ {
		id := rec.Start(-1, "workloads", "workloads.ByAbbrev")
		t := time.Now()
		if _, err := workloads.ByAbbrev("BP"); err != nil {
			return 0
		}
		ms = append(ms, float64(time.Since(t).Microseconds())/1e3)
		rec.End(id)
	}
	return median(ms)
}

// gcCPUSeconds reads the runtime's cumulative GC CPU time.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
