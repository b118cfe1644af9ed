// Package runner is the parallel experiment harness: a bounded worker-pool
// sweep engine that fans independent simulation cells out across goroutines
// while keeping every observable output deterministic.
//
// The evaluation sweeps in internal/experiments (Figure 7, Table 5,
// Figure 8, Figure 9, the §2.2 ablation) are embarrassingly parallel: each
// (workload, configuration) cell builds its own memory image and core.System
// and shares nothing mutable with its neighbours. Run exploits that: it
// executes a slice of Jobs on a fixed number of workers and returns the
// results *in input order*, regardless of completion order, so a sweep's
// rendered tables are byte-identical at any worker count.
//
// Contract:
//
//   - Results are positional: out[i] is jobs[i]'s result, always.
//   - The first failure (lowest input index whose job returned a real error)
//     is returned, and its occurrence cancels the sweep context so in-flight
//     jobs can stop early and queued jobs are skipped.
//   - A panic inside a job is recovered and converted into an error carrying
//     the job label and stack, so one broken simulation cannot take down a
//     40-cell sweep (or the process).
//   - Observability is built in: an optional Journal records one JSON line
//     per finished job (wall time, status, and any domain metrics the result
//     exposes via Metricser), and an optional Progress writer receives live
//     "N/M runs done, ETA" updates.
//
// The zero Options value is ready to use: it runs on GOMAXPROCS workers with
// no journal and no progress output.
package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Job is one unit of work in a sweep: typically a single simulation of one
// (workload, configuration) cell.
type Job[R any] struct {
	// Label identifies the job in journal entries, progress output, and
	// panic messages, e.g. "BP/accel-spec" or "SRAD/len=40".
	Label string
	// Run executes the job. It should honour ctx cancellation promptly if
	// it is long-running; the runner cancels ctx when any job fails.
	Run func(ctx context.Context) (R, error)
}

// Options configures a sweep. The zero value runs on GOMAXPROCS workers with
// journaling and progress reporting disabled.
type Options struct {
	// Parallelism is the number of worker goroutines; values <= 0 mean
	// runtime.GOMAXPROCS(0). Parallelism 1 reproduces the serial nested-loop
	// behaviour exactly (one job at a time, in input order).
	Parallelism int
	// Journal, when non-nil, receives one Entry per finished job.
	Journal *Journal
	// Progress, when non-nil, receives live "N/M runs done, ETA" updates
	// (typically os.Stderr). Updates are throttled to one per completion.
	Progress io.Writer
	// Reporter, when non-nil, observes the sweep live: it receives the
	// same Entry stream as the Journal (the runner tees them) plus
	// sweep-lifecycle calls, feeding the telemetry plane's /status and
	// /events endpoints.
	Reporter Reporter
	// Log, when non-nil, receives structured sweep lifecycle and failure
	// records. Callers attach correlation attributes (run_id) to the
	// logger itself, so every record the runner emits carries them.
	Log *slog.Logger
	// Name labels the sweep in journal entries and progress lines,
	// e.g. "fig8".
	Name string
}

// Reporter is a live sweep observer: the in-memory counterpart of the
// JSON-lines Journal. The runner tees every finished run's Entry to both,
// and brackets them with sweep lifecycle calls. Implementations must be
// safe for concurrent use — RunDone is called from worker goroutines in
// completion order, which is nondeterministic; anything that needs
// deterministic order must sort by Entry.Seq, exactly as journal consumers
// do.
type Reporter interface {
	// SweepStart announces a sweep of total cells named name.
	SweepStart(name string, total int)
	// RunDone delivers one finished (or skipped) run's journal entry.
	RunDone(e Entry)
	// SweepEnd announces that every cell of the named sweep has finished.
	SweepEnd(name string)
}

// RunStarter is an optional Reporter extension for observers that need to
// see a cell *begin* executing, not just finish — span tracers open a
// per-cell interval on RunStart and close it on the matching RunDone.
// A RunStart for (sweep, seq) happens before that cell's RunDone; like
// RunDone it is called from worker goroutines, so implementations must be
// concurrency-safe. Cells skipped by a resume mask get neither call.
type RunStarter interface {
	// RunStart announces that a worker has begun executing the cell at
	// input index seq, labelled label, in the named sweep.
	RunStart(sweep string, seq int, label string)
}

// workers returns the effective worker count.
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Metricser is implemented by job results that want domain metrics (cycles,
// IPC, counters, ...) attached to their journal entries.
type Metricser interface {
	// JournalMetrics returns the metrics to embed in the run's journal
	// entry. Keys are snake_case; values are numeric so entries stay
	// machine-parseable.
	JournalMetrics() map[string]float64
}

// PanicError is the error produced when a job panics. It preserves the
// recovered value and the goroutine stack.
type PanicError struct {
	Label string
	Value any
	Stack []byte
}

// Error implements the error interface.
func (p *PanicError) Error() string {
	return fmt.Sprintf("runner: job %q panicked: %v\n%s", p.Label, p.Value, p.Stack)
}

// Run executes jobs on a bounded pool of opts.Parallelism workers and
// returns the results in input order: out[i] corresponds to jobs[i].
//
// On failure, Run returns the error of the lowest-indexed failed job
// together with the partial results; jobs that were skipped or cancelled
// because of that failure keep their zero value. Cancellation of the parent
// ctx is reported as ctx's error if no job failed outright.
func Run[R any](ctx context.Context, opts Options, jobs []Job[R]) ([]R, error) {
	return RunResume(ctx, opts, jobs, nil)
}

// RunResume is Run for a sweep that was partially finished by an earlier
// attempt: cells whose completed[i] is true are skipped entirely — not
// executed, not journaled (their entries already exist in the previous
// attempt's journal), not reported — while the remaining cells run exactly
// as Run would have run them, keeping their original input-order Seq in
// journal entries and reporter callbacks. Derive the mask from the prior
// journal with ReadJournal + Completed. A nil mask (or Run itself) runs
// everything; a mask of the wrong length is an error. Skipped cells keep
// the zero value in the returned slice: the caller resuming a sweep
// already holds their results, journaled by the earlier attempt.
func RunResume[R any](ctx context.Context, opts Options, jobs []Job[R], completed []bool) ([]R, error) {
	out := make([]R, len(jobs))
	if completed != nil && len(completed) != len(jobs) {
		return out, fmt.Errorf("runner: resume mask has %d cells, sweep has %d", len(completed), len(jobs))
	}
	remaining := len(jobs)
	for _, done := range completed {
		if done {
			remaining--
		}
	}
	if len(jobs) == 0 || remaining == 0 {
		// Nothing to execute; still bracket the (empty) resume for the
		// reporter so live observers see the sweep happened.
		if opts.Reporter != nil {
			opts.Reporter.SweepStart(opts.Name, len(jobs))
			opts.Reporter.SweepEnd(opts.Name)
		}
		return out, ctx.Err()
	}
	errs := make([]error, len(jobs))

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	prog := newProgress(opts.Progress, opts.Name, remaining)

	workers := opts.workers()
	if workers > remaining {
		workers = remaining
	}

	if opts.Reporter != nil {
		opts.Reporter.SweepStart(opts.Name, len(jobs))
	}
	if opts.Log != nil {
		opts.Log.Info("sweep start", "sweep", opts.Name, "cells", len(jobs),
			"resumed", len(jobs)-remaining, "workers", workers)
	}

	// Feed indices, not jobs, so results land positionally. With one
	// worker the channel drains in input order, reproducing the serial
	// loop exactly. Cells finished by an earlier attempt are never fed.
	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := range jobs {
			if completed != nil && completed[i] {
				continue
			}
			select {
			case idx <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	starter, _ := opts.Reporter.(RunStarter)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if starter != nil {
					starter.RunStart(opts.Name, i, jobs[i].Label)
				}
				res, wall, err := runOne(ctx, jobs[i])
				out[i], errs[i] = res, err
				if err != nil {
					cancel()
				}
				recordRun(opts, i, jobs[i].Label, res, wall, err)
				prog.done()
			}
		}()
	}
	wg.Wait()
	prog.finish()
	if opts.Reporter != nil {
		opts.Reporter.SweepEnd(opts.Name)
	}

	err := firstError(errs, ctx)
	if opts.Log != nil {
		if err != nil {
			opts.Log.Error("sweep failed", "sweep", opts.Name, "cells", len(jobs), "err", err)
		} else {
			opts.Log.Info("sweep done", "sweep", opts.Name, "cells", len(jobs))
		}
	}
	return out, err
}

// runOne executes one job, timing it and converting panics to errors.
func runOne[R any](ctx context.Context, j Job[R]) (res R, wall time.Duration, err error) {
	start := time.Now()
	defer func() { wall = time.Since(start) }()
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Label: j.Label, Value: r, Stack: debug.Stack()}
		}
	}()
	if err = ctx.Err(); err != nil {
		return res, 0, err
	}
	res, err = j.Run(ctx)
	return res, 0, err // wall is set by the deferred timer
}

// recordRun builds one journal entry for a finished job and tees it to
// every enabled sink: the JSON-lines journal, the live Reporter, and (for
// failures) the structured log. With no sink configured it does nothing,
// keeping the hot path free of Entry construction.
func recordRun[R any](opts Options, seq int, label string, res R, wall time.Duration, err error) {
	if opts.Journal == nil && opts.Reporter == nil && opts.Log == nil {
		return
	}
	e := Entry{
		Sweep:  opts.Name,
		Seq:    seq,
		Label:  label,
		Status: StatusOK,
		WallMS: float64(wall.Microseconds()) / 1e3,
	}
	var pe *PanicError
	switch {
	case err == nil:
		if m, ok := any(res).(Metricser); ok {
			e.Metrics = m.JournalMetrics()
		}
	case errors.As(err, &pe):
		e.Status, e.Error = StatusPanic, fmt.Sprint(pe.Value)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		e.Status, e.Error = StatusSkipped, err.Error()
	default:
		e.Status, e.Error = StatusError, err.Error()
	}
	if opts.Journal != nil {
		opts.Journal.Write(e)
	}
	if opts.Reporter != nil {
		opts.Reporter.RunDone(e)
	}
	if opts.Log != nil && e.Status != StatusOK && e.Status != StatusSkipped {
		opts.Log.Error("run failed", "sweep", e.Sweep, "seq", e.Seq,
			"label", e.Label, "status", e.Status, "err", e.Error)
	}
}

// firstError picks the error Run reports: the lowest-indexed failure that is
// not mere cancellation fallout, else the context's own error.
func firstError(errs []error, ctx context.Context) error {
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Only cancellation-fallout errors recorded: surface the first one.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// progress emits "N/M runs done, ETA" lines to a writer as jobs complete.
// The clock is injected (now) so the ETA arithmetic is testable with a
// deterministic time source; production use reads the wall clock, which is
// allowlisted in this package (the ETA measures the host sweep, not the
// simulated machine).
type progress struct {
	mu    sync.Mutex
	w     io.Writer
	name  string
	total int
	count int
	now   func() time.Time
	start time.Time
	last  time.Time
}

// newProgress returns a progress reporter; a nil writer disables it.
func newProgress(w io.Writer, name string, total int) *progress {
	return newProgressAt(w, name, total, time.Now)
}

// newProgressAt is newProgress with an explicit clock, for deterministic
// tests.
func newProgressAt(w io.Writer, name string, total int, now func() time.Time) *progress {
	if name == "" {
		name = "sweep"
	}
	return &progress{w: w, name: name, total: total, now: now, start: now()}
}

// done records one completed run and emits an update. Updates are throttled
// to at most ~20/s so a fast sweep does not drown stderr; the final
// completion always reports.
func (p *progress) done() {
	if p.w == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.count++
	now := p.now()
	if p.count < p.total && now.Sub(p.last) < 50*time.Millisecond {
		return
	}
	p.last = now
	elapsed := now.Sub(p.start)
	eta := "?"
	if p.count > 0 {
		remain := time.Duration(float64(elapsed) / float64(p.count) * float64(p.total-p.count))
		eta = remain.Round(100 * time.Millisecond).String()
	}
	fmt.Fprintf(p.w, "\r%s: %d/%d runs done, ETA %s   ", p.name, p.count, p.total, eta)
}

// finish terminates the progress line.
func (p *progress) finish() {
	if p.w == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.w, "\r%s: %d/%d runs done in %s      \n",
		p.name, p.count, p.total, p.now().Sub(p.start).Round(time.Millisecond))
}
