// Package jobs is the multi-tenant sweep job plane: a durable FIFO queue
// of benchmark sweeps layered on internal/runner (execution, journaling)
// and internal/telemetry (progress, metrics).
//
// A submission (Spec) becomes a job with a generated ID. Jobs run at most
// Config.MaxJobs at a time, FIFO by submission; each job is one
// runner sweep whose name is the job ID, so the telemetry Tracker's
// /status, /events, and ETA machinery apply per job unchanged. Every
// cell's probe export is merged into the Aggregator under the job's ID
// (Aggregator.MergeJob), giving /metrics a per-job breakdown.
//
// Durability: with a state directory configured, each job's spec is
// persisted before submission is acknowledged and every finished cell is
// journaled in sync (flush-per-entry) mode. On startup the plane replays
// the directory — see store.recover — and re-enqueues interrupted jobs
// with a completion mask, so a killed server resumes each job at its
// first unfinished cell (runner.RunResume).
//
// Memoization: finished cells land in a Cache keyed by (workload, config,
// code-version); resubmitting an identical spec serves those cells from
// cache without re-simulation. Cached cells still produce journal entries
// (source "cache") carrying the memoized metrics, so the journal remains
// a complete, deterministic record whichever path produced each cell.
//
// Concurrency/ownership: the Plane's mutex guards the job table and
// queue. Each running job owns its own runner sweep; cross-job state
// (cache, aggregator, tracker) is internally synchronized. The package
// never reads the wall clock — all timing flows from runner entries and
// the Tracker — so simulation determinism is untouched by queueing,
// resuming, or cache hits.
package jobs

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"dynaspam/internal/experiments"
	"dynaspam/internal/probe"
	"dynaspam/internal/runner"
	"dynaspam/internal/spans"
	"dynaspam/internal/telemetry"
	"dynaspam/internal/workloads"
)

// Job lifecycle states, as reported by the /jobs API.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Cell sources: how a cell's result was obtained.
const (
	SourceRun     = "run"     // simulated in this process
	SourceCache   = "cache"   // served from the memo cache
	SourceJournal = "journal" // restored from a previous attempt's journal
)

// Config configures a Plane. The zero value runs one job at a time,
// ephemerally (no state directory), without telemetry.
type Config struct {
	// Dir is the state directory for specs, journals, and terminal
	// markers. Empty disables persistence: jobs run but do not survive a
	// restart.
	Dir string
	// MaxJobs bounds concurrently running jobs; values <= 0 mean 1.
	MaxJobs int
	// Parallelism is the per-sweep worker count (0 = GOMAXPROCS).
	Parallelism int
	// Aggregator, when non-nil, receives each cell's probe export under
	// the job's ID.
	Aggregator *telemetry.Aggregator
	// Tracker, when non-nil, observes each job as a sweep named by the
	// job ID, feeding /status, /events, and per-job ETAs.
	Tracker *telemetry.Tracker
	// Log receives job lifecycle records; nil means slog.Default.
	Log *slog.Logger
	// Version keys the memo cache; empty means CodeVersion().
	Version string
	// RunID labels each job's span tree (and GET /jobs/{id}/trace) with
	// the serving process's run identity.
	RunID string
	// SpanCap bounds each job's span ring; values <= 0 mean
	// spans.DefaultCapacity.
	SpanCap int
	// Now is the clock the span tracer reads; nil means the wall clock.
	// The jobs package itself never reads a clock — all host timing lives
	// in the injected-clock spans.Recorder — which keeps this package
	// wallclock-clean under dynalint and makes job traces reproducible in
	// tests.
	Now func() time.Time
}

// cellState is one cell's progress within a job, as reported by
// GET /jobs/{id}.
type cellState struct {
	Label  string  `json:"label"`
	Status string  `json:"status,omitempty"` // empty while pending
	WallMS float64 `json:"wall_ms,omitempty"`
	Source string  `json:"source,omitempty"`
}

// job is the Plane's record of one submission. All fields after the
// immutable header are guarded by the Plane's mutex.
type job struct {
	id   string
	spec Spec

	state      string
	errMsg     string
	cells      []cellState
	cancel     context.CancelFunc
	userCancel bool
	done       chan struct{} // closed when the job reaches a terminal state

	// Span tracing: one Recorder per job (internally synchronized), plus
	// the IDs of the open lifecycle spans. rec is nil for jobs recovered
	// already-terminal — their lifecycle happened in a dead process, so
	// there is nothing truthful to trace. queueWaitMS is latched when the
	// job is admitted, for the terminal lifecycle log record.
	rec         *spans.Recorder
	rootSpan    int
	queueSpan   int
	runSpan     int
	cellSpans   []int
	queueWaitMS float64

	// Fidelity accounting, accumulated from each simulated (not cached or
	// replayed) cell's journal metrics: instructions fast-forwarded and
	// committed in detail, and the wall time those cells took. Feeds the
	// "job finished" log record and the insts-per-second gauge.
	ffInsts     float64
	detailInsts float64
	simWallMS   float64

	// resume state populated by recovery
	replayed []runner.Entry
}

// Plane is the job queue and executor. Construct with New; it is live
// immediately (recovery has run and interrupted jobs are enqueued).
type Plane struct {
	cfg     Config
	store   *store
	cache   *Cache
	log     *slog.Logger
	version string

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// Latency histograms derived from the span trees (seconds); guarded
	// by mu and exposed on /metrics via metricFamilies.
	queueWait  *probe.Histogram
	turnaround *probe.Histogram

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // job IDs in submission order
	queue   []string // queued job IDs, FIFO
	running int
	nextID  int
	closed  bool
	wg      sync.WaitGroup
}

// New builds a Plane, replays the state directory, and re-enqueues every
// interrupted job. Jobs that already finished in a previous process are
// loaded in their terminal state so GET /jobs keeps showing them; their
// journaled cells also seed the memo cache, so an identical resubmission
// after a restart is served from cache.
func New(cfg Config) (*Plane, error) {
	st, err := newStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	log := cfg.Log
	if log == nil {
		log = slog.Default()
	}
	version := cfg.Version
	if version == "" {
		version = CodeVersion()
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Plane{
		cfg:        cfg,
		store:      st,
		cache:      NewCache(),
		log:        log,
		version:    version,
		baseCtx:    ctx,
		baseCancel: cancel,
		queueWait:  newHistogram(0.001, 0.01, 0.1, 1, 10, 60, 600),
		turnaround: newHistogram(0.01, 0.1, 1, 10, 60, 600, 3600),
		jobs:       make(map[string]*job),
	}
	if err := p.recoverLocked(); err != nil {
		cancel()
		return nil, err
	}
	return p, nil
}

// newHistogram builds a fixed-bucket seconds histogram for the latency
// families (le semantics, like every probe histogram).
func newHistogram(bounds ...float64) *probe.Histogram {
	return &probe.Histogram{Bounds: bounds, BucketCounts: make([]uint64, len(bounds))}
}

// startSpans opens a job's trace: the root span (carrying the job's
// identity labels) and the queue-wait child. Called at submission — and at
// recovery for interrupted jobs, whose renewed wait in this process's
// queue is exactly what the reopened queue-wait span should measure.
func (p *Plane) startSpans(j *job) {
	mode := j.spec.Mode
	if mode == "" {
		mode = "accel-spec"
	}
	j.rec = spans.NewRecorder(p.cfg.SpanCap, p.cfg.Now)
	j.rootSpan = j.rec.Start(-1, "job", "job "+j.id,
		spans.Label{Key: "job_id", Value: j.id},
		spans.Label{Key: "run_id", Value: p.cfg.RunID},
		spans.Label{Key: "bench", Value: j.spec.Bench},
		spans.Label{Key: "mode", Value: mode},
		spans.Label{Key: "sim_policy", Value: j.spec.simPolicyName()})
	j.queueSpan = j.rec.Start(j.rootSpan, "lifecycle", "queue-wait")
	j.runSpan = -1
	j.cellSpans = make([]int, len(j.cells))
	for i := range j.cellSpans {
		j.cellSpans[i] = -1
	}
}

// maxJobs returns the effective concurrency bound.
func (p *Plane) maxJobs() int {
	if p.cfg.MaxJobs > 0 {
		return p.cfg.MaxJobs
	}
	return 1
}

// recoverLocked loads the state directory into the job table (the Plane
// is not yet shared, so no locking is needed despite the name's
// convention) and enqueues interrupted jobs in ID order.
func (p *Plane) recoverLocked() error {
	recs, err := p.store.recover()
	if err != nil {
		return err
	}
	for _, r := range recs {
		j := &job{id: r.id, spec: r.spec, replayed: r.entries, done: make(chan struct{})}
		p.jobs[r.id] = j
		p.order = append(p.order, r.id)
		if n := idNumber(r.id); n >= p.nextID {
			p.nextID = n
		}
		p.seedCells(j)
		if r.terminal != nil {
			j.state = r.terminal.State
			j.errMsg = r.terminal.Error
			close(j.done)
			p.seedCache(j)
			continue
		}
		j.state = StateQueued
		p.startSpans(j)
		p.queue = append(p.queue, r.id)
		p.log.Info("job recovered", "job", r.id, "replayed_cells", len(r.entries))
	}
	p.maybeStartLocked()
	return nil
}

// seedCells prefills a recovered job's cell table from its spec and
// replayed journal. Cells finished in a previous attempt show source
// "journal"; a spec that no longer resolves leaves the table empty (the
// run will fail the job properly).
func (p *Plane) seedCells(j *job) {
	ws, err := j.spec.Workloads()
	if err != nil {
		return
	}
	j.cells = makeCells(ws, j.spec)
	for _, e := range j.replayed {
		if e.Status == runner.StatusOK && e.Seq >= 0 && e.Seq < len(j.cells) {
			j.cells[e.Seq] = cellState{Label: j.cells[e.Seq].Label, Status: e.Status, WallMS: e.WallMS, Source: SourceJournal}
		}
	}
}

// seedCache feeds a recovered job's journaled results into the memo
// cache, so post-restart resubmissions hit cache exactly like same-
// process ones.
func (p *Plane) seedCache(j *job) {
	ws, err := j.spec.Workloads()
	if err != nil {
		return
	}
	params, err := j.spec.Params()
	if err != nil {
		return
	}
	for _, e := range j.replayed {
		if e.Status == runner.StatusOK && e.Seq >= 0 && e.Seq < len(ws) && e.Metrics != nil {
			p.cache.Put(CellKey(ws[e.Seq].Abbrev, params, p.version), e.Metrics)
		}
	}
}

// makeCells builds the pending cell table for a spec's workloads.
func makeCells(ws []*workloads.Workload, spec Spec) []cellState {
	mode := spec.Mode
	if mode == "" {
		mode = "accel-spec"
	}
	cells := make([]cellState, len(ws))
	for i, w := range ws {
		cells[i] = cellState{Label: w.Abbrev + "/" + mode}
	}
	return cells
}

// idNumber parses the numeric suffix of a job ID ("job-000042" → 42);
// foreign IDs return 0 so they never collide with generated ones.
func idNumber(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return 0
	}
	return n
}

// Submit validates and enqueues a spec, returning the new job's ID. The
// spec is persisted before Submit returns, so an acknowledged submission
// survives a crash.
func (p *Plane) Submit(spec Spec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	ws, _ := spec.Workloads()

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return "", fmt.Errorf("jobs: plane is shut down")
	}
	p.nextID++
	id := fmt.Sprintf("job-%06d", p.nextID)
	if err := p.store.writeSpec(id, spec); err != nil {
		p.nextID--
		return "", err
	}
	j := &job{id: id, spec: spec, state: StateQueued, done: make(chan struct{})}
	j.cells = makeCells(ws, spec)
	p.startSpans(j)
	p.jobs[id] = j
	p.order = append(p.order, id)
	p.queue = append(p.queue, id)
	p.log.Info("job submitted", "job", id, "bench", spec.Bench, "cells", len(j.cells))
	p.maybeStartLocked()
	return id, nil
}

// maybeStartLocked dispatches queued jobs while capacity allows; the
// caller holds mu.
func (p *Plane) maybeStartLocked() {
	for !p.closed && p.running < p.maxJobs() && len(p.queue) > 0 {
		id := p.queue[0]
		p.queue = p.queue[1:]
		j := p.jobs[id]
		ctx, cancel := context.WithCancel(p.baseCtx)
		j.state = StateRunning
		j.cancel = cancel
		// Admission closes the queue-wait span (feeding the queue-wait
		// histogram), stamps a zero-width admit marker, and opens the run
		// span — all before the worker goroutine exists, so the reporter's
		// callbacks always see a live run span.
		j.rec.End(j.queueSpan)
		if d, ok := j.rec.Duration(j.queueSpan); ok {
			p.queueWait.Observe(d.Seconds())
			j.queueWaitMS = float64(d.Microseconds()) / 1e3
		}
		admit := j.rec.Start(j.rootSpan, "lifecycle", "admit")
		j.rec.End(admit)
		j.runSpan = j.rec.Start(j.rootSpan, "lifecycle", "run")
		p.running++
		p.wg.Add(1)
		go p.runJob(ctx, j)
	}
}

// Cancel requests cancellation of a job. Queued jobs terminate
// immediately; running jobs have their context cancelled and reach the
// cancelled state once in-flight cells drain. Returns false for unknown
// IDs, true otherwise (including jobs already terminal, where it is a
// no-op).
func (p *Plane) Cancel(id string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	if !ok {
		return false
	}
	switch j.state {
	case StateQueued:
		for i, qid := range p.queue {
			if qid == id {
				p.queue = append(p.queue[:i], p.queue[i+1:]...)
				break
			}
		}
		j.state = StateCancelled
		j.userCancel = true
		p.finishLocked(j, StateCancelled, "cancelled before start")
	case StateRunning:
		j.userCancel = true
		j.cancel()
	}
	return true
}

// finishLocked records a terminal state and releases waiters; the caller
// holds mu and has already set any queue/running bookkeeping. It also
// closes the job's span tree (idempotently — cancel-before-start jobs
// still have their queue-wait span open, finished ones only the root) and
// derives the turnaround histogram and lifecycle log fields from it.
func (p *Plane) finishLocked(j *job, state, errMsg string) {
	j.state = state
	j.errMsg = errMsg
	var runMS float64
	if j.rec != nil {
		j.rec.End(j.queueSpan)
		j.rec.End(j.runSpan)
		if d, ok := j.rec.Duration(j.runSpan); ok {
			runMS = float64(d.Microseconds()) / 1e3
		}
		j.rec.Annotate(j.rootSpan, "state", state)
		if errMsg != "" {
			j.rec.Annotate(j.rootSpan, "error", errMsg)
		}
		j.rec.End(j.rootSpan)
		if d, ok := j.rec.Duration(j.rootSpan); ok {
			p.turnaround.Observe(d.Seconds())
		}
	}
	cached := 0
	for _, c := range j.cells {
		if c.Source == SourceCache {
			cached++
		}
	}
	if err := p.store.writeTerminal(j.id, state, errMsg); err != nil {
		p.log.Error("job terminal marker failed", "job", j.id, "err", err)
	}
	close(j.done)
	p.log.Info("job finished", "job", j.id, "state", state,
		"queue_wait_ms", j.queueWaitMS, "run_ms", runMS, "cells_cached", cached,
		"sim_policy", j.spec.simPolicyName(),
		"ff_insts", uint64(j.ffInsts), "detail_insts", uint64(j.detailInsts))
}

// Done returns a channel closed when the job reaches a terminal state;
// ok is false for unknown IDs. Callers that submit in-process (the
// perfbench serve-jobs workload) wait on it instead of polling Get.
func (p *Plane) Done(id string) (<-chan struct{}, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	if !ok {
		return nil, false
	}
	return j.done, true
}

// Shutdown stops the plane: no new submissions, running jobs are
// cancelled (without a terminal marker, so a restart resumes them), and
// Shutdown blocks until their goroutines exit or ctx expires.
func (p *Plane) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.baseCancel()
	finished := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// cellOutcome is what a cell's Run closure hands back to the runner: the
// journal metrics for the cell, however they were obtained.
type cellOutcome struct {
	metrics map[string]float64
}

// JournalMetrics implements runner.Metricser.
func (c cellOutcome) JournalMetrics() map[string]float64 { return c.metrics }

// runJob executes one job as a resumable runner sweep.
func (p *Plane) runJob(ctx context.Context, j *job) {
	defer p.wg.Done()
	err := p.runSweep(ctx, j)

	p.mu.Lock()
	defer p.mu.Unlock()
	p.running--
	if j.cancel != nil {
		j.cancel()
		j.cancel = nil
	}
	switch {
	case j.userCancel:
		p.finishLocked(j, StateCancelled, "cancelled")
	case p.baseCtx.Err() != nil:
		// Plane shutdown: leave the job unmarked so a restarted process
		// recovers and resumes it. The in-memory record is about to die
		// with the process; keep it visibly non-terminal.
		j.state = StateQueued
		close(j.done)
		p.log.Info("job interrupted by shutdown", "job", j.id)
	case err != nil:
		p.finishLocked(j, StateFailed, err.Error())
	default:
		p.finishLocked(j, StateDone, "")
	}
	p.maybeStartLocked()
}

// runSweep builds and runs the job's cells through runner.RunResume.
func (p *Plane) runSweep(ctx context.Context, j *job) error {
	ws, err := j.spec.Workloads()
	if err != nil {
		return err
	}
	params, err := j.spec.Params()
	if err != nil {
		return err
	}
	mask := runner.Completed(j.replayed, len(ws))

	cells := make([]runner.Job[runner.Metricser], len(ws))
	for i, w := range ws {
		i, w := i, w
		key := CellKey(w.Abbrev, params, p.version)
		label := j.cells[i].Label
		cells[i] = runner.Job[runner.Metricser]{
			Label: label,
			Run: func(ctx context.Context) (runner.Metricser, error) {
				if m, ok := p.cache.Get(key); ok {
					p.setCellSource(j, i, SourceCache)
					return cellOutcome{metrics: m}, nil
				}
				pr := probe.NewMetricsOnly()
				res, err := experiments.RunProbedCtx(ctx, w, params, pr)
				if err != nil {
					return nil, err
				}
				metrics := res.JournalMetrics()
				p.cache.Put(key, metrics)
				if p.cfg.Aggregator != nil {
					p.cfg.Aggregator.MergeJob(j.id, pr.Metrics().Export())
				}
				p.setCellSource(j, i, SourceRun)
				return cellOutcome{metrics: metrics}, nil
			},
		}
	}

	journal, err := p.store.openJournal(j.id)
	if err != nil {
		return err
	}
	rep := &jobReporter{plane: p, job: j}
	if p.cfg.Tracker != nil {
		rep.inner = p.cfg.Tracker
	}
	opts := runner.Options{
		Parallelism: p.cfg.Parallelism,
		Name:        j.id,
		Journal:     journal,
		Reporter:    rep,
		Log:         p.log,
	}
	_, runErr := runner.RunResume(ctx, opts, cells, mask)
	if journal != nil {
		flush := j.rec.Start(j.rootSpan, "lifecycle", "journal-flush")
		if err := journal.Close(); err != nil && runErr == nil {
			runErr = err
		}
		j.rec.End(flush)
	}
	return runErr
}

// setCellSource records how a cell's result is being produced, before its
// journal entry lands.
func (p *Plane) setCellSource(j *job, seq int, source string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if seq >= 0 && seq < len(j.cells) {
		j.cells[seq].Source = source
	}
}

// jobReporter tees runner callbacks into the job's cell table, the job's
// span tree, and the telemetry Tracker. On SweepStart it synthesizes
// RunDone events for cells already completed in a previous attempt, so the
// Tracker's done counts and ETA reflect true remaining work — and records
// those replayed cells as pre-closed spans, so the trace attributes every
// cell to run, cache, or journal.
type jobReporter struct {
	plane *Plane
	job   *job
	inner runner.Reporter
}

func (r *jobReporter) SweepStart(name string, total int) {
	j := r.job
	if t := r.plane.cfg.Tracker; t != nil && r.inner != nil {
		// Tag the job's sweep with its fidelity right after the Tracker
		// learns about it, so /status carries the label from the start.
		defer t.SetSweepLabels(name, map[string]string{"sim_policy": j.spec.simPolicyName()})
	}
	for _, e := range j.replayed {
		if e.Status == runner.StatusOK && e.Seq >= 0 && e.Seq < total {
			id := j.rec.Start(j.runSpan, "cell", "cell "+e.Label,
				spans.Label{Key: "cell", Value: e.Label})
			j.rec.Annotate(id, "status", e.Status)
			j.rec.Annotate(id, "source", SourceJournal)
			anchorCycles(j.rec, id, e.Metrics)
			j.rec.End(id)
		}
	}
	if r.inner != nil {
		r.inner.SweepStart(name, total)
		for _, e := range j.replayed {
			if e.Status == runner.StatusOK && e.Seq >= 0 && e.Seq < total {
				r.inner.RunDone(e)
			}
		}
	}
}

// RunStart implements runner.RunStarter: it opens the cell's span the
// moment a worker picks the cell up, so queue-side gaps between cells are
// visible in the trace.
func (r *jobReporter) RunStart(sweep string, seq int, label string) {
	p, j := r.plane, r.job
	p.mu.Lock()
	if j.rec != nil && seq >= 0 && seq < len(j.cellSpans) {
		j.cellSpans[seq] = j.rec.Start(j.runSpan, "cell", "cell "+label,
			spans.Label{Key: "cell", Value: label})
	}
	p.mu.Unlock()
	if s, ok := r.inner.(runner.RunStarter); ok {
		s.RunStart(sweep, seq, label)
	}
}

func (r *jobReporter) RunDone(e runner.Entry) {
	p, j := r.plane, r.job
	span := -1
	source := ""
	p.mu.Lock()
	if e.Seq >= 0 && e.Seq < len(j.cells) {
		c := &j.cells[e.Seq]
		c.Status = e.Status
		c.WallMS = e.WallMS
		if c.Source == "" {
			c.Source = SourceRun
		}
		source = c.Source
	}
	if e.Status == runner.StatusOK && source == SourceRun && e.Metrics != nil {
		// Fidelity accounting: only actually simulated cells contribute, so
		// the derived instructions-per-second throughput is not inflated by
		// cache or journal hits (whose wall time is near zero).
		j.ffInsts += e.Metrics["sim_ff_insts"]
		j.detailInsts += e.Metrics["sim_detail_insts"]
		j.simWallMS += e.WallMS
	}
	if e.Seq >= 0 && e.Seq < len(j.cellSpans) {
		span = j.cellSpans[e.Seq]
	}
	p.mu.Unlock()
	if span >= 0 {
		j.rec.Annotate(span, "status", e.Status)
		j.rec.Annotate(span, "source", source)
		if e.Status == runner.StatusOK {
			anchorCycles(j.rec, span, e.Metrics)
		}
		j.rec.End(span)
	}
	if r.inner != nil {
		r.inner.RunDone(e)
	}
}

// anchorCycles records a cell span's sim-clock anchors from its journal
// metrics: the first simulated cycle is always 0 (every cell boots its own
// core.System), the last is the cell's reported cycle count. The anchors
// are what let a wall-clock job trace link down to the cycle-level
// `dynaspam -trace` view of the same cell.
func anchorCycles(rec *spans.Recorder, span int, metrics map[string]float64) {
	cycles, ok := metrics["cycles"]
	if !ok || cycles < 0 {
		return
	}
	rec.AnchorCycle(span, "sim-cycle-first", 0)
	rec.AnchorCycle(span, "sim-cycle-last", uint64(cycles))
}

func (r *jobReporter) SweepEnd(name string) {
	if r.inner != nil {
		r.inner.SweepEnd(name)
	}
}
