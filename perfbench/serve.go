package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynaspam/internal/jobs"
	"dynaspam/internal/runner"
	"dynaspam/internal/spans"
	"dynaspam/internal/telemetry"
	"dynaspam/internal/workloads"
)

const (
	// jobDeadline bounds one job's submit→done wait; passDeadline bounds a
	// whole pass. A job past either counts as failed, so a hang fails the
	// run instead of stalling it.
	jobDeadline  = 30 * time.Second
	passDeadline = 90 * time.Second
	// cachedRounds is how many times a full-size pass resubmits every
	// spec after the fresh round.
	cachedRounds = 4
)

// serveLoad drives the serve-jobs workload: a closed loop of one client
// over one keep-alive connection against an in-process telemetry server
// and job plane, with one /events stream observing completions.
type serveLoad struct {
	specs  []jobs.Spec
	rounds int
	root   string // parent of each pass's state dir
	rng    *rand.Rand
	rec    *spans.Recorder // nil when untraced
	// traceOut, when set, receives the job span trees of the pass, one
	// Chrome trace document per line.
	traceOut io.Writer
}

// newServe builds the 44 Figure 8 (bench, mode) specs at fast-forward
// fidelity. small resubmits them once instead of cachedRounds times.
func newServe(root string, small bool, rng *rand.Rand, rec *spans.Recorder) (*serveLoad, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	s := &serveLoad{root: root, rounds: cachedRounds, rng: rng, rec: rec}
	if small {
		s.rounds = 1
	}
	for _, w := range workloads.All() {
		for _, m := range []string{"baseline", "mapping", "accel-nospec", "accel-spec"} {
			s.specs = append(s.specs, jobs.Spec{Bench: w.Abbrev, Mode: m, SimPolicy: "ff"})
		}
	}
	return s, nil
}

// client is one pass's view of the served plane.
type client struct {
	base  string
	hc    *http.Client
	plane *jobs.Plane
	ends  *endWaiter
	rec   *spans.Recorder
	// submitMS collects POST /jobs round trips when traced.
	submitMS []float64
}

// pass starts a plane over an empty state dir, submits every spec once
// (fresh: each misses the memo cache and simulates), then resubmits them
// s.rounds times (cached), each round in a seeded order, and shuts the
// plane down.
func (s *serveLoad) pass(ctx context.Context) passRecord {
	ctx, cancel := context.WithTimeout(ctx, passDeadline)
	defer cancel()
	var rec passRecord
	fail := func(format string, args ...any) {
		rec.Failed++
		if len(rec.Errors) < 5 {
			rec.Errors = append(rec.Errors, fmt.Sprintf(format, args...))
		}
	}
	dir, err := os.MkdirTemp(s.root, "state-")
	if err != nil {
		rec.Attempted, rec.Failed = 1, 1
		rec.Errors = []string{err.Error()}
		return rec
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	tel := telemetry.NewServer("perfbench", log)
	plane, err := jobs.New(jobs.Config{
		Dir: dir, MaxJobs: 1, Parallelism: 1,
		Aggregator: tel.Aggregator(), Tracker: tel.Tracker(), Log: log, RunID: "perfbench",
	})
	if err != nil {
		rec.Attempted, rec.Failed = 1, 1
		rec.Errors = []string{err.Error()}
		return rec
	}
	plane.Mount(tel)
	addr, err := tel.Start("127.0.0.1:0")
	if err != nil {
		_ = tel.Shutdown(ctx)
		_ = plane.Shutdown(ctx)
		rec.Attempted, rec.Failed = 1, 1
		rec.Errors = []string{err.Error()}
		return rec
	}
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	c := &client{base: "http://" + addr, hc: &http.Client{Transport: tr}, plane: plane, ends: newEndWaiter(), rec: s.rec}
	evTr := &http.Transport{}
	evCtx, evCancel := context.WithCancel(ctx)
	var evWG sync.WaitGroup
	evWG.Add(1)
	go func() {
		defer evWG.Done()
		c.ends.follow(evCtx, &http.Client{Transport: evTr}, c.base+"/events")
	}()

	var ids []string
	var sources []string
	run := func(want string, lat *[]float64) {
		for _, i := range s.rng.Perm(len(s.specs)) {
			rec.Attempted++
			id, ms, err := c.job(ctx, s.specs[i], want)
			if err != nil {
				fail("%s/%s: %v", s.specs[i].Bench, s.specs[i].Mode, err)
				continue
			}
			ids, sources = append(ids, id), append(sources, want)
			*lat = append(*lat, ms)
		}
	}
	run(jobs.SourceRun, &rec.FreshMS)
	rec.SimWallS = time.Since(start).Seconds()
	for r := 0; r < s.rounds; r++ {
		run(jobs.SourceCache, &rec.CachedMS)
	}
	rec.WallS = time.Since(start).Seconds()
	rec.Results = len(ids)

	if s.rec != nil {
		rec.Layer = c.layer(ctx, ids, s.traceOut)
	}
	evCancel()
	evWG.Wait()
	tr.CloseIdleConnections()
	evTr.CloseIdleConnections()
	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shCancel()
	if err := tel.Shutdown(shCtx); err != nil {
		fail("telemetry shutdown: %v", err)
	}
	if err := plane.Shutdown(shCtx); err != nil {
		fail("plane shutdown: %v", err)
	}
	if rec.Failed == 0 {
		if err := s.readJournals(dir, ids, sources, &rec); err != nil {
			fail("journal: %v", err)
		}
	}
	return rec
}

// job submits one spec and waits for it: completion is pushed by the
// job's sweep_end event, the plane's done channel orders the terminal
// state after it, and GET /jobs/{id} must then read done with the cell
// produced by want (simulated or served from cache). It returns the job
// ID and the submit→done latency in milliseconds.
func (c *client) job(ctx context.Context, spec jobs.Spec, want string) (string, float64, error) {
	ctx, cancel := context.WithTimeout(ctx, jobDeadline)
	defer cancel()
	body, err := json.Marshal(spec)
	if err != nil {
		return "", 0, err
	}
	jobSpan := c.rec.Start(-1, "job", spec.Bench+"/"+spec.Mode)
	defer c.rec.End(jobSpan)
	t0 := time.Now()
	span := c.rec.Start(jobSpan, "http", "POST /jobs")
	code, b, err := c.do(ctx, http.MethodPost, "/jobs", body)
	c.rec.End(span)
	if c.rec != nil {
		c.submitMS = append(c.submitMS, float64(time.Since(t0).Microseconds())/1e3)
	}
	if err != nil {
		return "", 0, err
	}
	if code != http.StatusAccepted {
		return "", 0, fmt.Errorf("submit: status %d", code)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &sub); err != nil {
		return "", 0, fmt.Errorf("submit: %w", err)
	}
	done, ok := c.plane.Done(sub.ID)
	if !ok {
		return "", 0, fmt.Errorf("job %s unknown to the plane", sub.ID)
	}
	span = c.rec.Start(jobSpan, "wait", "await sweep_end")
	select {
	case <-c.ends.ch(sub.ID):
	case <-ctx.Done():
		return "", 0, fmt.Errorf("job %s: no sweep_end event: %w", sub.ID, ctx.Err())
	}
	select {
	case <-done:
	case <-ctx.Done():
		return "", 0, fmt.Errorf("job %s: not terminal: %w", sub.ID, ctx.Err())
	}
	c.rec.End(span)
	span = c.rec.Start(jobSpan, "http", "GET /jobs/{id}")
	b, err = c.get(ctx, "/jobs/"+sub.ID)
	c.rec.End(span)
	ms := float64(time.Since(t0).Microseconds()) / 1e3
	var v jobs.View
	if err == nil {
		err = json.Unmarshal(b, &v)
	}
	switch {
	case err != nil:
		return "", 0, fmt.Errorf("job %s: %w", sub.ID, err)
	case v.State != jobs.StateDone:
		return "", 0, fmt.Errorf("job %s ended %s: %s", sub.ID, v.State, v.Error)
	case len(v.Cells) != 1 || v.Cells[0].Status != runner.StatusOK:
		return "", 0, fmt.Errorf("job %s: cells %+v", sub.ID, v.Cells)
	case v.Cells[0].Source != want:
		return "", 0, fmt.Errorf("job %s: cell source %q, want %q", sub.ID, v.Cells[0].Source, want)
	}
	return sub.ID, ms, nil
}

// do sends one request on the client's keep-alive connection and returns
// the response status and body.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// layer gathers the serve-side per-layer metrics of a traced pass: the
// plane's cache counters from /metrics and each job's lifecycle spans from
// GET /jobs/{id}/trace. Runs after the pass's timed traffic.
func (c *client) layer(ctx context.Context, ids []string, traceOut io.Writer) map[string]float64 {
	m := map[string]float64{"http.submit_ms_p50": median(c.submitMS)}
	if page, err := c.get(ctx, "/metrics"); err == nil {
		hits, misses := promValue(page, "dynaspam_job_cache_hits_total"), promValue(page, "dynaspam_job_cache_misses_total")
		m["jobs.cache_hits"], m["jobs.cache_misses"] = hits, misses
		if hits+misses > 0 {
			m["jobs.cache_hit_ratio"] = hits / (hits + misses)
		}
	}
	var queue, run, flush []float64
	for _, id := range ids {
		doc, err := c.get(ctx, "/jobs/"+id+"/trace")
		if err != nil {
			continue
		}
		if traceOut != nil {
			_, _ = traceOut.Write(append(bytes.TrimSpace(doc), '\n'))
		}
		var t struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if json.Unmarshal(doc, &t) != nil {
			continue
		}
		for _, e := range t.TraceEvents {
			if e.Ph != "X" {
				continue
			}
			switch e.Name {
			case "queue-wait":
				queue = append(queue, e.Dur/1e3)
			case "run":
				run = append(run, e.Dur/1e3)
			case "journal-flush":
				flush = append(flush, e.Dur/1e3)
			}
		}
	}
	m["jobs.queue_wait_ms_p50"] = median(queue)
	m["jobs.run_ms_p50"] = median(run)
	m["jobs.journal_flush_ms_p50"] = median(flush)
	return m
}

// get fetches one document from the plane.
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	code, b, err := c.do(ctx, http.MethodGet, path, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, code)
	}
	return b, err
}

// promValue returns the value of an unlabelled sample in a Prometheus text
// page, or 0 when absent.
func promValue(page []byte, name string) float64 {
	for _, line := range strings.Split(string(page), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f
		}
	}
	return 0
}

// readJournals reads every job's durable journal after the plane shut
// down. Each fresh job's journaled metrics feed the pass's simulated
// instruction count and digest; each cached job must have journaled
// exactly the metrics its fresh run produced.
func (s *serveLoad) readJournals(dir string, ids, sources []string, rec *passRecord) error {
	fresh := map[string]uint64{}
	for i, id := range ids {
		f, err := os.Open(filepath.Join(dir, id+".runs.jsonl"))
		if err != nil {
			return err
		}
		es, err := runner.ReadJournal(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if len(es) != 1 || es[0].Status != runner.StatusOK {
			return fmt.Errorf("%s: journal has %d entries", id, len(es))
		}
		e := es[0]
		h := metricsDigest(e.Metrics)
		if sources[i] == jobs.SourceRun {
			fresh[e.Label] = h
			rec.Insts += e.Metrics["sim_ff_insts"] + e.Metrics["sim_detail_insts"]
		} else if fresh[e.Label] != h {
			return fmt.Errorf("%s: cached %s metrics differ from its fresh run", id, e.Label)
		}
	}
	labels := make([]string, 0, len(fresh))
	for l := range fresh {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	h := fnv.New64a()
	for _, l := range labels {
		fmt.Fprintf(h, "%s=%x\n", l, fresh[l])
	}
	rec.Digest = fmt.Sprintf("%016x", h.Sum64())
	return nil
}

// metricsDigest hashes a metrics map in sorted key order.
func metricsDigest(m map[string]float64) uint64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, strconv.FormatFloat(m[k], 'g', -1, 64))
	}
	return h.Sum64()
}

// endWaiter turns the /events stream's sweep_end frames into one closed
// channel per job ID. A channel exists from whichever side asks first, so
// an event that arrives before the submitter waits is not lost.
type endWaiter struct {
	mu     sync.Mutex
	chs    map[string]chan struct{}
	closed map[string]bool
}

func newEndWaiter() *endWaiter {
	return &endWaiter{chs: map[string]chan struct{}{}, closed: map[string]bool{}}
}

func (e *endWaiter) ch(id string) chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.chs[id]
	if !ok {
		c = make(chan struct{})
		e.chs[id] = c
	}
	return c
}

func (e *endWaiter) end(id string) {
	c := e.ch(id)
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed[id] {
		e.closed[id] = true
		close(c)
	}
}

// follow reads the Server-Sent Events stream at url until ctx ends,
// closing the channel of every job whose sweep_end it sees.
func (e *endWaiter) follow(ctx context.Context, hc *http.Client, url string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return
	}
	resp, err := hc.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			event = ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case event == "sweep_end" && strings.HasPrefix(line, "data: "):
			var d struct {
				Sweep string `json:"sweep"`
			}
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &d) == nil {
				e.end(d.Sweep)
			}
		}
	}
}
