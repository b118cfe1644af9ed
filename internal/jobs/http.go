package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"dynaspam/internal/probe"
	"dynaspam/internal/runner"
	"dynaspam/internal/spans"
	"dynaspam/internal/telemetry"
)

// View is one job's externally visible state, the GET /jobs/{id}
// response body. Summary listings (GET /jobs) omit Cells.
type View struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Bench string `json:"bench"`
	// Mode and SimPolicy name the job's resolved architecture mode and
	// simulation fidelity (full | ff | sampled). Both are empty for a
	// recovered spec that no longer resolves.
	Mode      string `json:"mode"`
	SimPolicy string `json:"sim_policy"`
	Total     int    `json:"total"`
	Done      int    `json:"done"`
	Failed    int    `json:"failed"`
	// EtaMS estimates milliseconds to completion from the Tracker's
	// finished-cell pace; 0 when unknown, finished, or not running.
	EtaMS float64     `json:"eta_ms"`
	Error string      `json:"error,omitempty"`
	Cells []cellState `json:"cells,omitempty"`
}

// viewLocked renders a job; the caller holds mu. Cells are copied so the
// caller may release the lock before serializing.
func (p *Plane) viewLocked(j *job, withCells bool) View {
	v := View{
		ID:    j.id,
		State: j.state,
		Bench: j.spec.Bench,
		Total: len(j.cells),
		Error: j.errMsg,
	}
	v.Mode, v.SimPolicy = j.labels()
	for _, c := range j.cells {
		switch c.Status {
		case "":
		case "ok":
			v.Done++
		default:
			v.Done++
			v.Failed++
		}
	}
	if withCells {
		v.Cells = append([]cellState(nil), j.cells...)
	}
	return v
}

// Get returns one job's full view.
func (p *Plane) Get(id string) (View, bool) {
	p.mu.Lock()
	j, ok := p.jobs[id]
	if !ok {
		p.mu.Unlock()
		return View{}, false
	}
	v := p.viewLocked(j, true)
	p.mu.Unlock()
	p.setETA(&v)
	return v, true
}

// List returns summary views of every job in submission order.
func (p *Plane) List() []View {
	p.mu.Lock()
	out := make([]View, 0, len(p.order))
	for _, id := range p.order {
		out = append(out, p.viewLocked(p.jobs[id], false))
	}
	p.mu.Unlock()
	for i := range out {
		p.setETA(&out[i])
	}
	return out
}

// setETA fills a running job's live ETA from the Tracker, which tracks
// each job as a sweep named by its ID. Every other state's ETA is 0.
func (p *Plane) setETA(v *View) {
	if p.cfg.Tracker != nil && v.State == StateRunning {
		v.EtaMS = p.cfg.Tracker.ETA(v.ID)
	}
}

// Mount registers the jobs API on the telemetry server's mux and hooks
// the plane's queue and cache counters into /metrics. Must be called
// before the server starts.
//
//	POST   /jobs               submit a Spec (JSON body) → 202 + {"id": ...}
//	GET    /jobs               list all jobs, submission order
//	GET    /jobs/{id}          one job with per-cell progress and ETA
//	DELETE /jobs/{id}          cancel (queued: immediate; running: via context)
//	GET    /jobs/{id}/trace    the job's span tree as Chrome trace JSON
func (p *Plane) Mount(tel *telemetry.Server) {
	tel.Handle("POST /jobs", http.HandlerFunc(p.handleSubmit))
	tel.Handle("GET /jobs", http.HandlerFunc(p.handleList))
	tel.Handle("GET /jobs/{id}", http.HandlerFunc(p.handleGet))
	tel.Handle("DELETE /jobs/{id}", http.HandlerFunc(p.handleCancel))
	tel.Handle("GET /jobs/{id}/trace", http.HandlerFunc(p.handleTrace))
	tel.AddExtra(p.metricFamilies)
}

// writeJSON writes v as an indented JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// handleSubmit implements POST /jobs. The body is read through a limit of
// runner.MaxLineBytes, the longest spec record a job file can hold: a body
// still being read when the limit is reached is a 413, so an endless one
// ends there. A body that decodeSpec refuses before the limit, whatever its
// length, is a 400.
func (p *Plane) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, runner.MaxLineBytes))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		http.Error(w, fmt.Sprintf("bad spec: body exceeds %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
		return
	case err != nil:
		http.Error(w, "bad spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	id, err := p.Submit(spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Location", "/jobs/"+id)
	writeJSON(w, http.StatusAccepted, struct {
		ID string `json:"id"`
	}{ID: id})
}

// decodeSpec decodes a POST /jobs body, which must be exactly one Spec
// object: an unknown field (such as the CLI flag spelling "sim-policy") or
// data after the object is an error, never a silently different job. A
// read error, the body limit's among them, is wrapped in the error.
func decodeSpec(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, err
	}
	_, err := dec.Token()
	if err == io.EOF {
		return spec, nil
	}
	if err == nil {
		err = errors.New("another JSON value")
	}
	return Spec{}, fmt.Errorf("unexpected data after the spec object: %w", err)
}

// handleList implements GET /jobs.
func (p *Plane) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []View `json:"jobs"`
	}{Jobs: p.List()})
}

// handleGet implements GET /jobs/{id}.
func (p *Plane) handleGet(w http.ResponseWriter, r *http.Request) {
	v, ok := p.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleCancel implements DELETE /jobs/{id}: 202 because a running job
// drains asynchronously; poll GET /jobs/{id} for the cancelled state.
func (p *Plane) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !p.Cancel(id) {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	v, _ := p.Get(id)
	writeJSON(w, http.StatusAccepted, v)
}

// handleTrace implements GET /jobs/{id}/trace: the job's span tree
// rendered as one Chrome trace-event JSON document (open it in Perfetto).
// The export is a pure function of the job's recorded spans, so repeated
// GETs of an untouched job return byte-identical documents. Jobs recovered
// already-terminal have no recorder (their lifecycle ran in a dead
// process) and answer 404.
func (p *Plane) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	p.mu.Lock()
	j, ok := p.jobs[id]
	var rec *spans.Recorder
	if ok {
		rec = j.rec
	}
	p.mu.Unlock()
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	if rec == nil {
		http.Error(w, "no trace recorded for this job", http.StatusNotFound)
		return
	}
	var buf bytes.Buffer
	if err := spans.WriteChromeTrace(&buf, id, rec.Snapshot()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
}

// metricFamilies renders the plane's own counters for /metrics.
func (p *Plane) metricFamilies() []telemetry.ExtraFamily {
	p.mu.Lock()
	counts := map[string]int{
		StateQueued: 0, StateRunning: 0, StateDone: 0, StateFailed: 0, StateCancelled: 0,
	}
	for _, id := range p.order {
		counts[p.jobs[id].state]++
	}
	submitted := len(p.order)
	queueWait := cloneHist(p.queueWait)
	turnaround := cloneHist(p.turnaround)
	// Simulation throughput: instructions (fast-forwarded + detailed) per
	// wall second across all jobs, counting only cells simulated by this
	// process (cache/journal hits carry no wall time). Derived from
	// journaled wall times, so the plane stays wallclock-clean.
	var ipsSamples []telemetry.ExtraSample
	var totInsts, totMS float64
	for _, id := range p.order {
		if j := p.jobs[id]; j.simWallMS > 0 {
			totInsts += j.ffInsts + j.detailInsts
			totMS += j.simWallMS
		}
	}
	if totMS > 0 {
		ipsSamples = []telemetry.ExtraSample{{Value: totInsts / totMS * 1e3}}
	}
	p.mu.Unlock()
	hits, misses, entries := p.cache.Stats()

	states := []string{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled}
	stateSamples := make([]telemetry.ExtraSample, len(states))
	for i, s := range states {
		stateSamples[i] = telemetry.ExtraSample{
			Labels: []telemetry.Label{{Key: "state", Value: s}},
			Value:  float64(counts[s]),
		}
	}
	return []telemetry.ExtraFamily{
		{Name: "dynaspam_jobs", Help: "Jobs known to the plane, by lifecycle state.", Type: "gauge", Samples: stateSamples},
		{Name: "dynaspam_jobs_submitted_total", Help: "Jobs accepted since the plane started (including recovered ones).", Type: "counter",
			Samples: []telemetry.ExtraSample{{Value: float64(submitted)}}},
		{Name: "dynaspam_job_cache_hits_total", Help: "Sweep cells served from the memo cache instead of simulating.", Type: "counter",
			Samples: []telemetry.ExtraSample{{Value: float64(hits)}}},
		{Name: "dynaspam_job_cache_misses_total", Help: "Sweep cells that missed the memo cache and simulated.", Type: "counter",
			Samples: []telemetry.ExtraSample{{Value: float64(misses)}}},
		{Name: "dynaspam_job_cache_entries", Help: "Cells currently memoized.", Type: "gauge",
			Samples: []telemetry.ExtraSample{{Value: float64(entries)}}},
		{Name: "dynaspam_job_queue_wait_seconds", Help: "Seconds jobs spent queued before admission, from the queue-wait span of each job's trace.", Type: "histogram",
			Hist: queueWait},
		{Name: "dynaspam_job_turnaround_seconds", Help: "Seconds from job submission to its terminal state, from the root span of each job's trace.", Type: "histogram",
			Hist: turnaround},
		{Name: "dynaspam_sim_insts_per_second", Help: "Simulated instructions per wall second (fast-forwarded + detailed), across the cells this process simulated.", Type: "gauge",
			Samples: ipsSamples},
	}
}

// cloneHist snapshots a latency histogram under the plane lock, since the
// /metrics scrape renders concurrently with span finalization.
func cloneHist(h *probe.Histogram) probe.Histogram {
	return probe.Histogram{
		Bounds:       append([]float64(nil), h.Bounds...),
		BucketCounts: append([]uint64(nil), h.BucketCounts...),
		Count:        h.Count,
		Sum:          h.Sum,
	}
}
