package jobs

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dynaspam/internal/probe"
	"dynaspam/internal/telemetry"
)

// stepClock is a deterministic clock advancing 1ms per read, so a job's
// span tree — and therefore its exported trace — is a pure function of the
// span operations performed.
func stepClock() func() time.Time {
	var mu sync.Mutex
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		base = base.Add(time.Millisecond)
		return base
	}
}

// newTracedPlane builds a single-worker plane with an injected span clock,
// mounted on a telemetry server so the /jobs endpoints are reachable.
func newTracedPlane(t *testing.T, dir string) (*Plane, *telemetry.Server) {
	t.Helper()
	srv := newTestServer(t)
	p, err := New(Config{
		Dir:         dir,
		MaxJobs:     1,
		Parallelism: 1,
		Tracker:     srv.Tracker(),
		Log:         testLogger(),
		Version:     "test-version",
		RunID:       "run-test",
		Now:         stepClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		p.Shutdown(ctx)
	})
	p.Mount(srv)
	return p, srv
}

// get performs one request against the server's mux.
func get(t *testing.T, srv *telemetry.Server, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec
}

// runTracedJob runs one BP,PF job on a fresh traced plane and returns its
// trace bytes.
func runTracedJob(t *testing.T) []byte {
	t.Helper()
	p, srv := newTracedPlane(t, t.TempDir())
	id, err := p.Submit(Spec{Bench: "BP,PF"})
	if err != nil {
		t.Fatal(err)
	}
	if v := await(t, p, id); v.State != StateDone {
		t.Fatalf("job: %s (%s)", v.State, v.Error)
	}
	rec := get(t, srv, "/jobs/"+id+"/trace")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET trace = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("trace Content-Type = %q", ct)
	}
	return rec.Body.Bytes()
}

// TestJobTraceDeterministicAndComplete is the acceptance lock for the
// trace endpoint: with an injected clock, two runs of the same sweep on
// fresh planes export byte-identical Chrome-trace JSON, repeated GETs of
// the same job are byte-identical, the document passes the chrome lint,
// and the tree covers the whole lifecycle.
func TestJobTraceDeterministicAndComplete(t *testing.T) {
	a := runTracedJob(t)
	b := runTracedJob(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("two runs of the same sweep trace differently:\n%s\nvs\n%s", a, b)
	}
	if err := probe.LintChromeTrace(bytes.NewReader(a)); err != nil {
		t.Fatalf("job trace fails the chrome lint: %v", err)
	}
	out := string(a)
	for _, want := range []string{
		`"name":"job job-000001"`,
		`"run_id":"run-test"`,
		`"name":"queue-wait"`,
		`"name":"admit"`,
		`"name":"run"`,
		`"name":"cell BP/accel-spec"`,
		`"name":"cell PF/accel-spec"`,
		`"source":"run"`,
		`"name":"journal-flush"`,
		`"name":"sim-cycle-last","ph":"i"`,
		`"state":"done"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace lacks %s:\n%s", want, out)
		}
	}
}

// TestTraceEndpointRepeatedGET: the trace of a terminal job is stable
// across repeated fetches of the same plane.
func TestTraceEndpointRepeatedGET(t *testing.T) {
	p, srv := newTracedPlane(t, "")
	id, err := p.Submit(Spec{Bench: "PF"})
	if err != nil {
		t.Fatal(err)
	}
	if v := await(t, p, id); v.State != StateDone {
		t.Fatalf("job: %s (%s)", v.State, v.Error)
	}
	first := get(t, srv, "/jobs/"+id+"/trace").Body.Bytes()
	second := get(t, srv, "/jobs/"+id+"/trace").Body.Bytes()
	if !bytes.Equal(first, second) {
		t.Fatal("repeated GETs of the same job trace differ")
	}

	if rec := get(t, srv, "/jobs/job-999999/trace"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown job trace = %d, want 404", rec.Code)
	}
}

// TestTraceEndpointRecoveredTerminalJob: a job recovered already-terminal
// has no recorder (its lifecycle ran in a dead process) and answers 404
// rather than fabricating a trace.
func TestTraceEndpointRecoveredTerminalJob(t *testing.T) {
	dir := t.TempDir()
	p0, _ := newTracedPlane(t, dir)
	id, err := p0.Submit(Spec{Bench: "PF"})
	if err != nil {
		t.Fatal(err)
	}
	if v := await(t, p0, id); v.State != StateDone {
		t.Fatalf("seed job: %s (%s)", v.State, v.Error)
	}

	p1, srv1 := newTracedPlane(t, dir)
	if v, ok := p1.Get(id); !ok || v.State != StateDone {
		t.Fatalf("recovered job state = %v %s", ok, v.State)
	}
	rec := get(t, srv1, "/jobs/"+id+"/trace")
	if rec.Code != http.StatusNotFound {
		t.Errorf("recovered-terminal trace = %d, want 404", rec.Code)
	}
}

// TestMetricsLatencyHistograms: finished jobs feed the queue-wait and
// turnaround histograms, derived from the same spans as the trace, and the
// /metrics page still lints.
func TestMetricsLatencyHistograms(t *testing.T) {
	p, srv := newTracedPlane(t, t.TempDir())
	id, err := p.Submit(Spec{Bench: "PF"})
	if err != nil {
		t.Fatal(err)
	}
	if v := await(t, p, id); v.State != StateDone {
		t.Fatalf("job: %s (%s)", v.State, v.Error)
	}
	rec := get(t, srv, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	page := rec.Body.String()
	for _, want := range []string{
		"# TYPE dynaspam_job_queue_wait_seconds histogram\n",
		"dynaspam_job_queue_wait_seconds_count 1\n",
		`dynaspam_job_queue_wait_seconds_bucket{le="+Inf"} 1` + "\n",
		"# TYPE dynaspam_job_turnaround_seconds histogram\n",
		"dynaspam_job_turnaround_seconds_count 1\n",
		"# TYPE dynaspam_probe_events_dropped_total counter\n",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if err := telemetry.LintExposition(strings.NewReader(page)); err != nil {
		t.Fatalf("/metrics fails lint with histograms: %v\n%s", err, page)
	}
}
