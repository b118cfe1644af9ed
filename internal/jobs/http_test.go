package jobs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynaspam/internal/telemetry"
)

// mountedPlane wires a plane into a telemetry server's mux and returns
// both plus the handler.
func mountedPlane(t *testing.T, dir string, maxJobs int) (*Plane, *telemetry.Server, http.Handler) {
	t.Helper()
	p, srv := newTestPlane(t, dir, maxJobs)
	p.Mount(srv)
	return p, srv, srv.Handler()
}

// doJSON issues a request and decodes the JSON reply into out (skipped
// when out is nil), returning the response.
func doJSON(t *testing.T, h http.Handler, method, target, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.NewDecoder(rec.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: bad JSON reply: %v", method, target, err)
		}
	}
	return rec
}

func TestJobsAPISubmitAndTrack(t *testing.T) {
	p, _, h := mountedPlane(t, t.TempDir(), 1)

	var acc struct {
		ID string `json:"id"`
	}
	rec := doJSON(t, h, "POST", "/jobs", `{"bench":"PF"}`, &acc)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202: %s", rec.Code, rec.Body.String())
	}
	if acc.ID == "" {
		t.Fatal("POST /jobs returned no job ID")
	}
	if loc := rec.Header().Get("Location"); loc != "/jobs/"+acc.ID {
		t.Errorf("Location = %q, want /jobs/%s", loc, acc.ID)
	}

	await(t, p, acc.ID)

	var view View
	rec = doJSON(t, h, "GET", "/jobs/"+acc.ID, "", &view)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /jobs/{id} = %d", rec.Code)
	}
	if view.State != StateDone || view.Done != 1 || len(view.Cells) != 1 {
		t.Errorf("view = %+v, want done 1/1 with one cell", view)
	}

	var list struct {
		Jobs []View `json:"jobs"`
	}
	rec = doJSON(t, h, "GET", "/jobs", "", &list)
	if rec.Code != http.StatusOK || len(list.Jobs) != 1 || list.Jobs[0].ID != acc.ID {
		t.Errorf("GET /jobs = %d with %+v", rec.Code, list.Jobs)
	}
	if len(list.Jobs[0].Cells) != 0 {
		t.Errorf("list view includes cells; summaries should omit them")
	}
}

func TestJobsAPIErrors(t *testing.T) {
	_, _, h := mountedPlane(t, "", 1)

	if rec := doJSON(t, h, "POST", "/jobs", `{"bench":`, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", rec.Code)
	}
	if rec := doJSON(t, h, "POST", "/jobs", `{"bench":"NOPE"}`, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown bench = %d, want 400", rec.Code)
	}
	if rec := doJSON(t, h, "GET", "/jobs/job-999999", "", nil); rec.Code != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", rec.Code)
	}
	if rec := doJSON(t, h, "DELETE", "/jobs/job-999999", "", nil); rec.Code != http.StatusNotFound {
		t.Errorf("DELETE unknown job = %d, want 404", rec.Code)
	}
}

func TestJobsAPICancel(t *testing.T) {
	p, _, h := mountedPlane(t, t.TempDir(), 1)

	var first, second struct {
		ID string `json:"id"`
	}
	doJSON(t, h, "POST", "/jobs", `{"bench":"BP,NW,PF"}`, &first)
	doJSON(t, h, "POST", "/jobs", `{"bench":"PF"}`, &second)

	rec := doJSON(t, h, "DELETE", "/jobs/"+second.ID, "", nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("DELETE = %d, want 202", rec.Code)
	}
	if v := await(t, p, second.ID); v.State != StateCancelled {
		t.Errorf("cancelled job state = %s", v.State)
	}
	if v := await(t, p, first.ID); v.State != StateDone {
		t.Errorf("first job state = %s (%s)", v.State, v.Error)
	}
}

// TestConcurrentJobsDistinctMetrics runs two jobs concurrently
// (MaxJobs=2) and checks that /metrics carries a separate job_id
// partition for each, that the page lints clean, that the plane's own
// families are present, and that the cycle-accounting stack appears only
// as the cause-labeled cpistack families.
func TestConcurrentJobsDistinctMetrics(t *testing.T) {
	p, _, h := mountedPlane(t, t.TempDir(), 2)

	var a, b struct {
		ID string `json:"id"`
	}
	doJSON(t, h, "POST", "/jobs", `{"bench":"BP"}`, &a)
	doJSON(t, h, "POST", "/jobs", `{"bench":"PF"}`, &b)
	if v := await(t, p, a.ID); v.State != StateDone {
		t.Fatalf("job A: %s (%s)", v.State, v.Error)
	}
	if v := await(t, p, b.ID); v.State != StateDone {
		t.Fatalf("job B: %s (%s)", v.State, v.Error)
	}

	rec := doJSON(t, h, "GET", "/metrics", "", nil)
	body := rec.Body.String()
	if err := telemetry.LintExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics fails lint: %v", err)
	}
	for _, want := range []string{
		`job_id="` + a.ID + `"`,
		`job_id="` + b.ID + `"`,
		`dynaspam_jobs{state="done"} 2`,
		"dynaspam_jobs_submitted_total 2",
		"dynaspam_job_cache_misses_total 2",
		"dynaspam_job_cache_hits_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, "_sim_cpi_cycles_") {
			t.Errorf("/metrics still carries a per-cause cpi_cycles family: %s", line)
			break
		}
	}

	// Both jobs simulated distinct workloads, so their per-job cycle
	// stacks must sum to different totals; equal totals would suggest the
	// partitions bled into each other.
	sumA, sumB := jobStackCycles(t, body, a.ID), jobStackCycles(t, body, b.ID)
	if sumA == 0 || sumB == 0 {
		t.Fatalf("missing per-job cpistack partition: %s=%v %s=%v", a.ID, sumA, b.ID, sumB)
	}
	if sumA == sumB {
		t.Errorf("per-job cycle stacks identical across different workloads: %v", sumA)
	}
}

// jobStackCycles sums one job's dynaspam_job_cpistack_cycles_total
// samples on a scrape page: the job's total simulated cycles.
func jobStackCycles(t *testing.T, page, id string) float64 {
	t.Helper()
	sum := 0.0
	for _, line := range strings.Split(page, "\n") {
		if !strings.HasPrefix(line, "dynaspam_job_cpistack_cycles_total{") || !strings.Contains(line, `job_id="`+id+`"`) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestDoneUnknownJob pins Plane.Done: unknown IDs report !ok, and a known
// job's channel is closed once the job is terminal.
func TestDoneUnknownJob(t *testing.T) {
	p, _ := newTestPlane(t, "", 1)
	if _, ok := p.Done("job-404"); ok {
		t.Error("Done(unknown) = ok")
	}
	// And Done on a known job is closed after terminal state.
	id, err := p.Submit(Spec{Bench: "PF"})
	if err != nil {
		t.Fatal(err)
	}
	await(t, p, id)
	done, ok := p.Done(id)
	if !ok {
		t.Fatal("Done(known) not ok")
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Error("done channel not closed for terminal job")
	}
}
