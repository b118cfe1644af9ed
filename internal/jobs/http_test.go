package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynaspam/internal/runner"
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

	for _, tc := range []struct {
		name, method, target, body string
		code                       int
		want                       string // substring of the reply body
	}{
		{"malformed body", "POST", "/jobs", `{"bench":`, http.StatusBadRequest, "bad spec"},
		{"unknown bench", "POST", "/jobs", `{"bench":"NOPE"}`, http.StatusBadRequest, "NOPE"},
		// The CLI flag's spelling: decoded leniently, it would run at full
		// detail instead of sampled.
		{"unknown field", "POST", "/jobs", `{"bench":"PF","sim-policy":"sampled"}`, http.StatusBadRequest, `bad spec: json: unknown field "sim-policy"`},
		{"trailing data", "POST", "/jobs", `{"bench":"PF"}{"bench":"BOGUS"}`, http.StatusBadRequest, "bad spec"},
		{"too many fabrics", "POST", "/jobs", `{"bench":"PF","fabrics":100000000}`, http.StatusBadRequest, "fabrics 100000000 exceeds"},
		{"too long a trace", "POST", "/jobs", `{"bench":"PF","tracelen":4611686018427387904}`, http.StatusBadRequest, "tracelen 4611686018427387904 exceeds the fabric's 192 processing elements"},
		{"get unknown job", "GET", "/jobs/job-999999", "", http.StatusNotFound, "no such job"},
		{"delete unknown job", "DELETE", "/jobs/job-999999", "", http.StatusNotFound, "no such job"},
	} {
		rec := doJSON(t, h, tc.method, tc.target, tc.body, nil)
		if rec.Code != tc.code || !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("%s: %s %s = %d %q, want %d containing %q", tc.name, tc.method, tc.target, rec.Code, rec.Body.String(), tc.code, tc.want)
		}
	}
}

// TestSubmitBodyBounded: POST /jobs reads at most runner.MaxLineBytes of
// body. A body that never ends, a bench string that never closes sent on
// a connection that stays open, gets a 413 once the limit is read, instead
// of being read until the client gives up.
func TestSubmitBodyBounded(t *testing.T) {
	_, _, h := mountedPlane(t, "", 1)
	ts := httptest.NewServer(h)
	defer ts.Close()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan struct{})
	defer func() { conn.Close(); <-sent }()
	go func() {
		defer close(sent)
		// Four times the limit, then the body stays open: a server that
		// reads it all waits for more and never replies.
		w := bufio.NewWriter(conn)
		fmt.Fprint(w, "POST /jobs HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\r\n")
		fmt.Fprintf(w, "%x\r\n%s\r\n", len(`{"bench":"`), `{"bench":"`)
		chunk := strings.Repeat("A", 32<<10)
		for n := 0; n < 4*runner.MaxLineBytes; n += len(chunk) {
			if _, err := fmt.Fprintf(w, "%x\r\n%s\r\n", len(chunk), chunk); err != nil {
				return
			}
		}
		w.Flush()
	}()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no reply to an endless body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("an endless body got %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
}

// FuzzSubmitBody: decodeSpec, the POST /jobs body decode, never panics,
// and a body it accepts is refused with data after it, while the spec it
// yields re-encodes and decodes to itself and, with an unknown field
// added, is refused for that field.
func FuzzSubmitBody(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"bench":"PF"}`))
	f.Add([]byte(`{"bench":"BP,NW","mode":"accel-nospec","tracelen":30,"fabrics":4,"sim_policy":"sampled","ff_interval":1000000,"detail_window":20000,"warmup":6000}`))
	f.Add([]byte(` {"Bench":"PF\u00e9","mode":null}` + "\n"))
	f.Add([]byte(`{"bench":"PF","sim-policy":"sampled"}`))
	f.Add([]byte(`{"bench":"PF"}{"bench":"BOGUS"}`))
	f.Add([]byte(`{"bench":"`))
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		if _, err := decodeSpec(io.MultiReader(bytes.NewReader(body), strings.NewReader(" 0"))); err == nil {
			t.Fatalf("%q: accepted with a value after it", body)
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := decodeSpec(bytes.NewReader(enc)); err != nil || again != spec {
			t.Fatalf("%q: decoded %+v, which re-encodes as %s and decodes to %+v (err %v)", body, spec, enc, again, err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(enc, &fields); err != nil {
			t.Fatal(err)
		}
		fields["unknown"] = json.RawMessage("0")
		unknown, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeSpec(bytes.NewReader(unknown)); err == nil || !strings.Contains(err.Error(), `unknown field "unknown"`) {
			t.Fatalf("%s: decode error %v, want one naming the unknown field", unknown, err)
		}
	})
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
// (MaxJobs=2) and checks that the /metrics page lints clean, that the
// plane's own families are present, that no sample is partitioned by job
// or sweep, and that the cycle-accounting stack appears only as the
// cause-labeled cpistack family, summing exactly to both jobs' journaled
// cycles.
func TestConcurrentJobsDistinctMetrics(t *testing.T) {
	dir := t.TempDir()
	p, _, h := mountedPlane(t, dir, 2)

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
		`dynaspam_jobs{state="done"} 2`,
		"dynaspam_jobs_submitted_total 2",
		"dynaspam_job_cache_misses_total 2",
		"dynaspam_job_cache_hits_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	checkNoPartitionLabels(t, body)

	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, "_sim_cpi_cycles_") {
			t.Errorf("/metrics still carries a per-cause cpi_cycles family: %s", line)
			break
		}
	}

	// The stack's causes sum to the cycles both jobs simulated, as their
	// journals record them.
	want := 0.0
	for _, id := range []string{a.ID, b.ID} {
		for _, m := range readJobJournal(t, dir, id) {
			want += m["cycles"]
		}
	}
	if got := stackCycles(t, body); want == 0 || got != want {
		t.Errorf("dynaspam_cpistack_cycles_total sums to %v, want the journaled cycles %v", got, want)
	}
}

// TestMetricsPageBoundedAcrossJobs runs three fresh jobs of one workload
// (distinct trace lengths, so none is a cache hit) and checks that each
// finished job leaves the /metrics page the same number of sample lines,
// none partitioned by job or sweep: the page does not grow with the
// number of jobs served.
func TestMetricsPageBoundedAcrossJobs(t *testing.T) {
	p, _, h := mountedPlane(t, "", 1)
	lines := -1
	for _, tl := range []int{16, 24, 32} {
		var acc struct {
			ID string `json:"id"`
		}
		doJSON(t, h, "POST", "/jobs", `{"bench":"PF","sim_policy":"ff","tracelen":`+strconv.Itoa(tl)+`}`, &acc)
		v := await(t, p, acc.ID)
		if v.State != StateDone || len(v.Cells) != 1 || v.Cells[0].Source != SourceRun {
			t.Fatalf("tracelen %d: job %+v, want done with one simulated cell", tl, v)
		}
		body := doJSON(t, h, "GET", "/metrics", "", nil).Body.String()
		checkNoPartitionLabels(t, body)
		n := 0
		for _, line := range strings.Split(body, "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				n++
			}
		}
		if lines < 0 {
			lines = n
		} else if n != lines {
			t.Errorf("after job %s: %d sample lines, want %d as after the first job", acc.ID, n, lines)
		}
	}
}

// TestStatusBoundedAcrossJobs: /status keeps a bounded number of finished
// job sweeps, so its size stops growing with the jobs a server has run. The
// jobs share one spec (the first runs, the rest hit the memo cache) and the
// wall-time fields are zeroed, so every finished sweep encodes to the same
// bytes: past the bound, the page size is exactly flat.
func TestStatusBoundedAcrossJobs(t *testing.T) {
	const jobs = 24 // more finished sweeps than the Tracker keeps
	p, _, h := mountedPlane(t, "", 1)
	var sizes, sweeps []int
	for range jobs {
		var acc struct {
			ID string `json:"id"`
		}
		doJSON(t, h, "POST", "/jobs", `{"bench":"PF","sim_policy":"ff"}`, &acc)
		if v := await(t, p, acc.ID); v.State != StateDone {
			t.Fatalf("job %s: %+v, want done", acc.ID, v)
		}
		var st telemetry.Status
		doJSON(t, h, "GET", "/status", "", &st)
		for i := range st.Sweeps {
			s := &st.Sweeps[i]
			s.ElapsedMS, s.EtaMS = 0, 0
			for j := range s.Cells {
				s.Cells[j].WallMS = 0
			}
		}
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(b))
		sweeps = append(sweeps, len(st.Sweeps))
	}
	bound := sweeps[jobs-1]
	if bound >= jobs {
		t.Fatalf("/status lists %d sweeps after %d jobs; it keeps every job", bound, jobs)
	}
	for i := bound; i < jobs; i++ {
		if sweeps[i] != bound || sizes[i] != sizes[bound-1] {
			t.Errorf("after job %d: %d sweeps, %d bytes; want %d and %d as after job %d",
				i+1, sweeps[i], sizes[i], bound, sizes[bound-1], bound)
		}
	}
}

// checkNoPartitionLabels fails the test for any /metrics sample carrying
// a job_id or sweep label.
func checkNoPartitionLabels(t *testing.T, page string) {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Contains(line, `job_id="`) || strings.Contains(line, `sweep="`) {
			t.Errorf("/metrics sample partitioned by job or sweep: %s", line)
		}
	}
}

// stackCycles sums the dynaspam_cpistack_cycles_total samples on a scrape
// page: the total simulated cycles of every merged cell.
func stackCycles(t *testing.T, page string) float64 {
	t.Helper()
	sum := 0.0
	for _, line := range strings.Split(page, "\n") {
		if !strings.HasPrefix(line, "dynaspam_cpistack_cycles_total{") {
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
