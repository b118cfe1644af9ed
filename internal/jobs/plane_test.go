package jobs

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dynaspam/internal/experiments"
	"dynaspam/internal/probe"
	"dynaspam/internal/runner"
	"dynaspam/internal/telemetry"
)

// waitGrace bounds how long tests wait for a job to reach a terminal
// state; generous because CI machines run sweeps slowly under -race.
const waitGrace = 120 * time.Second

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newTestServer builds a quiet telemetry server whose sampler is stopped
// at cleanup.
func newTestServer(t *testing.T) *telemetry.Server {
	t.Helper()
	srv := telemetry.NewServer("jobs-test", testLogger())
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv
}

// newTestPlane builds a plane over dir wired to a fresh telemetry server.
func newTestPlane(t *testing.T, dir string, maxJobs int) (*Plane, *telemetry.Server) {
	t.Helper()
	srv := newTestServer(t)
	p, err := New(Config{
		Dir:        dir,
		MaxJobs:    maxJobs,
		Aggregator: srv.Aggregator(),
		Tracker:    srv.Tracker(),
		Log:        testLogger(),
		Version:    "test-version",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		p.Shutdown(ctx)
	})
	return p, srv
}

// await blocks until the job is terminal and returns its final view.
func await(t *testing.T, p *Plane, id string) View {
	t.Helper()
	done, ok := p.Done(id)
	if !ok {
		t.Fatalf("job %s unknown", id)
	}
	select {
	case <-done:
	case <-time.After(waitGrace):
		t.Fatalf("job %s did not finish within %v", id, waitGrace)
	}
	v, _ := p.Get(id)
	return v
}

func TestSubmitRunsJobToDone(t *testing.T) {
	p, _ := newTestPlane(t, t.TempDir(), 1)
	id, err := p.Submit(Spec{Bench: "PF"})
	if err != nil {
		t.Fatal(err)
	}
	if id != "job-000001" {
		t.Errorf("first job ID = %s, want job-000001", id)
	}
	v := await(t, p, id)
	if v.State != StateDone {
		t.Fatalf("state = %s (%s), want done", v.State, v.Error)
	}
	if v.Total != 1 || v.Done != 1 || v.Failed != 0 {
		t.Errorf("progress = %d/%d failed %d, want 1/1 failed 0", v.Done, v.Total, v.Failed)
	}
	if len(v.Cells) != 1 || v.Cells[0].Source != SourceRun || v.Cells[0].Status != "ok" {
		t.Errorf("cells = %+v, want one ok run-sourced cell", v.Cells)
	}
}

func TestSubmitRejectsInvalidSpecs(t *testing.T) {
	p, _ := newTestPlane(t, "", 1)
	for _, spec := range []Spec{
		{},
		{Bench: "NOPE"},
		{Bench: "PF", Mode: "warp"},
		{Bench: "PF", TraceLen: -3},
		{Bench: "PF", TraceLen: 1},
	} {
		if _, err := p.Submit(spec); err == nil {
			t.Errorf("Submit(%+v) accepted an invalid spec", spec)
		}
	}
	if got := len(p.List()); got != 0 {
		t.Errorf("invalid submissions left %d jobs in the table", got)
	}
}

// TestQueueFIFOOrder locks submission-order execution: with MaxJobs=1,
// jobs must start (and therefore run) in the order they were accepted.
// The Tracker records sweeps in start order, which makes the dispatch
// order observable after the fact without racing the scheduler.
func TestQueueFIFOOrder(t *testing.T) {
	p, srv := newTestPlane(t, t.TempDir(), 1)
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := p.Submit(Spec{Bench: "PF"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if v := await(t, p, id); v.State != StateDone {
			t.Fatalf("job %s state %s (%s)", id, v.State, v.Error)
		}
	}
	sweeps := srv.Tracker().Status().Sweeps
	if len(sweeps) != 3 {
		t.Fatalf("tracker saw %d sweeps, want 3", len(sweeps))
	}
	for i, sw := range sweeps {
		if sw.Name != ids[i] {
			t.Errorf("sweep[%d] = %s, want %s (FIFO dispatch)", i, sw.Name, ids[i])
		}
	}
	list := p.List()
	if len(list) != 3 {
		t.Fatalf("List has %d jobs, want 3", len(list))
	}
	for i, v := range list {
		if v.ID != ids[i] {
			t.Errorf("List[%d] = %s, want %s (submission order)", i, v.ID, ids[i])
		}
	}
}

func TestCancelQueuedJob(t *testing.T) {
	// MaxJobs=1 and a first job that occupies the slot long enough to
	// cancel the queued one behind it.
	p, _ := newTestPlane(t, t.TempDir(), 1)
	first, err := p.Submit(Spec{Bench: "BP,NW,PF"})
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.Submit(Spec{Bench: "PF"})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Cancel(second) {
		t.Fatal("Cancel(second) = false")
	}
	v := await(t, p, second)
	if v.State != StateCancelled {
		t.Errorf("cancelled queued job state = %s, want cancelled", v.State)
	}
	if v.Done != 0 {
		t.Errorf("cancelled queued job ran %d cells", v.Done)
	}
	if fv := await(t, p, first); fv.State != StateDone {
		t.Errorf("first job state = %s (%s), want done", fv.State, fv.Error)
	}
	if p.Cancel("job-999999") {
		t.Error("Cancel of unknown ID returned true")
	}
}

// TestCacheHitOnResubmission: an identical second submission must serve
// every cell from cache — no re-simulation — and account hits/misses.
func TestCacheHitOnResubmission(t *testing.T) {
	p, _ := newTestPlane(t, t.TempDir(), 1)
	spec := Spec{Bench: "BP,PF"}
	first, err := p.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v := await(t, p, first); v.State != StateDone {
		t.Fatalf("first job: %s (%s)", v.State, v.Error)
	}
	hits, misses, entries := p.cache.Stats()
	if hits != 0 || misses != 2 || entries != 2 {
		t.Fatalf("after first job: hits=%d misses=%d entries=%d, want 0/2/2", hits, misses, entries)
	}

	second, err := p.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := await(t, p, second)
	if v.State != StateDone {
		t.Fatalf("second job: %s (%s)", v.State, v.Error)
	}
	for _, c := range v.Cells {
		if c.Source != SourceCache {
			t.Errorf("cell %s source = %s, want cache", c.Label, c.Source)
		}
	}
	hits, misses, _ = p.cache.Stats()
	if hits != 2 || misses != 2 {
		t.Errorf("after resubmission: hits=%d misses=%d, want 2/2", hits, misses)
	}

	// A different configuration must not hit the same entries.
	third, err := p.Submit(Spec{Bench: "PF", Mode: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	if v := await(t, p, third); v.Cells[0].Source != SourceRun {
		t.Errorf("different-config cell source = %s, want run", v.Cells[0].Source)
	}
}

// readJobJournal replays a job's on-disk journal into label→metrics,
// keeping the latest entry per seq.
func readJobJournal(t *testing.T, dir, id string) map[string]map[string]float64 {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, id+".runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, err := runner.ReadJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]map[string]float64)
	for _, e := range entries {
		if e.Status == runner.StatusOK {
			out[e.Label] = e.Metrics
		}
	}
	return out
}

// TestResumeFromJournal fabricates an interrupted job on disk — spec and
// a partial journal, no terminal marker — and checks that a fresh plane
// resumes it at its first unfinished cell: the finished cell is not
// re-simulated, the remaining cells run, and the job completes.
func TestResumeFromJournal(t *testing.T) {
	dir := t.TempDir()

	// First, produce genuine journal entries by running the spec once in
	// a throwaway plane.
	srcDir := t.TempDir()
	p0, _ := newTestPlane(t, srcDir, 1)
	spec := Spec{Bench: "BP,NW,PF"}
	id0, err := p0.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v := await(t, p0, id0); v.State != StateDone {
		t.Fatalf("seed job: %s (%s)", v.State, v.Error)
	}
	full := readJobJournal(t, srcDir, id0)
	if len(full) != 3 {
		t.Fatalf("seed journal has %d ok labels, want 3", len(full))
	}

	// Fabricate the interrupted job: spec + journal holding only the
	// first cell's entry.
	specBytes, _ := json.Marshal(spec)
	if err := os.WriteFile(filepath.Join(dir, "job-000001.spec.json"), specBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	entry := runner.Entry{Sweep: "job-000001", Seq: 0, Label: "BP/accel-spec", Status: runner.StatusOK, WallMS: 5, Metrics: full["BP/accel-spec"]}
	eb, _ := json.Marshal(entry)
	if err := os.WriteFile(filepath.Join(dir, "job-000001.runs.jsonl"), append(eb, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh plane over dir must recover and finish the job.
	p, _ := newTestPlane(t, dir, 1)
	v := await(t, p, "job-000001")
	if v.State != StateDone {
		t.Fatalf("resumed job: %s (%s)", v.State, v.Error)
	}
	if v.Total != 3 || v.Done != 3 {
		t.Errorf("resumed job progress %d/%d, want 3/3", v.Done, v.Total)
	}
	if v.Cells[0].Source != SourceJournal {
		t.Errorf("cell 0 source = %s, want journal (restored, not re-run)", v.Cells[0].Source)
	}
	for i := 1; i < 3; i++ {
		if v.Cells[i].Source != SourceRun {
			t.Errorf("cell %d source = %s, want run", i, v.Cells[i].Source)
		}
	}
	// The finished cell must not have been re-simulated: with cell 0
	// restored, exactly 2 cache misses (the live cells) occurred.
	hits, misses, _ := p.cache.Stats()
	if hits != 0 || misses != 2 {
		t.Errorf("resume ran hits=%d misses=%d, want 0 hits / 2 misses (first cell restored from journal)", hits, misses)
	}
	// Next submission of the same spec is fully cached: resumed journals
	// and fresh runs both feed the memo cache... cell 0's entry seeds on
	// terminal load only in a *restarted* plane, so here expect the two
	// live cells cached plus cell 0 via its journal replay on the NEXT
	// restart. Check the on-disk journal instead: all three labels ok.
	final := readJobJournal(t, dir, "job-000001")
	if len(final) != 3 {
		t.Errorf("final journal has %d ok labels, want 3", len(final))
	}
	if !reflect.DeepEqual(final["NW/accel-spec"], full["NW/accel-spec"]) {
		t.Errorf("resumed NW metrics differ from direct run")
	}

	// Restart once more: the finished job must load terminal (done), not
	// re-enqueue, and its journal must seed the cache.
	p2, _ := newTestPlane(t, dir, 1)
	v2, ok := p2.Get("job-000001")
	if !ok || v2.State != StateDone {
		t.Fatalf("restarted plane job state = %v %s, want done", ok, v2.State)
	}
	id2, err := p2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v3 := await(t, p2, id2)
	if v3.State != StateDone {
		t.Fatalf("post-restart resubmission: %s (%s)", v3.State, v3.Error)
	}
	for _, c := range v3.Cells {
		if c.Source != SourceCache {
			t.Errorf("post-restart cell %s source = %s, want cache (journal-seeded)", c.Label, c.Source)
		}
	}
}

// TestJournalMetricsIdenticalAcrossExecutionPaths is the four-path
// determinism lock from the acceptance criteria: a sweep's journal
// metrics must be identical whether each cell ran directly (plain
// experiments call), queued through the plane, resumed after an
// interruption, or served from the memo cache. Wall times differ by
// nature; the simulated measurements may not.
func TestJournalMetricsIdenticalAcrossExecutionPaths(t *testing.T) {
	spec := Spec{Bench: "BP,PF"}
	ws, err := spec.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	params, err := spec.Params()
	if err != nil {
		t.Fatal(err)
	}

	// Path 1: direct — no plane, no queue, exactly what the CLI does.
	direct := make(map[string]map[string]float64)
	for _, w := range ws {
		pr := probe.NewMetricsOnly()
		res, err := experiments.RunProbedCtx(context.Background(), w, params, pr)
		if err != nil {
			t.Fatal(err)
		}
		// Round-trip through JSON like a journal entry does, so float
		// rendering differences would be caught too.
		b, _ := json.Marshal(runner.Entry{Metrics: res.JournalMetrics()})
		var e runner.Entry
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatal(err)
		}
		direct[w.Abbrev+"/accel-spec"] = e.Metrics
	}

	// Path 2: queued through a plane.
	dir := t.TempDir()
	p, _ := newTestPlane(t, dir, 1)
	id, err := p.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v := await(t, p, id); v.State != StateDone {
		t.Fatalf("queued job: %s (%s)", v.State, v.Error)
	}
	queued := readJobJournal(t, dir, id)

	// Path 3: killed-and-resumed — fabricated interruption with the
	// first cell already journaled.
	rdir := t.TempDir()
	specBytes, _ := json.Marshal(spec)
	if err := os.WriteFile(filepath.Join(rdir, "job-000001.spec.json"), specBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	firstLabel := ws[0].Abbrev + "/accel-spec"
	eb, _ := json.Marshal(runner.Entry{Sweep: "job-000001", Seq: 0, Label: firstLabel, Status: runner.StatusOK, WallMS: 1, Metrics: queued[firstLabel]})
	if err := os.WriteFile(filepath.Join(rdir, "job-000001.runs.jsonl"), append(eb, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	rp, _ := newTestPlane(t, rdir, 1)
	if v := await(t, rp, "job-000001"); v.State != StateDone {
		t.Fatalf("resumed job: %s (%s)", v.State, v.Error)
	}
	resumed := readJobJournal(t, rdir, "job-000001")

	// Path 4: cache-hit — resubmit on the first plane.
	id2, err := p.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v := await(t, p, id2); v.State != StateDone {
		t.Fatalf("cached job: %s (%s)", v.State, v.Error)
	}
	cached := readJobJournal(t, dir, id2)

	for _, path := range []struct {
		name string
		got  map[string]map[string]float64
	}{{"queued", queued}, {"resumed", resumed}, {"cache-hit", cached}} {
		if len(path.got) != len(direct) {
			t.Errorf("%s path journaled %d labels, direct %d", path.name, len(path.got), len(direct))
			continue
		}
		for label, want := range direct {
			if !reflect.DeepEqual(path.got[label], want) {
				t.Errorf("%s path: %s metrics differ from direct run\n got: %v\nwant: %v",
					path.name, label, path.got[label], want)
			}
		}
	}
}

// TestEphemeralPlaneRunsWithoutStateDir: no -state flag means no
// persistence, but jobs still execute.
func TestEphemeralPlaneRunsWithoutStateDir(t *testing.T) {
	p, _ := newTestPlane(t, "", 1)
	id, err := p.Submit(Spec{Bench: "PF"})
	if err != nil {
		t.Fatal(err)
	}
	if v := await(t, p, id); v.State != StateDone {
		t.Fatalf("ephemeral job: %s (%s)", v.State, v.Error)
	}
}

// TestShutdownLeavesRunningJobResumable: a plane shutdown mid-job writes
// no terminal marker, so the next plane over the same directory
// re-enqueues the job.
func TestShutdownLeavesRunningJobResumable(t *testing.T) {
	dir := t.TempDir()
	p, _ := newTestPlane(t, dir, 1)
	id, err := p.Submit(Spec{Bench: "BP,NW,PF"})
	if err != nil {
		t.Fatal(err)
	}
	// Shut down promptly; whether zero or more cells finished, the job
	// must not be marked terminal.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := p.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, id+".state.json")); !os.IsNotExist(err) {
		t.Fatalf("shutdown wrote a terminal marker (err=%v); interrupted jobs must stay resumable", err)
	}

	p2, _ := newTestPlane(t, dir, 1)
	v := await(t, p2, id)
	if v.State != StateDone {
		t.Fatalf("job after restart: %s (%s), want done", v.State, v.Error)
	}
	if v.Done != 3 {
		t.Errorf("job after restart finished %d/3 cells", v.Done)
	}
}
