package telemetry

import (
	"bytes"
	"context"
	"testing"

	"dynaspam/internal/core"
	"dynaspam/internal/experiments"
	"dynaspam/internal/probe"
	"dynaspam/internal/runner"
	"dynaspam/internal/workloads"
)

// TestBFSGoldenExportsUnchangedWithServer is the observe-only lock for the
// telemetry plane: running the squash-heavy BFS cell with the full plane
// attached — tracker reporting, aggregator merging, and a client
// continuously scraping /metrics throughout the run — must still produce
// observability exports byte-identical to the goldens generated with no
// server at all. If telemetry ever feeds back into simulation state (a
// shared registry, an ill-placed lock, a probe mutation from the scrape
// path), this test catches it as a byte diff.
func TestBFSGoldenExportsUnchangedWithServer(t *testing.T) {
	if testing.Short() {
		t.Skip("full BFS accel run")
	}
	w, err := workloads.ByAbbrev("BFS")
	if err != nil {
		t.Fatal(err)
	}

	tel, ts := newTestServer(t)
	stop := make(chan struct{})
	scrapeDone := make(chan struct{})
	go concurrentScrape(t, ts.URL+"/metrics", stop, scrapeDone)

	p := core.DefaultParams()
	p.Mode = core.ModeAccel
	pr := probe.New(40000) // same event cap as the golden generator
	jobs := []runner.Job[*experiments.RunResult]{{
		Label: "BFS",
		Run: func(ctx context.Context) (*experiments.RunResult, error) {
			return experiments.RunProbedCtx(ctx, w, p, pr)
		},
	}}
	_, err = runner.Run(context.Background(), runner.Options{
		Parallelism: 1,
		Name:        "bfs-golden",
		Reporter:    tel.Tracker(),
		Log:         testLogger(),
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	tel.Aggregator().Merge(pr.Metrics().Export())
	close(stop)
	<-scrapeDone

	runs := []probe.TraceRun{pr.TraceRun("BFS")}
	var cb, pb bytes.Buffer
	if err := probe.WriteChromeTrace(&cb, runs); err != nil {
		t.Fatal(err)
	}
	if err := probe.WritePipeView(&pb, runs); err != nil {
		t.Fatal(err)
	}
	if want := readGolden(t, "bfs_accel_trace.json"); !bytes.Equal(cb.Bytes(), want) {
		t.Errorf("Chrome trace diverged from golden with telemetry enabled (%d vs %d bytes)",
			cb.Len(), len(want))
	}
	if want := readGolden(t, "bfs_accel_pipeview.kanata"); !bytes.Equal(pb.Bytes(), want) {
		t.Errorf("pipeline view diverged from golden with telemetry enabled (%d vs %d bytes)",
			pb.Len(), len(want))
	}

	// The sweep the scraper watched must have landed in the tracker.
	st := tel.Tracker().Status()
	if len(st.Sweeps) != 1 || st.Sweeps[0].Done != 1 || st.Sweeps[0].Active {
		t.Errorf("tracker state after sweep = %+v", st.Sweeps)
	}
	if tel.Aggregator().Cells() != 1 {
		t.Errorf("aggregator merged %d cells, want 1", tel.Aggregator().Cells())
	}
}
