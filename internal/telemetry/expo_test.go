package telemetry

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"dynaspam/internal/probe"
)

func TestEscapeLabelValue(t *testing.T) {
	cases := map[string]string{
		`plain`:        `plain`,
		`back\slash`:   `back\\slash`,
		`qu"ote`:       `qu\"ote`,
		"new\nline":    `new\nline`,
		`mix\"` + "\n": `mix\\\"\n`,
	}
	for in, want := range cases {
		if got := escapeLabelValue(in); got != want {
			t.Errorf("escapeLabelValue(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		1:            "1",
		1.5:          "1.5",
		0:            "0",
		1e21:         "1e+21",
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Errorf("formatValue(NaN) = %q", got)
	}
}

func TestWriteExportHistogramCumulative(t *testing.T) {
	r := probe.NewRegistry()
	r.RegisterHistogram("lat", []float64{1, 2, 4})
	for _, v := range []float64{1, 2, 2, 3, 100} {
		r.Observe("lat", v)
	}
	var buf bytes.Buffer
	writeExport(&expoWriter{w: &buf}, r.Export())
	got := buf.String()
	// Non-cumulative probe buckets are [1 2 1] with one overflow sample;
	// exposition buckets must be cumulative and close at +Inf == Count.
	for _, want := range []string{
		"# TYPE dynaspam_sim_lat histogram\n",
		`dynaspam_sim_lat_bucket{le="1"} 1` + "\n",
		`dynaspam_sim_lat_bucket{le="2"} 3` + "\n",
		`dynaspam_sim_lat_bucket{le="4"} 4` + "\n",
		`dynaspam_sim_lat_bucket{le="+Inf"} 5` + "\n",
		"dynaspam_sim_lat_sum 108\n",
		"dynaspam_sim_lat_count 5\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q in:\n%s", want, got)
		}
	}
	if err := LintExposition(strings.NewReader(got)); err != nil {
		t.Fatalf("writer output fails its own lint: %v", err)
	}
}

func TestWriteExportCounterSuffix(t *testing.T) {
	r := probe.NewRegistry()
	r.Counter("offload_denied", 2)
	r.Gauge("fifo_occupancy", 3)
	var buf bytes.Buffer
	writeExport(&expoWriter{w: &buf}, r.Export())
	got := buf.String()
	if !strings.Contains(got, "dynaspam_sim_offload_denied_total 2\n") {
		t.Errorf("counter not rendered with _total suffix:\n%s", got)
	}
	if !strings.Contains(got, "dynaspam_sim_fifo_occupancy 3\n") {
		t.Errorf("gauge missing:\n%s", got)
	}
	if strings.Contains(got, "fifo_occupancy_total") {
		t.Errorf("gauge wrongly got a _total suffix:\n%s", got)
	}
}

func TestLintExpositionAccepts(t *testing.T) {
	good := strings.Join([]string{
		"# HELP m A metric.",
		"# TYPE m counter",
		"m 1",
		"# TYPE g gauge",
		`g{sweep="fig8",q="a\"b"} 2.5`,
		"# TYPE h histogram",
		`h_bucket{le="1"} 1`,
		`h_bucket{le="+Inf"} 2`,
		"h_sum 3",
		"h_count 2",
		"",
	}, "\n")
	if err := LintExposition(strings.NewReader(good)); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
}

func TestLintExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE":   "orphan 1\n",
		"invalid metric name":   "# TYPE 9bad counter\n9bad 1\n",
		"unknown type":          "# TYPE m widget\nm 1\n",
		"duplicate TYPE":        "# TYPE m counter\nm 1\n# TYPE m counter\n",
		"bad value":             "# TYPE m counter\nm one\n",
		"unquoted label":        "# TYPE m counter\nm{a=b} 1\n",
		"unterminated label":    "# TYPE m counter\nm{a=\"b} 1\n",
		"bucket without le":     "# TYPE h histogram\nh_bucket 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"histogram missing inf": "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"bare histogram sample": "# TYPE h histogram\nh 1\n",
		"interleaved families":  "# TYPE a counter\n# TYPE b counter\na 1\nb 1\na 2\n",
	}
	for name, page := range cases {
		if err := LintExposition(strings.NewReader(page)); err == nil {
			t.Errorf("%s: lint accepted invalid exposition:\n%s", name, page)
		}
	}
}

func TestLintExpositionRoundTripsLabels(t *testing.T) {
	// A label value with every escapable character must render, lint, and
	// decode back to the original.
	val := "a\\b\"c\nd"
	var buf bytes.Buffer
	e := &expoWriter{w: &buf}
	e.header("m", "test", "gauge")
	e.sample("m", []label{{"k", val}}, 1)
	if err := LintExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("escaped label fails lint: %v\n%s", err, buf.String())
	}
	line := strings.Split(buf.String(), "\n")[2]
	_, labels, _, err := splitSample(line)
	if err != nil {
		t.Fatal(err)
	}
	if labels["k"] != val {
		t.Errorf("label round-trip = %q, want %q", labels["k"], val)
	}
}

// FuzzExposition checks the exposition linter from both sides:
// LintExposition never panics on an arbitrary page, and a page a Server
// renders always lints clean, whatever its run ID, a contributed
// family's label value and that sample's value.
func FuzzExposition(f *testing.F) {
	f.Add([]byte("# TYPE m counter\nm 1\n"), "test-run", `fig"8\test`, 1.5)
	f.Add([]byte("orphan 1\n"), "", "a\\b\"c\nd", math.Inf(1))
	f.Add([]byte("# TYPE h histogram\nh_bucket{le=\"1\"} 1\n"), `r"\`, "", math.NaN())
	f.Add([]byte("# TYPE g gauge\ng{a=\"\\q\"} 1\n# TYPE a counter\n"), "\n", "\r", math.Inf(-1))
	f.Fuzz(func(t *testing.T, page []byte, runID, labelValue string, value float64) {
		_ = LintExposition(bytes.NewReader(page))

		srv := NewServer(runID, testLogger())
		srv.AddExtra(func() []ExtraFamily {
			return []ExtraFamily{{
				Name: "dynaspam_fuzz", Help: "A fuzzed family.", Type: "gauge",
				Samples: []ExtraSample{{Labels: []Label{{Key: "k", Value: labelValue}}, Value: value}},
			}}
		})
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if err := LintExposition(bytes.NewReader(rec.Body.Bytes())); err != nil {
			t.Fatalf("served page fails lint: %v\n%s", err, rec.Body.String())
		}
	})
}

func TestWriteExtrasHistogramFamily(t *testing.T) {
	r := probe.NewRegistry()
	h := r.RegisterHistogram("wait", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 2, 100} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	writeExtras(&expoWriter{w: &buf}, []ExtraFamily{{
		Name: "dynaspam_job_queue_wait_seconds",
		Help: "Seconds jobs spent queued.",
		Type: "histogram",
		Hist: r.Export().Hists["wait"],
	}})
	got := buf.String()
	for _, want := range []string{
		"# TYPE dynaspam_job_queue_wait_seconds histogram\n",
		`dynaspam_job_queue_wait_seconds_bucket{le="0.1"} 1` + "\n",
		`dynaspam_job_queue_wait_seconds_bucket{le="1"} 2` + "\n",
		`dynaspam_job_queue_wait_seconds_bucket{le="10"} 3` + "\n",
		`dynaspam_job_queue_wait_seconds_bucket{le="+Inf"} 4` + "\n",
		"dynaspam_job_queue_wait_seconds_sum 102.55\n",
		"dynaspam_job_queue_wait_seconds_count 4\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("extras histogram missing %q in:\n%s", want, got)
		}
	}
	if err := LintExposition(strings.NewReader(got)); err != nil {
		t.Fatalf("extras histogram fails lint: %v\n%s", err, got)
	}
}

func TestAggregatorEventsDropped(t *testing.T) {
	agg := NewAggregator()
	if agg.EventsDropped() != 0 {
		t.Fatalf("fresh aggregator EventsDropped = %v", agg.EventsDropped())
	}
	r := probe.NewRegistry()
	r.Counter(probe.MetricEventsDropped, 3)
	agg.Merge(r.Export())
	agg.Merge(r.Export())
	if got := agg.EventsDropped(); got != 6 {
		t.Fatalf("EventsDropped = %v, want 6", got)
	}
	var buf bytes.Buffer
	writeAggregate(&expoWriter{w: &buf}, agg)
	if !strings.Contains(buf.String(), "dynaspam_probe_events_dropped_total 6\n") {
		t.Errorf("aggregate page lacks the dropped-events family:\n%s", buf.String())
	}
}
