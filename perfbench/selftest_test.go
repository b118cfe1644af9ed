package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestSelf runs every workload at its smallest size, traced, and checks
// the benchmark's own contract: every metric BENCHMARK.json names is
// printed with its unit, every job-latency percentile has at least ten
// samples beyond it, the host-time buckets sum to the profile total, and
// every operation passed its output check.
func TestSelf(t *testing.T) {
	e2e, layer := benchmarkFile(t)
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Fatalf("BENCHMARK.json end_to_end = %v, program reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer()) {
		t.Fatalf("BENCHMARK.json per_layer = %v, program reports %v", layer, perLayer())
	}
	inProcess := func(ctx context.Context, c childConfig) (childResult, error) { return runChild(ctx, c) }
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cfg := runConfig{Workload: w, Seed: 7, Seconds: 0.1, Trace: true, OutDir: t.TempDir(), Small: true}
			rep, err := measure(context.Background(), cfg, inProcess)
			if err != nil {
				t.Fatal(err)
			}
			var traced, untraced bytes.Buffer
			rep.print(&traced)
			plain := *rep
			plain.cfg.Trace = false
			plain.print(&untraced)
			checkResult(t, untraced.String(), e2e)
			checkResult(t, traced.String(), layer)

			sum := 0.0
			for _, b := range buckets {
				sum += rep.layer[b+".host_s"]
			}
			if total := rep.layer["profile.total_s"]; total <= 0 || math.Abs(sum-total) > 1e-9*total {
				t.Errorf("host_s buckets sum to %v s, profile total is %v s", sum, total)
			}
			if w == "serve-jobs" {
				for name, p := range rep.jobPercentiles() {
					if !p.OK {
						t.Errorf("%s has %d samples, under %d beyond it", name, p.N, minTail)
					}
				}
			}
		})
	}
}

// benchmarkFile reads the metric lists of the repository's BENCHMARK.json.
func benchmarkFile(t *testing.T) (e2e, layer []metricDef) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f.EndToEnd, f.PerLayer
}

// checkResult parses a run's last output line and checks it is a correct
// result carrying exactly the wanted metrics, each with its unit.
func checkResult(t *testing.T, out string, want []metricDef) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok || m.Value == nil:
			t.Errorf("metric %s missing", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
}
