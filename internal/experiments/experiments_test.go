package experiments

import (
	"context"
	"strings"
	"testing"

	"dynaspam/internal/core"
	"dynaspam/internal/energy"
	"dynaspam/internal/runner"
	"dynaspam/internal/stats"
	"dynaspam/internal/workloads"
)

// fast returns a small, quick subset of the suite for unit testing the
// harness (the full suite runs in the benchmarks and `dynaspam figures`).
func fast(t *testing.T) []*workloads.Workload {
	t.Helper()
	var out []*workloads.Workload
	for _, ab := range []string{"BP", "NW", "PF"} {
		w, err := workloads.ByAbbrev(ab)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}

func TestRunVerifiesAndMeasures(t *testing.T) {
	w, _ := workloads.ByAbbrev("PF")
	for _, mode := range []core.Mode{core.ModeBaseline, core.ModeMappingOnly, core.ModeAccelNoSpec, core.ModeAccel} {
		r, err := Run(w, params(mode))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if r.Cycles == 0 || r.Committed == 0 {
			t.Errorf("%v: empty measurement %+v", mode, r)
		}
		if r.Mode != mode || r.Workload != "PF" {
			t.Errorf("%v: mislabeled result", mode)
		}
		if mode == core.ModeBaseline && (r.FabricOps != 0 || r.MappedOps != 0) {
			t.Errorf("baseline ran fabric/mapping ops: %+v", r)
		}
		if mode == core.ModeAccel && r.FabricOps == 0 {
			t.Error("accel ran nothing on the fabric")
		}
		if r.HostOps+r.FabricOps+r.MappedOps != r.Committed {
			t.Errorf("%v: op placement does not add up: %d+%d+%d != %d",
				mode, r.HostOps, r.FabricOps, r.MappedOps, r.Committed)
		}
	}
}

func TestFig7CoverageRows(t *testing.T) {
	rows, err := Fig7Sweep(context.Background(), fast(t), []int{16, 32}, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		sum := r.HostPct + r.MappedPct + r.FabricPct
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s/%d: fractions sum to %v", r.Workload, r.TraceLen, sum)
		}
		if r.FabricPct <= 0 {
			t.Errorf("%s/%d: no fabric coverage", r.Workload, r.TraceLen)
		}
		if r.MappedPct > 0.2 {
			t.Errorf("%s/%d: mapping fraction %v implausibly high", r.Workload, r.TraceLen, r.MappedPct)
		}
	}
}

func TestTable5LifetimeImprovesWithFabrics(t *testing.T) {
	rows, err := Table5Sweep(context.Background(), fast(t), []int{1, 2}, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Mapped <= 0 || r.Offloaded <= 0 {
			t.Errorf("%s: mapped=%d offloaded=%d", r.Workload, r.Mapped, r.Offloaded)
		}
		if r.Offloaded > r.Mapped {
			t.Errorf("%s: offloaded %d exceeds mapped %d", r.Workload, r.Offloaded, r.Mapped)
		}
		// More fabrics must never shorten configuration lifetimes.
		if r.Lifetime[1] < r.Lifetime[0]*0.8 {
			t.Errorf("%s: lifetime dropped with more fabrics: %v", r.Workload, r.Lifetime)
		}
	}
}

func TestFig8SpeedupShape(t *testing.T) {
	rows, err := Fig8Sweep(context.Background(), fast(t), runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Speculation never loses to conservative ordering.
		if r.AccelSpec < r.AccelNoSpec*0.95 {
			t.Errorf("%s: spec %v below nospec %v", r.Workload, r.AccelSpec, r.AccelNoSpec)
		}
		// Mapping overhead stays within a few percent of baseline.
		if r.MappingOnly < 0.9 {
			t.Errorf("%s: mapping-only speedup %v (overhead > 10%%)", r.Workload, r.MappingOnly)
		}
	}
	m, n, s, err := GeomeanSpeedups(rows)
	if err != nil {
		t.Fatalf("GeomeanSpeedups: %v", err)
	}
	if m <= 0 || n <= 0 || s <= 0 {
		t.Fatalf("degenerate geomeans %v %v %v", m, n, s)
	}
	if s < n*0.95 {
		t.Errorf("geomean: spec %v below nospec %v", s, n)
	}
}

func TestFig9EnergyShape(t *testing.T) {
	rows, err := Fig9Sweep(context.Background(), fast(t), runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Front-end components must shrink under acceleration.
		for _, c := range []energy.Component{energy.Fetch, energy.Rename} {
			if r.DynaSpAM[c] >= r.Baseline[c] {
				t.Errorf("%s: %v energy did not shrink (%v >= %v)",
					r.Workload, c, r.DynaSpAM[c], r.Baseline[c])
			}
		}
		if r.DynaSpAM[energy.Fabric] <= 0 {
			t.Errorf("%s: no fabric energy", r.Workload)
		}
		if r.Baseline[energy.Fabric] != 0 {
			t.Errorf("%s: baseline charged fabric energy", r.Workload)
		}
	}
	red, err := GeomeanEnergyReduction(rows)
	if err != nil {
		t.Fatalf("GeomeanEnergyReduction: %v", err)
	}
	if red <= 0 {
		t.Errorf("geomean energy reduction %v, want positive", red)
	}
}

func TestGeomeanHelpers(t *testing.T) {
	rows := []Fig8Row{
		{MappingOnly: 1, AccelNoSpec: 2, AccelSpec: 4},
		{MappingOnly: 1, AccelNoSpec: 2, AccelSpec: 4},
	}
	m, n, s, err := GeomeanSpeedups(rows)
	if err != nil || m != 1 || n != 2 || s != 4 {
		t.Errorf("GeomeanSpeedups = %v %v %v (%v)", m, n, s, err)
	}
	// A degenerate (zero) speedup must surface as an error, not a panic
	// that would kill a 40-cell sweep mid-flight.
	bad := append(rows, Fig8Row{MappingOnly: 1, AccelNoSpec: 2, AccelSpec: 0})
	if _, _, _, err := GeomeanSpeedups(bad); err == nil {
		t.Error("GeomeanSpeedups accepted a non-positive speedup")
	}
	if _, err := GeomeanEnergyReduction([]Fig9Row{{}}); err == nil {
		t.Error("GeomeanEnergyReduction accepted a degenerate ratio")
	}
}

// TestReportsCloseWithSummaries pins how the Figure 8 and Figure 9 tables
// end — the GEOMEAN row and the geomean-reduction line — and that a
// degenerate geomean fails the render instead of printing a bogus summary.
func TestReportsCloseWithSummaries(t *testing.T) {
	fig8, err := Fig8Report([]Fig8Row{{Workload: "X", MappingOnly: 1, AccelNoSpec: 2, AccelSpec: 4}})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(fig8, "\n"), "\n")
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, "GEOMEAN") {
		t.Errorf("Figure 8 table ends with %q, want the GEOMEAN row", last)
	}
	if _, err := Fig8Report([]Fig8Row{{Workload: "X"}}); err == nil {
		t.Error("Fig8Report rendered a zero speedup")
	}

	var base, accel energy.Breakdown
	base[energy.Fetch], accel[energy.Fetch] = 2000, 1000
	fig9, err := Fig9Report([]Fig9Row{{Workload: "X", Baseline: base, DynaSpAM: accel, Reduction: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if want := "Geomean energy reduction: " + stats.Pct(0.5) + "\n"; !strings.HasSuffix(fig9, want) {
		t.Errorf("Figure 9 table does not end with %q:\n%s", want, fig9)
	}
	if _, err := Fig9Report([]Fig9Row{{Workload: "X"}}); err == nil {
		t.Error("Fig9Report rendered a degenerate energy ratio")
	}
}
