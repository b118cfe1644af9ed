package mapper

import (
	"testing"

	"dynaspam/internal/isa"
)

func TestTable2PolicyOrdering(t *testing.T) {
	tests := []struct {
		name string
		v    PlacementView
		want int
	}{
		{"two live-ins", PlacementView{NeedInputs: 2}, 3},
		{"all reusable", PlacementView{NonLive: 2, CanReuse: 2}, 2},
		{"one reusable", PlacementView{NonLive: 2, CanReuse: 1}, 1},
		{"all routed", PlacementView{NonLive: 2}, 0},
		{"live-in only", PlacementView{NeedInputs: 1}, 0},
	}
	for _, tc := range tests {
		if got := Table2Policy(tc.v); got != tc.want {
			t.Errorf("%s: Table2Policy = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestFlatPolicyIgnoresReuse(t *testing.T) {
	a := FlatPolicy(PlacementView{NonLive: 2, CanReuse: 2})
	b := FlatPolicy(PlacementView{NonLive: 2})
	if a != b {
		t.Errorf("FlatPolicy distinguishes reuse (%d) from route (%d)", a, b)
	}
	if FlatPolicy(PlacementView{NeedInputs: 2}) <= a {
		t.Error("FlatPolicy lost the mandatory two-live-in ordering")
	}
}

// Table2Policy must never allocate more datapath slots than FlatPolicy on a
// trace where reuse is possible (the whole point of the routing score).
func TestPolicyReuseReducesRouting(t *testing.T) {
	g := smallGeom()
	g.Stripes = 8
	// A value consumed at three different depths: reuse-aware placement
	// shares one extending route.
	trace := []TraceInst{
		ti(0, addi(isa.R(3), isa.R(1))),
		ti(1, addi(isa.R(4), isa.R(3))),
		ti(2, add(isa.R(5), isa.R(4), isa.R(3))),
		ti(3, add(isa.R(6), isa.R(5), isa.R(3))),
		ti(4, add(isa.R(7), isa.R(6), isa.R(3))),
	}
	aware, err := MapStaticPolicy(trace, g, 0, 5, Table2Policy)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := MapStaticPolicy(trace, g, 0, 5, FlatPolicy)
	if err != nil {
		t.Fatal(err)
	}
	if aware.DatapathSlots > flat.DatapathSlots {
		t.Errorf("Table 2 policy used more slots (%d) than flat (%d)",
			aware.DatapathSlots, flat.DatapathSlots)
	}
}

func TestMapStaticPolicyMatchesDefault(t *testing.T) {
	g := smallGeom()
	trace := fig2bTrace()
	a, err1 := MapStatic(trace, g, 0, 4)
	b, err2 := MapStaticPolicy(trace, g, 0, 4, Table2Policy)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("defaults disagree: %v vs %v", err1, err2)
	}
	if err1 == nil && len(a.Insts) != len(b.Insts) {
		t.Error("default and explicit Table2Policy produced different configs")
	}
}
