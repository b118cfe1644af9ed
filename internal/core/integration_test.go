package core

import (
	"testing"

	"dynaspam/internal/interp"
	"dynaspam/internal/workloads"
)

// TestAllWorkloadsAllModes is the backbone integration test: every Rodinia
// workload must produce golden-identical memory and instruction counts under
// every run mode. Short mode covers a representative subset.
func TestAllWorkloadsAllModes(t *testing.T) {
	ws := workloads.All()
	if testing.Short() {
		ws = ws[:4]
	}
	modes := []Mode{ModeBaseline, ModeMappingOnly, ModeAccelNoSpec, ModeAccel}
	for _, w := range ws {
		w := w
		t.Run(w.Abbrev, func(t *testing.T) {
			golden := w.GoldenMemory()
			gold := interp.New(w.NewMemory())
			if err := gold.Run(w.Prog, w.MaxInsts); err != nil {
				t.Fatal(err)
			}
			for _, mode := range modes {
				m := w.NewMemory()
				params := DefaultParams()
				params.Mode = mode
				sys := New(params, w.Prog, m)
				if err := sys.Run(); err != nil {
					t.Fatalf("%v: %v", mode, err)
				}
				if err := sys.Verify(); err != nil {
					t.Fatalf("%v: %v", mode, err)
				}
				if eq, diff := golden.Equal(m); !eq {
					t.Fatalf("%v: memory mismatch: %s", mode, diff)
				}
				if got := sys.CPU().Stats().Committed; got != gold.DynInsts {
					t.Fatalf("%v: committed %d, interp %d", mode, got, gold.DynInsts)
				}
			}
		})
	}
}

// TestMultiFabricCorrectness ensures the LRU multi-fabric manager does not
// change architectural results, only reconfiguration behaviour.
func TestMultiFabricCorrectness(t *testing.T) {
	w, err := workloads.ByAbbrev("KM")
	if err != nil {
		t.Fatal(err)
	}
	golden := w.GoldenMemory()
	var reconfigs []uint64
	for _, nf := range []int{1, 2, 4} {
		m := w.NewMemory()
		params := DefaultParams()
		params.NumFabrics = nf
		sys := New(params, w.Prog, m)
		if err := sys.Run(); err != nil {
			t.Fatalf("fabrics=%d: %v", nf, err)
		}
		if eq, diff := golden.Equal(m); !eq {
			t.Fatalf("fabrics=%d: %s", nf, diff)
		}
		reconfigs = append(reconfigs, sys.Fabrics().Reconfigurations())
	}
	// More fabrics must not increase reconfigurations.
	if reconfigs[2] > reconfigs[0] {
		t.Errorf("reconfigs grew with fabrics: %v", reconfigs)
	}
}

// TestConservativeVsSpeculativeOrdering: conservative mode may never be
// faster than speculation beyond noise, and both match golden memory.
func TestConservativeVsSpeculativeOrdering(t *testing.T) {
	w, err := workloads.ByAbbrev("NW")
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode Mode) uint64 {
		m := w.NewMemory()
		params := DefaultParams()
		params.Mode = mode
		sys := New(params, w.Prog, m)
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return sys.CPU().Stats().Cycles
	}
	spec := run(ModeAccel)
	cons := run(ModeAccelNoSpec)
	if spec > cons+cons/10 {
		t.Errorf("speculation (%d cycles) slower than conservative (%d)", spec, cons)
	}
}

func TestWalkTraceTrimsToBranchBoundary(t *testing.T) {
	w, err := workloads.ByAbbrev("NW")
	if err != nil {
		t.Fatal(err)
	}
	m := w.NewMemory()
	sys := New(DefaultParams(), w.Prog, m)
	// Train the predictor to follow every backedge (mid-loop state), then
	// inspect walks from every branch anchor.
	trainTaken(sys, w.Prog)
	checked := 0
	for pc := 0; pc < w.Prog.Len(); pc++ {
		if !w.Prog.At(pc).Op.IsBranch() {
			continue
		}
		trace, _, exitPC, ok := sys.walkTrace(pc)
		if !ok {
			continue
		}
		checked++
		if len(trace) > sys.params.TraceLen {
			t.Errorf("pc %d: trace length %d exceeds cap", pc, len(trace))
		}
		// A trimmed trace must exit onto a branch (the next anchor)
		// whenever the body was long enough to trim.
		if len(trace) > 8 && w.Prog.Valid(exitPC) && !w.Prog.At(exitPC).Op.IsBranch() {
			// Only acceptable when no internal branch exists past
			// index 8 to cut at.
			hasCut := false
			for i := 8; i < len(trace); i++ {
				if trace[i].Inst.Op.IsBranch() {
					hasCut = true
				}
			}
			if hasCut {
				t.Errorf("pc %d: misaligned exit %d with available cut", pc, exitPC)
			}
		}
	}
	if checked == 0 {
		t.Error("no walks checked")
	}
}

// TestDisableFilterConvergesHostileTrace: a loop around a coin-flip branch
// must not run materially slower under DynaSpAM than baseline, because the
// instability filter retires its traces.
func TestDisableFilterConvergesHostileTrace(t *testing.T) {
	w, err := workloads.ByAbbrev("BT") // data-dependent descent
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode Mode) uint64 {
		m := w.NewMemory()
		params := DefaultParams()
		params.Mode = mode
		sys := New(params, w.Prog, m)
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return sys.CPU().Stats().Cycles
	}
	base := run(ModeBaseline)
	accel := run(ModeAccel)
	if float64(accel) > 1.25*float64(base) {
		t.Errorf("hostile workload: accel %d cycles vs baseline %d (>25%% slowdown)", accel, base)
	}
}
