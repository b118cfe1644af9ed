package workloads

import (
	"testing"

	"dynaspam/internal/interp"
)

// TestExtendedGoldenVsInterp proves the new kernels and scaled variants
// compute exactly what their golden references define. The ×1000 BFS is the
// production-sized target (tens of millions of instructions) and only runs
// outside -short.
func TestExtendedGoldenVsInterp(t *testing.T) {
	ws := []*Workload{SPMV(), SC(), BFSScaled(100), SPMVScaled(100), SCScaled(100)}
	if !testing.Short() {
		ws = append(ws, BFSScaled(1000))
	}
	for _, w := range ws {
		w := w
		t.Run(w.Abbrev, func(t *testing.T) {
			golden := w.GoldenMemory()
			m := w.NewMemory()
			s := interp.New(m)
			if err := s.Run(w.Prog, w.MaxInsts); err != nil {
				t.Fatalf("interp: %v", err)
			}
			if eq, diff := golden.Equal(m); !eq {
				t.Fatalf("memory mismatch: %s", diff)
			}
			t.Logf("%s: %d dynamic instructions", w.Abbrev, s.DynInsts)
		})
	}
}

// TestExtendedRegistry: the extended set resolves by abbreviation, keeps the
// paper's eleven as its prefix, and has no duplicate codes.
func TestExtendedRegistry(t *testing.T) {
	ext := Extended()
	all := All()
	if len(ext) <= len(all) {
		t.Fatalf("Extended() = %d workloads, want more than All()'s %d", len(ext), len(all))
	}
	for i, w := range all {
		if ext[i].Abbrev != w.Abbrev {
			t.Fatalf("Extended()[%d] = %s, want All() prefix %s", i, ext[i].Abbrev, w.Abbrev)
		}
	}
	seen := map[string]bool{}
	for _, w := range ext {
		if seen[w.Abbrev] {
			t.Errorf("duplicate abbrev %s", w.Abbrev)
		}
		seen[w.Abbrev] = true
		got, err := ByAbbrev(w.Abbrev)
		if err != nil {
			t.Errorf("ByAbbrev(%s): %v", w.Abbrev, err)
		} else if got.Abbrev != w.Abbrev {
			t.Errorf("ByAbbrev(%s) returned %s", w.Abbrev, got.Abbrev)
		}
	}
}

// TestByAbbrevBuildsOneWorkload: once the process has indexed the
// abbreviations, a lookup builds only the workload it names, so it
// allocates a small share of what building the whole extended set does.
// Every call still returns a workload of its own, which a caller may
// change without touching another's.
func TestByAbbrevBuildsOneWorkload(t *testing.T) {
	lookup := testing.AllocsPerRun(10, func() {
		if _, err := ByAbbrev("BP"); err != nil {
			t.Fatal(err)
		}
	})
	all := testing.AllocsPerRun(10, func() { Extended() })
	if lookup*4 >= all {
		t.Errorf("ByAbbrev(BP) makes %.0f allocations, want under a quarter of Extended()'s %.0f", lookup, all)
	}
	a, _ := ByAbbrev("BP")
	b, _ := ByAbbrev("BP")
	if a == b || a.Prog == b.Prog {
		t.Error("two ByAbbrev calls share a workload")
	}
}

// TestScaledVariantsScale: scaling must grow the dynamic instruction count
// by roughly the scale factor — otherwise "production-sized" is a lie.
func TestScaledVariantsScale(t *testing.T) {
	insts := func(w *Workload) uint64 {
		m := w.NewMemory()
		s := interp.New(m)
		if err := s.Run(w.Prog, w.MaxInsts); err != nil {
			t.Fatalf("%s: %v", w.Abbrev, err)
		}
		return s.DynInsts
	}
	for _, pair := range [][2]*Workload{
		{BFS(), BFSScaled(100)},
		{SPMV(), SPMVScaled(100)},
		{SC(), SCScaled(100)},
	} {
		base, big := insts(pair[0]), insts(pair[1])
		if big < 50*base {
			t.Errorf("%s: %d insts vs base %d — scaling too weak", pair[1].Abbrev, big, base)
		}
	}
}
