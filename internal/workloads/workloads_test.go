package workloads

import (
	"testing"

	"dynaspam/internal/interp"
	"dynaspam/internal/isa"
)

// TestGoldenVsInterp proves each kernel's ISA implementation computes
// exactly the algorithm its golden reference defines.
func TestGoldenVsInterp(t *testing.T) {
	for _, w := range All() {
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

// TestProgramValidateAllocsZero: validating a valid program allocates
// nothing. Every workload lookup builds and validates its program, so
// formatting on the success path would tax each spec resolution.
func TestProgramValidateAllocsZero(t *testing.T) {
	for _, w := range Extended() {
		if avg := testing.AllocsPerRun(10, func() {
			if err := w.Prog.Validate(); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s: Validate allocates %.0f times per call, want 0", w.Abbrev, avg)
		}
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 11 {
		t.Fatalf("All() = %d workloads, want 11", len(all))
	}
	seen := map[string]bool{}
	for _, w := range all {
		if w.Name == "" || w.Abbrev == "" || w.Domain == "" || w.Prog == nil || w.Golden == nil {
			t.Errorf("%+v: incomplete workload", w.Abbrev)
		}
		if seen[w.Abbrev] {
			t.Errorf("duplicate abbrev %s", w.Abbrev)
		}
		seen[w.Abbrev] = true
		if _, err := ByAbbrev(w.Abbrev); err != nil {
			t.Errorf("ByAbbrev(%s): %v", w.Abbrev, err)
		}
	}
	if _, err := ByAbbrev("NOPE"); err == nil {
		t.Error("ByAbbrev accepted unknown name")
	}
}

func TestWorkloadsHaveEnoughWork(t *testing.T) {
	// Trace detection needs repeated 3-branch windows; every kernel must
	// execute at least a few thousand dynamic instructions and branches.
	for _, w := range All() {
		s := interp.New(w.NewMemory())
		var branches branchCount
		if n, err := s.Exec(w.Prog, w.MaxInsts, &branches); err != nil || n == w.MaxInsts {
			t.Fatalf("%s: %d instructions, no halt within budget %d (err %v)", w.Abbrev, n, w.MaxInsts, err)
		}
		if s.DynInsts < 2000 {
			t.Errorf("%s: only %d dynamic instructions", w.Abbrev, s.DynInsts)
		}
		if branches < 200 {
			t.Errorf("%s: only %d dynamic branches", w.Abbrev, branches)
		}
	}
}

// branchCount is an interp.Observer that counts executed branches and jmps.
type branchCount int

func (c *branchCount) Branch(int, isa.Op, bool, int) { *c++ }
func (c *branchCount) Access(uint64, bool)           {}

func TestLCGDeterminism(t *testing.T) {
	a, b := newLCG(7), newLCG(7)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("lcg not deterministic")
		}
	}
	c := newLCG(7)
	for i := 0; i < 1000; i++ {
		if v := c.intn(10); v < 0 || v >= 10 {
			t.Fatalf("intn out of range: %d", v)
		}
		if f := c.float01(); f < 0 || f >= 1 {
			t.Fatalf("float01 out of range: %v", f)
		}
	}
}

func TestInitIsReproducible(t *testing.T) {
	for _, w := range All() {
		m1, m2 := w.NewMemory(), w.NewMemory()
		if eq, diff := m1.Equal(m2); !eq {
			t.Errorf("%s: Init not deterministic: %s", w.Abbrev, diff)
		}
	}
}
