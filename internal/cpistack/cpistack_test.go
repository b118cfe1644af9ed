package cpistack

import "testing"

func TestCauseNamesTotalAndOrder(t *testing.T) {
	seen := map[string]bool{}
	for i, c := range Causes() {
		if int(c) != i {
			t.Fatalf("Causes()[%d] = %v, want ordinal order", i, c)
		}
		name := c.String()
		if name == "" || name == "unknown" {
			t.Errorf("cause %d has no name", i)
		}
		if seen[name] {
			t.Errorf("duplicate cause name %q", name)
		}
		seen[name] = true
	}
	if Cause(NumCauses).String() != "unknown" {
		t.Error("out-of-range cause should render as unknown")
	}
	if CauseBase.String() != "base" || CauseEstimated.String() != "estimated" {
		t.Error("taxonomy endpoints renamed; exporters key on these strings")
	}
}

func TestStackAccounting(t *testing.T) {
	var s Stack
	if s.Total() != 0 || s.Share(CauseBase) != 0 {
		t.Error("zero stack should be empty with zero shares")
	}
	s.Buckets[CauseBase] += 3
	s.Buckets[CauseMemory]++
	if s.Get(CauseBase) != 3 || s.Total() != 4 {
		t.Errorf("Get/Total broken: %+v", s)
	}
	if got := s.Share(CauseBase); got != 0.75 {
		t.Errorf("Share(base) = %v, want 0.75", got)
	}
	var o Stack
	o.Buckets[CauseMemory] += 2
	s.AddStack(&o)
	if s.Get(CauseMemory) != 3 || s.Total() != 6 {
		t.Errorf("AddStack broken: %+v", s)
	}
}
