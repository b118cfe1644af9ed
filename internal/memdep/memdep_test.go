package memdep

import (
	"testing"
	"testing/quick"
)

func newTest() *Predictor {
	return New(Config{SSITEntries: 256, NumSets: 16})
}

// hasSet reports whether the instruction at pc currently belongs to a store
// set (i.e. the predictor believes it participates in a memory dependence).
func (p *Predictor) hasSet(pc uint64) bool {
	return p.ssit[p.idx(pc)] != InvalidTag
}

func TestUntrainedLoadsRunFree(t *testing.T) {
	p := newTest()
	if tag := p.CheckLoad(100); tag != InvalidTag {
		t.Errorf("untrained CheckLoad = %d, want InvalidTag", tag)
	}
	if tag := p.CheckStore(104, 1); tag != InvalidTag {
		t.Errorf("untrained CheckStore = %d, want InvalidTag", tag)
	}
}

func TestViolationCreatesDependence(t *testing.T) {
	p := newTest()
	loadPC, storePC := uint64(100), uint64(104)
	p.Violation(loadPC, storePC)
	if !p.hasSet(loadPC) || !p.hasSet(storePC) {
		t.Fatal("violation did not assign store sets")
	}
	// Next encounter: store registers, load must wait for it.
	if prev := p.CheckStore(storePC, 42); prev != InvalidTag {
		t.Errorf("first store got prev %d, want InvalidTag", prev)
	}
	if tag := p.CheckLoad(loadPC); tag != 42 {
		t.Errorf("CheckLoad = %d, want 42", tag)
	}
	// After the store retires, the load runs free again.
	p.StoreRetired(storePC, 42)
	if tag := p.CheckLoad(loadPC); tag != InvalidTag {
		t.Errorf("CheckLoad after retire = %d, want InvalidTag", tag)
	}
}

func TestStoreSerialization(t *testing.T) {
	p := newTest()
	p.Violation(100, 104)
	p.Violation(100, 108) // 108 joins the same set as 100/104
	if prev := p.CheckStore(104, 1); prev != InvalidTag {
		t.Errorf("store1 prev = %d", prev)
	}
	if prev := p.CheckStore(108, 2); prev != 1 {
		t.Errorf("store2 prev = %d, want 1 (serialized with store1)", prev)
	}
}

func TestMergeRule(t *testing.T) {
	p := newTest()
	p.Violation(1, 2) // set A for {1,2}
	p.Violation(3, 4) // set B for {3,4}
	p.Violation(1, 4) // merge
	// After merging, a store at 4 must block a load at 1.
	p.CheckStore(4, 9)
	if tag := p.CheckLoad(1); tag != 9 {
		t.Errorf("merged CheckLoad = %d, want 9", tag)
	}
}

func TestStoreRetiredOnlyClearsOwnTag(t *testing.T) {
	p := newTest()
	p.Violation(100, 104)
	p.CheckStore(104, 1)
	p.CheckStore(104, 2) // newer store supersedes
	p.StoreRetired(104, 1)
	if tag := p.CheckLoad(100); tag != 2 {
		t.Errorf("CheckLoad = %d, want 2 (tag 1 retire must not clear tag 2)", tag)
	}
}

func TestFlushClearsInFlightOnly(t *testing.T) {
	p := newTest()
	p.Violation(100, 104)
	p.CheckStore(104, 7)
	p.Flush()
	if tag := p.CheckLoad(100); tag != InvalidTag {
		t.Errorf("CheckLoad after Flush = %d, want InvalidTag", tag)
	}
	if !p.hasSet(100) {
		t.Error("Flush erased SSIT training")
	}
}

func TestCyclicClearing(t *testing.T) {
	p := New(Config{SSITEntries: 256, NumSets: 16, CyclicClearInterval: 3})
	p.Violation(100, 104) // tick 1
	p.Violation(200, 204) // tick 2
	p.Violation(300, 304) // tick 3 -> clear
	if p.hasSet(100) || p.hasSet(300) {
		t.Error("cyclic clear did not wipe SSIT")
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{SSITEntries: 0, NumSets: 4},
		{SSITEntries: 100, NumSets: 4},
		{SSITEntries: 256, NumSets: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// Property: after Violation(l, s), a store registered at s always blocks a
// load at l until retired, for arbitrary PCs and tags.
func TestViolationThenBlockProperty(t *testing.T) {
	f := func(l, s uint16, tag uint8) bool {
		if l == s {
			return true // same PC aliases one SSIT entry; skip
		}
		p := newTest()
		p.Violation(uint64(l), uint64(s))
		p.CheckStore(uint64(s), int(tag))
		if p.CheckLoad(uint64(l)) != int(tag) {
			return false
		}
		p.StoreRetired(uint64(s), int(tag))
		return p.CheckLoad(uint64(l)) == InvalidTag
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: loads at PCs that never violated are never stalled.
func TestInnocentLoadsProperty(t *testing.T) {
	p := newTest()
	p.Violation(1, 2)
	p.CheckStore(2, 5)
	f := func(pc uint16) bool {
		u := uint64(pc)
		if p.idx(u) == p.idx(1) || p.idx(u) == p.idx(2) {
			return true // aliases trained entries
		}
		return p.CheckLoad(u) == InvalidTag
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
