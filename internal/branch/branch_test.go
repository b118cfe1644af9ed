package branch

import (
	"testing"
	"testing/quick"
)

func newTest() *Predictor {
	return New(Config{HistoryBits: 8, BTBEntries: 64, RASEntries: 4})
}

func TestLearnsAlwaysTaken(t *testing.T) {
	p := newTest()
	pc := uint64(100)
	// Train past history warm-up: after 8 taken outcomes the 8-bit gshare
	// history saturates at all-ones, so later updates and the final lookup
	// index the same counter.
	for i := 0; i < 20; i++ {
		h := p.History()
		pred := p.PredictDirection(pc)
		p.SpeculateHistory(true)
		p.Update(pc, h, true, 7, pred != true)
	}
	if !p.PredictDirection(pc) {
		t.Error("predictor failed to learn always-taken branch")
	}
	tgt, ok := p.PredictTarget(pc)
	if !ok || tgt != 7 {
		t.Errorf("BTB = (%d,%v), want (7,true)", tgt, ok)
	}
}

func TestLearnsAlternatingWithHistory(t *testing.T) {
	p := newTest()
	pc := uint64(200)
	// Train T,N,T,N...: gshare with history should learn this perfectly.
	taken := false
	misses := 0
	for i := 0; i < 200; i++ {
		taken = !taken
		h := p.History()
		pred := p.PredictDirection(pc)
		if pred != taken && i > 50 {
			misses++
		}
		p.SpeculateHistory(pred)
		if pred != taken {
			// Recover: real pipelines restore history on mispredict.
			p.Restore(h)
			p.SpeculateHistory(taken)
		}
		p.Update(pc, h, taken, 1, pred != taken)
	}
	if misses > 5 {
		t.Errorf("alternating pattern: %d late mispredicts, want <=5", misses)
	}
}

func TestSaturatingCounters(t *testing.T) {
	p := newTest()
	pc := uint64(4)
	h := p.History()
	for i := 0; i < 100; i++ {
		p.Update(pc, h, true, 1, false)
	}
	// One not-taken must not flip a saturated counter.
	p.Update(pc, h, false, 1, false)
	if !p.PredictDirection(pc) {
		t.Error("single not-taken flipped saturated taken counter")
	}
}

func TestBTBAliasing(t *testing.T) {
	p := newTest() // 64 entries
	p.UpdateBTB(1, 10)
	p.UpdateBTB(65, 20) // aliases entry 1
	if _, ok := p.PredictTarget(1); ok {
		t.Error("aliased BTB entry still matched old pc")
	}
	tgt, ok := p.PredictTarget(65)
	if !ok || tgt != 20 {
		t.Errorf("PredictTarget(65) = (%d,%v), want (20,true)", tgt, ok)
	}
}

func TestHistoryCheckpointRestore(t *testing.T) {
	p := newTest()
	p.SpeculateHistory(true)
	p.SpeculateHistory(false)
	cp := p.History()
	p.SpeculateHistory(true)
	p.SpeculateHistory(true)
	p.Restore(cp)
	if p.History() != cp {
		t.Error("Restore did not rewind history")
	}
}

func TestRAS(t *testing.T) {
	p := newTest() // 4 entries
	if _, ok := p.Pop(); ok {
		t.Error("Pop on empty RAS succeeded")
	}
	p.Push(10)
	p.Push(20)
	if a, ok := p.Pop(); !ok || a != 20 {
		t.Errorf("Pop = (%d,%v), want (20,true)", a, ok)
	}
	if a, ok := p.Pop(); !ok || a != 10 {
		t.Errorf("Pop = (%d,%v), want (10,true)", a, ok)
	}
}

func TestStats(t *testing.T) {
	p := newTest()
	h := p.History()
	p.Update(1, h, true, 2, true)
	p.Update(1, h, true, 2, false)
	p.NoteBTBMiss()
	s := p.Stats()
	if s.Lookups != 2 || s.Mispredicts != 1 || s.BTBMisses != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.Accuracy() != 0.5 {
		t.Errorf("Accuracy = %v, want 0.5", s.Accuracy())
	}
	p.ResetStats()
	if p.Stats().Lookups != 0 {
		t.Error("ResetStats left counters")
	}
	if (Stats{}).Accuracy() != 0 {
		t.Error("empty Accuracy != 0")
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{HistoryBits: 0, BTBEntries: 64, RASEntries: 4},
		{HistoryBits: 30, BTBEntries: 64, RASEntries: 4},
		{HistoryBits: 8, BTBEntries: 63, RASEntries: 4},
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

func TestTraceHistoryShift(t *testing.T) {
	var h TraceHistory
	h = h.Shift(true)  // 001
	h = h.Shift(false) // 010
	h = h.Shift(true)  // 101
	if h != 0b101 {
		t.Errorf("history = %03b, want 101", h)
	}
	if !h.Bit(0) || h.Bit(1) || !h.Bit(2) {
		t.Errorf("bits wrong for %03b", h)
	}
	// Only 3 bits retained.
	h = h.Shift(true).Shift(true).Shift(true).Shift(true)
	if h != 0b111 {
		t.Errorf("history overflowed: %b", h)
	}
}

// Property: TraceHistory.Shift keeps the value within 3 bits and the newest
// outcome is always Bit(0).
func TestTraceHistoryProperty(t *testing.T) {
	f := func(seed uint8, outcome bool) bool {
		h := TraceHistory(seed % 8)
		n := h.Shift(outcome)
		return n < 8 && n.Bit(0) == outcome
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: prediction is deterministic — two lookups with no intervening
// updates agree.
func TestPredictionDeterminismProperty(t *testing.T) {
	p := newTest()
	f := func(pc uint64) bool {
		return p.PredictDirection(pc) == p.PredictDirection(pc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.BTBEntries != 4096 || cfg.RASEntries != 16 {
		t.Errorf("DefaultConfig = %+v, want 4K BTB, 16 RAS", cfg)
	}
	New(cfg) // must not panic
}

// TestTrailingOnesMatchesLoop pins trailingOnes against the bit-by-bit
// loop it replaced, saturation at 63 included: zero, all ones, every
// 2^k-1 (k = 0..64), and each of those with a one set just above the
// zero that ends the run.
func TestTrailingOnesMatchesLoop(t *testing.T) {
	loop := func(h uint64) uint8 {
		n := uint8(0)
		for h&1 == 1 && n < 63 {
			n++
			h >>= 1
		}
		return n
	}
	hs := []uint64{0, ^uint64(0)}
	for k := 0; k <= 64; k++ {
		ones := uint64(1)<<k - 1 // k = 64 wraps to all ones
		hs = append(hs, ones, ones|uint64(1)<<(k+1))
	}
	for _, h := range hs {
		if got, want := trailingOnes(h), loop(h); got != want {
			t.Errorf("trailingOnes(%#x) = %d, want %d", h, got, want)
		}
	}
}
