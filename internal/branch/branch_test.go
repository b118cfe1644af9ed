package branch

import (
	"testing"
	"testing/quick"
)

func newTest() *Predictor {
	return New(Config{HistoryBits: 8})
}

func TestLearnsAlwaysTaken(t *testing.T) {
	p := newTest()
	pc := uint64(100)
	// Train past history warm-up: after 8 taken outcomes the 8-bit gshare
	// history saturates at all-ones, so later updates and the final lookup
	// index the same counter.
	for i := 0; i < 20; i++ {
		h := p.History()
		p.SpeculateHistory(true)
		p.Update(pc, h, true)
	}
	if !p.PredictDirection(pc) {
		t.Error("predictor failed to learn always-taken branch")
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
		p.Update(pc, h, taken)
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
		p.Update(pc, h, true)
	}
	// One not-taken must not flip a saturated counter.
	p.Update(pc, h, false)
	if !p.PredictDirection(pc) {
		t.Error("single not-taken flipped saturated taken counter")
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

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{HistoryBits: 0},
		{HistoryBits: 30},
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
	if cfg.HistoryBits != 18 {
		t.Errorf("DefaultConfig = %+v, want 18 history bits", cfg)
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
