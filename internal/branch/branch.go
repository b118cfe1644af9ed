// Package branch implements the host pipeline's control-flow prediction
// units: a gshare direction predictor, a 4K-entry branch target buffer, and a
// 16-entry return-address stack (Table 4 of the paper).
//
// The same predictor state is consulted by the fetch stage for next-PC
// selection and by the DynaSpAM front end to look ahead across the next three
// branches when probing the T-Cache (§3.1).
package branch

import "math/bits"

// Predictor is the combined direction + target prediction unit.
//
// Alongside gshare it carries a loop-exit predictor: counted loops with trip
// counts beyond the gshare history length exit at a point gshare can never
// see. The unit learns, per branch, the number of consecutive taken outcomes
// (trailing one-bits of the global history, which fetch already speculates
// and squashes restore) at which the branch resolved not-taken; once
// confident, it overrides gshare exactly at that signature. Because the
// signature derives from the checkpointed history register, the loop
// predictor needs no speculative state of its own.
type Predictor struct {
	historyBits int
	history     uint64
	counters    []uint8 // 2-bit saturating, indexed by gshare hash
	btb         []btbEntry
	btbMask     uint64

	loops    []loopEnt
	loopMask uint64

	ras    []int
	rasTop int

	stats Stats
}

// loopEnt is one loop-exit predictor entry.
type loopEnt struct {
	valid bool
	sig   uint8 // trailing-ones signature at the not-taken resolution
	conf  uint8
}

const loopConfMax = 3

// trailingOnes counts consecutive taken outcomes at the young end of the
// history register, saturating at 63.
func trailingOnes(h uint64) uint8 {
	return uint8(min(bits.TrailingZeros64(^h), 63))
}

type btbEntry struct {
	valid  bool
	pc     uint64
	target int
}

// Stats counts prediction outcomes.
type Stats struct {
	Lookups     uint64
	Mispredicts uint64
	BTBMisses   uint64
}

// Accuracy returns the fraction of correct direction predictions.
func (s Stats) Accuracy() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return 1 - float64(s.Mispredicts)/float64(s.Lookups)
}

// Config sets the predictor geometry.
type Config struct {
	HistoryBits int // gshare history length; table is 2^HistoryBits counters
	BTBEntries  int // power of two
	RASEntries  int
}

// DefaultConfig matches Table 4: 4K-entry BTB, 16-entry return stack. The
// gshare history length (18 bits) approximates the long-history direction
// predictors of modern high-end cores, which capture moderate loop trip
// counts exactly.
func DefaultConfig() Config {
	return Config{HistoryBits: 18, BTBEntries: 4096, RASEntries: 16}
}

// New returns a predictor with all counters weakly not-taken.
func New(cfg Config) *Predictor {
	if cfg.HistoryBits <= 0 || cfg.HistoryBits > 24 {
		panic("branch: bad history bits")
	}
	if cfg.BTBEntries <= 0 || cfg.BTBEntries&(cfg.BTBEntries-1) != 0 {
		panic("branch: BTB entries must be a power of two")
	}
	const loopEntries = 1024
	return &Predictor{
		historyBits: cfg.HistoryBits,
		counters:    make([]uint8, 1<<cfg.HistoryBits),
		btb:         make([]btbEntry, cfg.BTBEntries),
		btbMask:     uint64(cfg.BTBEntries - 1),
		loops:       make([]loopEnt, loopEntries),
		loopMask:    loopEntries - 1,
		ras:         make([]int, cfg.RASEntries),
	}
}

func (p *Predictor) index(pc uint64) uint64 {
	mask := uint64(1)<<p.historyBits - 1
	return (pc ^ p.history) & mask
}

// PredictDirection returns the predicted direction for the conditional
// branch at pc without modifying any state.
func (p *Predictor) PredictDirection(pc uint64) bool {
	if e := &p.loops[pc&p.loopMask]; e.valid && e.conf >= 2 && trailingOnes(p.history) == e.sig {
		return false // confident loop exit
	}
	return p.counters[p.index(pc)] >= 2
}

// PredictTarget returns the BTB's target for the branch at pc and whether
// the BTB has an entry.
func (p *Predictor) PredictTarget(pc uint64) (int, bool) {
	e := p.btb[pc&p.btbMask]
	if e.valid && e.pc == pc {
		return e.target, true
	}
	return 0, false
}

// SpeculateHistory shifts a predicted outcome into the global history. Fetch
// calls this immediately after predicting so that back-to-back predictions in
// the same lookahead use updated history; Restore undoes it on squash.
func (p *Predictor) SpeculateHistory(taken bool) {
	p.history <<= 1
	if taken {
		p.history |= 1
	}
}

// History returns the current global history register (for checkpointing).
func (p *Predictor) History() uint64 { return p.history }

// Restore rewinds the global history to a checkpoint taken with History.
func (p *Predictor) Restore(h uint64) { p.history = h }

// Update trains the predictor with the resolved outcome of the conditional
// branch at pc. histAtPredict must be the history value that was current when
// the prediction was made, so training aliases the same counter.
func (p *Predictor) Update(pc uint64, histAtPredict uint64, taken bool, target int, mispredicted bool) {
	mask := uint64(1)<<p.historyBits - 1
	idx := (pc ^ histAtPredict) & mask
	c := p.counters[idx]
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	p.counters[idx] = c
	// Loop-exit training against the history basis the prediction used.
	le := &p.loops[pc&p.loopMask]
	sig := trailingOnes(histAtPredict)
	if !taken {
		if le.valid && le.sig == sig {
			if le.conf < loopConfMax {
				le.conf++
			}
		} else {
			*le = loopEnt{valid: true, sig: sig}
		}
	} else if le.valid && le.sig == sig && le.conf > 0 {
		// The loop rule would have predicted an exit here; weaken it.
		le.conf--
	}
	if taken {
		p.btb[pc&p.btbMask] = btbEntry{valid: true, pc: pc, target: target}
	}
	p.stats.Lookups++
	if mispredicted {
		p.stats.Mispredicts++
	}
}

// UpdateBTB installs a target without training direction (used for
// unconditional jumps).
func (p *Predictor) UpdateBTB(pc uint64, target int) {
	p.btb[pc&p.btbMask] = btbEntry{valid: true, pc: pc, target: target}
}

// NoteBTBMiss counts a fetch that found no BTB entry for a taken branch.
func (p *Predictor) NoteBTBMiss() { p.stats.BTBMisses++ }

// Push records a return address on the RAS.
func (p *Predictor) Push(addr int) {
	p.ras[p.rasTop%len(p.ras)] = addr
	p.rasTop++
}

// Pop predicts a return address from the RAS. ok is false when the stack is
// empty.
func (p *Predictor) Pop() (addr int, ok bool) {
	if p.rasTop == 0 {
		return 0, false
	}
	p.rasTop--
	return p.ras[p.rasTop%len(p.ras)], true
}

// Stats returns a copy of the counters.
func (p *Predictor) Stats() Stats { return p.stats }

// ResetStats clears the counters without losing trained state.
func (p *Predictor) ResetStats() { p.stats = Stats{} }

// TraceHistory is the T-Cache's 3-bit branch-outcome history register
// (§3.1, footnote 1). It records the directions of the last three committed
// (or, on the fetch side, predicted) branches.
type TraceHistory uint8

// TraceHistoryLen is the number of branch outcomes tracked.
const TraceHistoryLen = 3

// Shift returns the history with outcome shifted in as the newest bit.
func (h TraceHistory) Shift(taken bool) TraceHistory {
	h = (h << 1) & ((1 << TraceHistoryLen) - 1)
	if taken {
		h |= 1
	}
	return h
}

// Bit returns outcome i, where 0 is the most recent.
func (h TraceHistory) Bit(i int) bool { return h>>uint(i)&1 == 1 }
