// Package branch implements the host pipeline's direction predictor: gshare
// plus a loop-exit override.
//
// The same predictor state is consulted by the fetch stage for next-PC
// selection and by the DynaSpAM front end to look ahead across the next three
// branches when probing the T-Cache (§3.1). Table 4's 4K-entry branch target
// buffer and 16-entry return-address stack are not modelled: every branch
// target is an absolute instruction index that fetch decodes, and the ISA
// has no call or return, so neither structure could change a cycle.
package branch

import "math/bits"

// Predictor is the direction prediction unit.
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

	loops    []loopEnt
	loopMask uint64
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

// Config sets the predictor geometry.
type Config struct {
	HistoryBits int // gshare history length; table is 2^HistoryBits counters
}

// DefaultConfig's gshare history length (18 bits) approximates the
// long-history direction predictors of modern high-end cores, which capture
// moderate loop trip counts exactly.
func DefaultConfig() Config {
	return Config{HistoryBits: 18}
}

// New returns a predictor with all counters weakly not-taken.
func New(cfg Config) *Predictor {
	if cfg.HistoryBits <= 0 || cfg.HistoryBits > 24 {
		panic("branch: bad history bits")
	}
	const loopEntries = 1024
	return &Predictor{
		historyBits: cfg.HistoryBits,
		counters:    make([]uint8, 1<<cfg.HistoryBits),
		loops:       make([]loopEnt, loopEntries),
		loopMask:    loopEntries - 1,
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
func (p *Predictor) Update(pc uint64, histAtPredict uint64, taken bool) {
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
}
