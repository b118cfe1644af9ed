package mapper

import (
	"dynaspam/internal/fabric"
	"dynaspam/internal/isa"
	"dynaspam/internal/ooo"
)

// SessionState is the lifecycle of a mapping session.
type SessionState int

const (
	// SessionActive: trace instructions are flowing and being mapped.
	SessionActive SessionState = iota
	// SessionDone: the configuration was produced successfully.
	SessionDone
	// SessionFailed: the mapping failed or aborted.
	SessionFailed
)

// Session maps one trace while it executes on the host pipeline. The
// DynaSpAM framework wires the Session into the pipeline's hooks:
//
//	NoteFetched    ← Hooks.OnFetch (associates sequence numbers with trace
//	                 positions and detects fetch divergence)
//	GateDispatch   ← Hooks.DispatchGate (drains the back end before the
//	                 first trace instruction; holds post-trace instructions)
//	BeginIssue     ← called once per cycle before selection (advances the
//	                 scheduling frontier when the current stripe is stuck)
//	Select         ← Hooks.SelectOverride (Algorithm 1's priority pick)
//	NoteIssued     ← Hooks.OnIssue (Algorithm 3's table updates)
//	NoteWriteback  ← Hooks.OnWriteback (finishes the session after the last
//	                 trace instruction completes)
//	Abort          ← Hooks.OnSquash
type Session struct {
	geom    fabric.Geometry
	trace   []TraceInst
	startPC int
	exitPC  int

	t *tables

	// Sequence-number bookkeeping. The host fetches the trace region as
	// one consecutive run (fetch diverging from the trace path aborts the
	// session), so trace index = seq - firstSeq: no per-seq map is needed.
	nextIdx  int // next trace position expected at fetch
	firstSeq uint64
	haveSeq  bool

	// Scheduling frontier.
	stripe         int
	placedInCycle  bool
	blockedInCycle bool
	placedCount    int
	wbCount        int

	// Placement results.
	placedPE  []int
	placedOps [][2]operandView
	rawOps    [][2]fabric.Operand

	state  SessionState
	reason FailReason
	cfg    *fabric.Config
}

// NewSession starts a mapping session for trace (captured on the predicted
// path starting at startPC, exiting to exitPC).
func NewSession(trace []TraceInst, g fabric.Geometry, startPC, exitPC int) *Session {
	g.Validate()
	if len(trace) == 0 {
		panic("mapper: empty trace")
	}
	return &Session{
		geom:      g,
		trace:     trace,
		startPC:   startPC,
		exitPC:    exitPC,
		t:         newTables(g, len(trace)),
		placedPE:  make([]int, len(trace)),
		placedOps: make([][2]operandView, len(trace)),
		rawOps:    make([][2]fabric.Operand, len(trace)),
	}
}

// State returns the session's lifecycle state.
func (s *Session) State() SessionState { return s.state }

// FailReason returns why the session failed (FailNone otherwise).
func (s *Session) FailReason() FailReason { return s.reason }

// Config returns the produced configuration once State is SessionDone.
func (s *Session) Config() *fabric.Config { return s.cfg }

// Len returns the trace length.
func (s *Session) Len() int { return len(s.trace) }

// NoteFetched observes a fetched (pc, seq). It returns false when fetch
// diverged from the expected trace path, which aborts the session.
func (s *Session) NoteFetched(pc int, seq uint64) bool {
	if s.state != SessionActive {
		return false
	}
	if s.nextIdx >= len(s.trace) {
		return true // post-trace instruction: not ours, fine
	}
	if s.trace[s.nextIdx].PC != pc {
		s.fail(FailAborted)
		return false
	}
	if s.nextIdx == 0 {
		s.firstSeq = seq
		s.haveSeq = true
	} else if seq != s.firstSeq+uint64(s.nextIdx) {
		// Defends the arithmetic seq->index scheme: a non-consecutive
		// sequence number means something else was fetched mid-trace.
		s.fail(FailAborted)
		return false
	}
	s.nextIdx++
	return true
}

// seqIdx maps a sequence number to its trace index; ok is false for
// instructions outside the fetched trace region.
func (s *Session) seqIdx(seq uint64) (int, bool) {
	if !s.haveSeq || seq < s.firstSeq || seq-s.firstSeq >= uint64(s.nextIdx) {
		return 0, false
	}
	return int(seq - s.firstSeq), true
}

// Covered reports whether all trace instructions have been fetched.
func (s *Session) Covered() bool { return s.nextIdx >= len(s.trace) }

// GateDispatch implements the drain-then-map policy: the first trace
// instruction waits for an empty re-order buffer (the pipeline back end
// drains, §3.1 step 1); instructions past the trace wait for the session to
// finish so the mapped stripe structure is not polluted.
func (s *Session) GateDispatch(pc int, seq uint64, robEmpty bool) bool {
	if s.state != SessionActive {
		return true
	}
	idx, isTraceInst := s.seqIdx(seq)
	if !isTraceInst {
		// Instructions older than the trace drain freely; younger ones
		// hold until mapping completes so the stripe structure is not
		// polluted.
		if !s.haveSeq || seq < s.firstSeq {
			return true
		}
		return false
	}
	if idx == 0 {
		return robEmpty
	}
	return true
}

// BeginIssue runs once per cycle before selection: if the previous cycle
// placed nothing while candidates were blocked, the scheduling frontier
// advances one stripe (the end of a scheduling step); running past the last
// stripe fails the mapping.
func (s *Session) BeginIssue() {
	if s.state != SessionActive {
		return
	}
	if !s.placedInCycle && s.blockedInCycle {
		s.stripe++
		if s.stripe >= s.geom.Stripes {
			s.fail(FailStripes)
			return
		}
	}
	s.placedInCycle = false
	s.blockedInCycle = false
}

// operandsOf derives the operand views of a reservation-station entry using
// physical registers as value ids: a source produced outside the trace has
// no ProdTable entry and is a live-in.
func (s *Session) operandsOf(e *ooo.ROBEntry) [2]operandView {
	var ops [2]operandView
	srcs, n := e.Inst.Sources()
	phys := [2]int{e.PhysSrc1, e.PhysSrc2}
	for i := 0; i < n; i++ {
		if _, produced := s.t.prodOf(phys[i]); produced {
			ops[i] = operandView{valid: true, liveIn: false, valueID: phys[i]}
		} else {
			ops[i] = operandView{valid: true, liveIn: true, arch: srcs[i]}
		}
	}
	return ops
}

// Select is Algorithm 1's inner pick for one functional unit: among the
// ready candidates, return the index of the highest-priority one for the PE
// paired with (fu, unit) on the current frontier, or -1.
func (s *Session) Select(fu isa.FUType, unit int, ready []*ooo.ROBEntry) int {
	if s.state != SessionActive {
		return defaultPick(ready)
	}
	// During the pre-mapping drain, older non-trace instructions are
	// still in flight; they issue under the host priority rule.
	traceCands := 0
	for _, e := range ready {
		if _, isTrace := s.seqIdx(e.Seq); isTrace {
			traceCands++
		}
	}
	if traceCands == 0 {
		return defaultPick(ready)
	}
	pe := s.t.freePE(fu, unit, s.stripe)
	if pe < 0 {
		s.blockedInCycle = true
		return -1
	}
	best, bestScore := -1, -1
	for i, e := range ready {
		if _, isTrace := s.seqIdx(e.Seq); !isTrace {
			continue
		}
		if sc := s.t.priorityGen(s.operandsOf(e), s.stripe); sc > bestScore {
			best, bestScore = i, sc
		}
	}
	if best < 0 {
		s.blockedInCycle = true
		return -1
	}
	return best
}

// defaultPick is the host priority rule (oldest first).
func defaultPick(ready []*ooo.ROBEntry) int {
	if len(ready) == 0 {
		return -1
	}
	return 0
}

// NoteIssued is Algorithm 3: the issue unit bound entry e to (fu, unit), so
// the paired PE on the frontier receives its instruction and the status
// tables update.
func (s *Session) NoteIssued(e *ooo.ROBEntry, fu isa.FUType, unit int) {
	if s.state != SessionActive {
		return
	}
	idx, isTrace := s.seqIdx(e.Seq)
	if !isTrace {
		return
	}
	pe := s.t.freePE(fu, unit, s.stripe)
	if pe < 0 {
		// The pipeline issued a trace instruction somewhere we cannot
		// mirror (should not happen when Select gated correctly).
		s.fail(FailAborted)
		return
	}
	ops := s.operandsOf(e)
	s.rawOps[idx] = s.t.place(idx, e.PhysDest, ops, s.stripe, pe)
	s.placedPE[idx] = pe
	s.placedOps[idx] = ops
	s.placedCount++
	s.placedInCycle = true
}

// NoteWriteback observes instruction completion; when every trace
// instruction has completed (and hence been placed), the session finalizes
// the configuration (§3.1 step 3).
func (s *Session) NoteWriteback(pc int, seq uint64) {
	if s.state != SessionActive {
		return
	}
	if _, isTrace := s.seqIdx(seq); !isTrace {
		return
	}
	s.wbCount++
	if !s.Covered() || s.wbCount < len(s.trace) {
		return
	}
	if s.placedCount != len(s.trace) {
		s.fail(FailAborted)
		return
	}
	cfg, err := assemble(s.trace, s.geom, s.t, s.placedPE, s.placedOps, s.rawOps, s.startPC, s.exitPC)
	if err != nil {
		if me, ok := err.(*MapError); ok {
			s.fail(me.Reason)
		} else {
			s.fail(FailAborted)
		}
		return
	}
	s.cfg = cfg
	s.state = SessionDone
}

// Abort cancels the session (pipeline squash during mapping).
func (s *Session) Abort() {
	if s.state == SessionActive {
		s.fail(FailAborted)
	}
}

func (s *Session) fail(r FailReason) {
	s.state = SessionFailed
	s.reason = r
}
