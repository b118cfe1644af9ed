package mapper

import (
	"testing"

	"dynaspam/internal/fabric"
	"dynaspam/internal/isa"
	"dynaspam/internal/ooo"
)

// sessionHarness drives a Session through the hook sequence a pipeline
// would produce, without a pipeline: fetch all trace instructions, then
// issue them in dataflow order, calling BeginIssue per simulated cycle.
type sessionHarness struct {
	t       *testing.T
	s       *Session
	trace   []TraceInst
	seqBase uint64
	// physical register assignment: arch -> phys, allocated per def.
	rat      map[isa.Reg]int
	nextPhys int
	entries  []*ooo.ROBEntry
}

func newHarness(t *testing.T, trace []TraceInst, g fabric.Geometry) *sessionHarness {
	h := &sessionHarness{
		t:        t,
		s:        NewSession(trace, g, trace[0].PC, trace[len(trace)-1].PC+1),
		trace:    trace,
		seqBase:  100,
		rat:      make(map[isa.Reg]int),
		nextPhys: 1,
	}
	// Fetch all trace instructions in order, renaming as the pipeline
	// would.
	for i, ti := range trace {
		seq := h.seqBase + uint64(i)
		if !h.s.NoteFetched(ti.PC, seq) {
			t.Fatalf("NoteFetched diverged at %d", i)
		}
		e := &ooo.ROBEntry{Seq: seq, PC: ti.PC, Inst: ti.Inst, PhysSrc1: -1, PhysSrc2: -1, PhysDest: -1}
		srcs, n := ti.Inst.Sources()
		if n >= 1 {
			e.PhysSrc1 = h.physOf(srcs[0])
		}
		if n >= 2 {
			e.PhysSrc2 = h.physOf(srcs[1])
		}
		if ti.Inst.Op.HasDest() && ti.Inst.Dest != isa.RegZero {
			h.nextPhys++
			e.PhysDest = h.nextPhys
			h.rat[ti.Inst.Dest] = h.nextPhys
		}
		h.entries = append(h.entries, e)
	}
	if !h.s.Covered() {
		t.Fatal("trace not covered after fetching")
	}
	return h
}

// physOf returns the current mapping, allocating a "live-in" phys for
// never-defined registers.
func (h *sessionHarness) physOf(r isa.Reg) int {
	if p, ok := h.rat[r]; ok {
		return p
	}
	h.nextPhys++
	h.rat[r] = h.nextPhys
	return h.rat[r]
}

// runToCompletion issues instructions in dataflow order through the
// session's Select/NoteIssued, simulating one issue cycle per round, then
// reports writebacks. maxCycles bounds runaway loops.
func (h *sessionHarness) runToCompletion(maxCycles int) {
	g := h.s.geom
	done := make([]bool, len(h.trace))
	defined := map[int]bool{} // phys regs produced by completed insts
	for cyc := 0; cyc < maxCycles; cyc++ {
		if h.s.State() != SessionActive {
			return
		}
		h.s.BeginIssue()
		// Gather ready candidates per FU pool: all sources either
		// live-ins (phys not defined by an unfinished trace inst) or
		// defined.
		var readyByFU [isa.NumFUTypes][]*ooo.ROBEntry
		producerPhys := map[int]int{} // phys -> trace idx
		for i, e := range h.entries {
			if e.PhysDest >= 0 {
				producerPhys[e.PhysDest] = i
			}
		}
		isReady := func(i int) bool {
			e := h.entries[i]
			for _, p := range []int{e.PhysSrc1, e.PhysSrc2} {
				if p < 0 {
					continue
				}
				if j, inTrace := producerPhys[p]; inTrace && j < i && !done[j] {
					return false
				}
			}
			return true
		}
		for i, e := range h.entries {
			if done[i] || !isReady(i) {
				continue
			}
			readyByFU[e.Inst.Op.FU()] = append(readyByFU[e.Inst.Op.FU()], e)
		}
		// One select round per FU unit.
		issuedAny := false
		for fu := isa.FUType(0); fu < isa.NumFUTypes; fu++ {
			cand := readyByFU[fu]
			for unit := 0; unit < g.FUsPerStripe[fu]; unit++ {
				if len(cand) == 0 {
					break
				}
				idx := h.s.Select(fu, unit, cand)
				if idx < 0 {
					continue
				}
				e := cand[idx]
				cand = append(cand[:idx:idx], cand[idx+1:]...)
				h.s.NoteIssued(e, fu, unit)
				ti := int(e.Seq - h.seqBase)
				done[ti] = true
				if e.PhysDest >= 0 {
					defined[e.PhysDest] = true
				}
				h.s.NoteWriteback(e.PC, e.Seq)
				issuedAny = true
			}
		}
		_ = issuedAny
	}
}

func sessionGeom() fabric.Geometry {
	var fu [isa.NumFUTypes]int
	fu[isa.FUIntALU] = 4
	fu[isa.FUIntMulDiv] = 1
	fu[isa.FUFPALU] = 4
	fu[isa.FUFPMulDiv] = 1
	fu[isa.FULdSt] = 2
	return fabric.Geometry{
		Stripes:       16,
		FUsPerStripe:  fu,
		PassRegsPerFU: 3,
		LiveInFIFOs:   16,
		LiveOutFIFOs:  16,
		FIFODepth:     8,
	}
}

func loopTrace() []TraceInst {
	// blt; ld; muli; add; st; addi; addi — a loop-iteration shape.
	return []TraceInst{
		{PC: 10, Inst: isa.Inst{Op: isa.OpBlt, Dest: isa.RegInvalid, Src1: isa.R(1), Src2: isa.R(2), Target: 3}, ExpectTaken: true},
		{PC: 3, Inst: isa.Inst{Op: isa.OpLd, Dest: isa.R(5), Src1: isa.R(3), Src2: isa.RegInvalid}},
		{PC: 4, Inst: isa.Inst{Op: isa.OpMuli, Dest: isa.R(6), Src1: isa.R(5), Src2: isa.RegInvalid, Imm: 3}},
		{PC: 5, Inst: isa.Inst{Op: isa.OpAdd, Dest: isa.R(6), Src1: isa.R(6), Src2: isa.R(1)}},
		{PC: 6, Inst: isa.Inst{Op: isa.OpSt, Dest: isa.RegInvalid, Src1: isa.R(4), Src2: isa.R(6)}},
		{PC: 7, Inst: isa.Inst{Op: isa.OpAddi, Dest: isa.R(3), Src1: isa.R(3), Src2: isa.RegInvalid, Imm: 8}},
		{PC: 8, Inst: isa.Inst{Op: isa.OpAddi, Dest: isa.R(1), Src1: isa.R(1), Src2: isa.RegInvalid, Imm: 1}},
	}
}

func TestSessionMapsLoopTrace(t *testing.T) {
	g := sessionGeom()
	h := newHarness(t, loopTrace(), g)
	h.runToCompletion(200)
	if h.s.State() != SessionDone {
		t.Fatalf("session state = %v (reason %v)", h.s.State(), h.s.FailReason())
	}
	cfg := h.s.Config()
	if err := cfg.Validate(g); err != nil {
		t.Fatalf("produced config invalid: %v", err)
	}
	if len(cfg.Insts) != 7 {
		t.Errorf("mapped %d instructions, want 7", len(cfg.Insts))
	}
	// The dependent chain ld -> muli -> add -> st must occupy strictly
	// increasing stripes.
	if !(cfg.Insts[1].Stripe < cfg.Insts[2].Stripe &&
		cfg.Insts[2].Stripe < cfg.Insts[3].Stripe &&
		cfg.Insts[3].Stripe < cfg.Insts[4].Stripe) {
		t.Errorf("chain stripes not increasing: %d %d %d %d",
			cfg.Insts[1].Stripe, cfg.Insts[2].Stripe, cfg.Insts[3].Stripe, cfg.Insts[4].Stripe)
	}
	if cfg.StartPC != 10 {
		t.Errorf("StartPC = %d, want 10", cfg.StartPC)
	}
	if !cfg.Insts[0].ExpectTaken {
		t.Error("anchor branch direction lost")
	}
}

func TestSessionFetchDivergenceAborts(t *testing.T) {
	g := sessionGeom()
	trace := loopTrace()
	s := NewSession(trace, g, 10, 9)
	if !s.NoteFetched(10, 1) {
		t.Fatal("first fetch rejected")
	}
	if s.NoteFetched(99, 2) { // wrong pc
		t.Fatal("diverged fetch accepted")
	}
	if s.State() != SessionFailed || s.FailReason() != FailAborted {
		t.Errorf("state = %v/%v, want failed/aborted", s.State(), s.FailReason())
	}
}

func TestSessionAbort(t *testing.T) {
	s := NewSession(loopTrace(), sessionGeom(), 10, 9)
	s.Abort()
	if s.State() != SessionFailed || s.FailReason() != FailAborted {
		t.Error("Abort did not fail the session")
	}
	// Post-failure hooks are inert.
	s.BeginIssue()
	s.NoteWriteback(3, 101)
	if s.Config() != nil {
		t.Error("failed session produced a config")
	}
}

func TestSessionDispatchGate(t *testing.T) {
	trace := loopTrace()
	s := NewSession(trace, sessionGeom(), 10, 9)
	// Pre-trace instructions drain freely before the trace is seen.
	if !s.GateDispatch(1, 50, false) {
		t.Error("pre-trace instruction gated before trace fetch")
	}
	s.NoteFetched(10, 100)
	// The first trace instruction waits for an empty ROB.
	if s.GateDispatch(10, 100, false) {
		t.Error("first trace inst dispatched into non-empty ROB")
	}
	if !s.GateDispatch(10, 100, true) {
		t.Error("first trace inst blocked with empty ROB")
	}
	// Older instructions (seq < firstSeq) still pass.
	if !s.GateDispatch(2, 60, false) {
		t.Error("older instruction gated")
	}
	// Younger non-trace instructions hold.
	if s.GateDispatch(99, 200, true) {
		t.Error("post-trace instruction dispatched during mapping")
	}
}

func TestSessionStripesExhaustedFails(t *testing.T) {
	g := sessionGeom()
	g.Stripes = 2
	// A serial chain of 5 needs 5 stripes.
	var trace []TraceInst
	prev := isa.R(1)
	trace = append(trace, TraceInst{PC: 0, Inst: isa.Inst{Op: isa.OpBlt, Dest: isa.RegInvalid, Src1: isa.R(1), Src2: isa.R(2), Target: 0}, ExpectTaken: true})
	for i := 0; i < 5; i++ {
		d := isa.R(10 + i)
		trace = append(trace, TraceInst{PC: i + 1, Inst: isa.Inst{Op: isa.OpAddi, Dest: d, Src1: prev, Src2: isa.RegInvalid, Imm: 1}})
		prev = d
	}
	h := newHarness(t, trace, g)
	h.runToCompletion(200)
	if h.s.State() != SessionFailed {
		t.Fatalf("state = %v, want failed", h.s.State())
	}
	if h.s.FailReason() != FailStripes {
		t.Errorf("reason = %v, want stripes-exhausted", h.s.FailReason())
	}
}

func TestSessionPrioritizesTwoLiveInInstructions(t *testing.T) {
	// Figure 2(b) online: two 1-live-in adds and two 2-live-in adds, all
	// ready in cycle 0. The session must give stripe 0 to the 2-live-in
	// pair via priority 3.
	// Three 2-live-in instructions (the branch reads two live-ins too)
	// compete with a 1-live-in addi for three 2-port slots on stripe 0.
	g := sessionGeom()
	g.FUsPerStripe[isa.FUIntALU] = 3
	trace := []TraceInst{
		{PC: 0, Inst: isa.Inst{Op: isa.OpBlt, Dest: isa.RegInvalid, Src1: isa.R(8), Src2: isa.R(9), Target: 1}, ExpectTaken: true},
		{PC: 1, Inst: isa.Inst{Op: isa.OpAddi, Dest: isa.R(10), Src1: isa.R(1), Src2: isa.RegInvalid, Imm: 1}},
		{PC: 2, Inst: isa.Inst{Op: isa.OpAdd, Dest: isa.R(12), Src1: isa.R(3), Src2: isa.R(4)}},
		{PC: 3, Inst: isa.Inst{Op: isa.OpAdd, Dest: isa.R(13), Src1: isa.R(5), Src2: isa.R(6)}},
	}
	h := newHarness(t, trace, g)
	h.runToCompletion(200)
	if h.s.State() != SessionDone {
		t.Fatalf("state = %v (%v)", h.s.State(), h.s.FailReason())
	}
	cfg := h.s.Config()
	// All three 2-live-in instructions must be on stripe 0 (the only
	// stripe with 2 input ports); the 1-live-in addi must not displace
	// any of them.
	for _, i := range []int{0, 2, 3} {
		if cfg.Insts[i].Stripe != 0 {
			t.Errorf("2-live-in inst %d on stripe %d, want 0", i, cfg.Insts[i].Stripe)
		}
	}
	if cfg.Insts[1].Stripe == 0 {
		t.Error("1-live-in addi displaced a 2-live-in instruction from stripe 0")
	}
}
