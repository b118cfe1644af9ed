package ooo

import "dynaspam/internal/isa"

// SquashKind classifies why a trace invocation was squashed.
type SquashKind int

const (
	// SquashBranchExit: a branch inside the trace resolved off the
	// trace's recorded path; the whole invocation is discarded and the
	// host re-executes from the trace start.
	SquashBranchExit SquashKind = iota
	// SquashMemOrder: a memory-order violation, either inside the
	// invocation or against an older host store.
	SquashMemOrder
	// SquashExternal: an older instruction (e.g. a mispredicted branch
	// before the trace) squashed the invocation.
	SquashExternal
)

// String implements fmt.Stringer.
func (k SquashKind) String() string {
	switch k {
	case SquashBranchExit:
		return "branch-exit"
	case SquashMemOrder:
		return "mem-order"
	case SquashExternal:
		return "external"
	}
	return "unknown"
}

// TraceInput is what the fabric receives when an invocation begins
// evaluation.
//
// Transience contract: LiveIns, Arrivals, and ReadMem borrow CPU-owned
// scratch storage that is reused on later cycles. They are valid only for
// the duration of the Evaluate call; an evaluator that needs any of them
// afterwards must copy.
type TraceInput struct {
	// LiveIns holds the raw 64-bit values of the injected trace's LiveIns,
	// in the same order.
	LiveIns []uint64
	// Arrivals gives, per live-in, the absolute cycle its value reached
	// the input FIFO. The FIFOs decouple operand delivery from invocation
	// start, so early sub-graphs of the trace overlap with the producers
	// of late live-ins.
	Arrivals []int64
	// ReadMem reads 8 bytes at addr as seen at the invocation's position
	// in program order: younger-first forwarding from older in-flight
	// stores, then architectural memory.
	ReadMem func(addr uint64) uint64
	// Cycle is the cycle at which evaluation begins.
	Cycle uint64
}

// StoreRecord is one store performed by a trace invocation, buffered in the
// side re-order buffer (ROB') and applied to memory at commit.
type StoreRecord struct {
	PC    int
	Addr  uint64
	Value uint64
}

// LoadRecord is one load performed by a trace invocation, kept for
// violation snooping against older host stores.
type LoadRecord struct {
	PC    int
	Addr  uint64
	Value uint64
}

// BranchRec is one branch outcome observed inside a trace invocation; the
// framework feeds these to trace detection and predictor training on commit.
type BranchRec struct {
	PC    int
	Taken bool
}

// TraceResult is the outcome of evaluating one invocation on the fabric.
//
// The record slices (LiveOuts, LiveOutDelay, Stores, Loads, Branches) may be
// pooled by the producer: the framework hands them back in the invocation's
// terminal callback, at commit or squash (see fabric.(*Fabric).Release),
// after which they must not be read. The pipeline reads what it needs from
// a squashed invocation's result, Branches for predictor training among it,
// before calling Squash.
type TraceResult struct {
	// Latency is the invocation's total cycles from evaluation start to
	// last result.
	Latency int
	// LiveOuts holds the raw values of the injected trace's LiveOuts, in
	// order. Ignored when the invocation exits early (ExitMatches false).
	LiveOuts []uint64
	// LiveOutDelay, if non-nil, gives per-live-out ready offsets from
	// evaluation start, enabling pipelined forwarding to dependent
	// instructions before the whole invocation finishes. Nil means all
	// live-outs are ready at Latency.
	LiveOutDelay []int
	// Stores and Loads record the invocation's memory activity.
	Stores []StoreRecord
	Loads  []LoadRecord
	// Branches records the outcome of every branch executed, in trace
	// order (truncated at an early exit).
	Branches []BranchRec
	// ActualExitPC is where control flow actually leaves the trace.
	ActualExitPC int
	// ExitMatches is true when every branch inside the trace followed the
	// recorded path.
	ExitMatches bool
	// MemViolation is true when the fabric detected an intra-invocation
	// memory-order violation under speculation (predictor already
	// retrained by the fabric).
	MemViolation bool
	// Ops is the number of instructions the invocation retires.
	Ops int
	// StartTimes holds each instruction's absolute start cycle; the next
	// invocation of the same configuration may not start an instruction
	// on the same PE within the same cycle (initiation constraint).
	StartTimes []int64
	// LastStoreDone is the absolute completion cycle of the invocation's
	// youngest store (0 when there are none); conservative mode orders
	// the next invocation's memory operations after it.
	LastStoreDone int64
	// ConfigWait is the reconfiguration (startup) delay charged at the
	// front of Latency, in cycles (0 when the configuration was already
	// resident). Cycle accounting splits the invocation's head-of-ROB
	// occupancy into config-wait and evaluation using it.
	ConfigWait int
}

// TraceHandler is the framework's side of one trace invocation. The
// pipeline calls each method at most once per injection, in this order:
//
//   - Evaluate, when the invocation's inputs are ready (never, if it is
//     squashed first). The pipeline stores the result in
//     TraceInject.Result.
//   - Complete, when the invocation finished on the fabric on its recorded
//     path and its live-outs have broadcast; the input/output FIFO entries
//     free here, before the atomic commit through ROB'. An invocation that
//     exits the trace or violates memory order never completes.
//   - Commit or Squash, exactly one, last.
//
// The terminal callback comes last: once Commit or Squash returns, the
// pipeline reads neither the TraceInject nor its Result again, so the
// handler may recycle both, and the result's pooled records, inside the
// call. Everything the pipeline needs from a squashed invocation (the
// branch outcomes that train the predictor, the start PC fetch restarts at,
// the physical registers it held) it takes before calling Squash.
type TraceHandler interface {
	// Evaluate runs the invocation on the fabric.
	Evaluate(in TraceInput) TraceResult
	// Complete reports that the invocation finished on the fabric.
	Complete()
	// Commit reports that the invocation retired; Result holds its
	// outcome.
	Commit()
	// Squash reports that the invocation was discarded, and why.
	Squash(kind SquashKind)
}

// TraceInject describes a fat atomic trace invocation handed to fetch by the
// DynaSpAM framework. The pipeline renames its live-ins/live-outs, gives it
// one ROB entry backed by a side record (ROB'), evaluates it on the fabric
// when its inputs are ready, and commits or squashes it atomically.
//
// The framework owns the inject and may pool it (see TraceHandler for when
// the pipeline is done with it). It sets the exported fields one by one
// before handing the inject to fetch, never assigning the struct whole: the
// unexported fields are the pipeline's per-invocation renaming state, kept
// here so that a pooled inject recycles their storage too.
type TraceInject struct {
	// StartPC is the first instruction of the trace (fetch redirect target
	// on squash).
	StartPC int
	// ExitPC is the predicted fall-out PC; fetch resumes there.
	ExitPC int
	// LiveIns and LiveOuts are the architectural registers the trace reads
	// from and exposes to the host pipeline.
	LiveIns  []isa.Reg
	LiveOuts []isa.Reg
	// PredDirs holds the predicted direction of each branch inside the
	// trace, in trace order; fetch shifts these into the global history
	// at injection.
	PredDirs []bool
	// LoadPCs and StorePCs are the simplified memory-instruction lists of
	// the configuration (§3.2): at dispatch they are registered with the
	// store-sets unit so the invocation orders behind predicted-dependent
	// host stores, and predicted-dependent host loads wait for it.
	LoadPCs  []int
	StorePCs []int
	// Conservative, when true, delays evaluation until every older store
	// in the ROB has a known address and value ("w/o speculation" mode).
	Conservative bool
	// Handler receives the invocation's lifecycle callbacks.
	Handler TraceHandler
	// Result is the invocation's outcome, filled in by the pipeline from
	// Handler.Evaluate and valid until the terminal callback returns.
	Result TraceResult

	// liveInPhys holds the physical registers the invocation reads its
	// live-ins from; liveOutPhys those allocated for its live-outs (-1 for
	// the zero register). Both are set at rename. liveInsReady counts the
	// leading live-ins traceReady has seen written: a source register
	// stays written while an invocation that reads it waits, so the check
	// resumes there.
	liveInPhys   []int
	liveOutPhys  []int
	liveInsReady int
}

// Hooks lets the DynaSpAM framework observe and steer the pipeline. All
// fields are optional; a zero Hooks value leaves the pipeline a plain OOO
// machine.
type Hooks struct {
	// BeforeFetch is consulted when fetch reaches a branch (conditional or
	// jmp) at pc, before it fetches the branch; every trace is anchored at
	// one. Returning a non-nil TraceInject replaces the normal fetch: the
	// invocation occupies the slot, it ends the fetch group, and fetch
	// continues at ExitPC next cycle. Returning nil fetches the branch.
	BeforeFetch func(pc int) *TraceInject

	// OnFetch observes every normally fetched instruction with its
	// sequence number.
	OnFetch func(pc int, seq uint64)

	// DispatchGate, if it returns false, stalls the dispatch of the
	// instruction with the given sequence number this cycle. robEmpty
	// reports whether the ROB currently holds no instructions (used to
	// drain the back end before a mapping session).
	DispatchGate func(pc int, seq uint64, robEmpty bool) bool

	// BeginIssue is called once per cycle before instruction selection;
	// the mapper uses it to advance the scheduling frontier.
	BeginIssue func()

	// SelectOverride replaces the oldest-first pick for one functional
	// unit during issue. ready holds only entries that can issue to this
	// unit this cycle (operands ready and, for loads, memory ordering
	// satisfied), oldest first: in sequence order, minus the entries
	// already picked this cycle. Return an index into ready, or -1 to
	// issue nothing on this unit. The slice is per-cycle scratch owned by
	// the CPU, valid only within the call. The entries are the pipeline's
	// own, with their renamed registers: read them, never write them, and
	// do not keep them past the call, since the CPU recycles entries.
	SelectOverride func(fu isa.FUType, unit int, ready []*ROBEntry) int

	// OnIssue observes each issued instruction and the unit it was
	// assigned. As with SelectOverride's candidates, e is the pipeline's
	// entry: read it during the call, do not write or keep it.
	OnIssue func(e *ROBEntry, fu isa.FUType, unit int)

	// OnWriteback observes each completed instruction.
	OnWriteback func(pc int, seq uint64)

	// OnCommit observes each committed instruction.
	OnCommit func(pc int, seq uint64, op isa.Op)

	// OnCommitBranch observes committed branch outcomes (trace detection).
	OnCommitBranch func(pc int, taken bool)

	// OnSquash observes pipeline squashes; seqBoundary is the sequence
	// number of the oldest squashed instruction.
	OnSquash func(seqBoundary uint64)
}
