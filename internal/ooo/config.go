// Package ooo implements the host out-of-order pipeline: an 8-wide
// fetch/decode/rename/dispatch/issue/writeback/commit machine with a 192-entry
// re-order buffer, 256 physical registers, unified reservation stations,
// split load/store queues, a gshare front end and a store-sets memory
// dependence predictor (Table 4 of the paper; branch targets are decoded
// at fetch, so no BTB is modelled).
//
// The simulator is execute-at-issue: values are computed when an instruction
// issues, held in physical registers, and become architectural at commit.
// Branch mispredictions squash at writeback; memory-order violations squash
// at the offending load. The pipeline exposes hooks (Hooks) that the DynaSpAM
// framework uses to observe issue decisions, override selection priority
// during trace mapping, and inject fat atomic trace invocations that execute
// on the spatial fabric.
package ooo

import (
	"dynaspam/internal/branch"
	"dynaspam/internal/isa"
	"dynaspam/internal/memdep"
)

// Config describes the pipeline geometry.
type Config struct {
	FetchWidth  int
	RenameWidth int
	IssueWidth  int
	CommitWidth int

	ROBSize  int
	RSSize   int
	PhysRegs int
	LQSize   int
	SQSize   int

	// FUCounts gives the number of functional units per pool.
	FUCounts [isa.NumFUTypes]int

	// FrontendDepth is the number of cycles between fetch and earliest
	// rename (decode pipeline depth).
	FrontendDepth int

	// MemSpeculation lets loads issue ahead of unresolved older stores,
	// guarded by the store-sets predictor. When false the pipeline is
	// conservative: a load waits until every older store has computed its
	// address and value.
	MemSpeculation bool

	Branch branch.Config
	MemDep memdep.Config

	// MaxCycles aborts a run that exceeds this cycle budget (guards
	// against deadlock bugs); 0 means a generous default.
	MaxCycles uint64
}

// DefaultConfig returns the Table 4 baseline: 8-wide issue, 192-entry ROB,
// 256 physical registers, 4 int ALUs, 1 int mul/div, 4 FP ALUs, 1 FP
// mul/div, 2 load/store units, 128-entry load and store queues.
func DefaultConfig() Config {
	var fu [isa.NumFUTypes]int
	fu[isa.FUIntALU] = 4
	fu[isa.FUIntMulDiv] = 1
	fu[isa.FUFPALU] = 4
	fu[isa.FUFPMulDiv] = 1
	fu[isa.FULdSt] = 2
	return Config{
		FetchWidth:     8,
		RenameWidth:    8,
		IssueWidth:     8,
		CommitWidth:    8,
		ROBSize:        192,
		RSSize:         64,
		PhysRegs:       256,
		LQSize:         128,
		SQSize:         128,
		FUCounts:       fu,
		FrontendDepth:  3,
		MemSpeculation: true,
		Branch:         branch.DefaultConfig(),
		MemDep:         memdep.DefaultConfig(),
	}
}

// validate panics on degenerate configurations; these are programming errors
// in experiment setup, not runtime conditions.
func (c Config) validate() {
	switch {
	case c.FetchWidth <= 0, c.RenameWidth <= 0, c.IssueWidth <= 0, c.CommitWidth <= 0:
		panic("ooo: widths must be positive")
	case c.ROBSize <= 0, c.RSSize <= 0, c.LQSize <= 0, c.SQSize <= 0:
		panic("ooo: queue sizes must be positive")
	case c.PhysRegs <= isa.NumRegs:
		panic("ooo: need more physical than architectural registers")
	case c.FUCounts[isa.FULdSt] <= 0, c.FUCounts[isa.FUIntALU] <= 0:
		panic("ooo: need at least one LDST unit and one int ALU")
	case c.FUCounts[isa.FUIntMulDiv] <= 0, c.FUCounts[isa.FUFPALU] <= 0, c.FUCounts[isa.FUFPMulDiv] <= 0:
		panic("ooo: every FU pool needs at least one unit")
	}
}

// Stats aggregates the pipeline's activity counters. Event counts feed the
// energy model; cycle counts feed performance comparisons.
type Stats struct {
	Cycles uint64

	Fetched    uint64
	Renamed    uint64
	Dispatched uint64
	Issued     uint64
	Committed  uint64
	Squashed   uint64 // instructions flushed

	BranchResolved    uint64
	BranchMispredicts uint64
	MemViolations     uint64

	LoadsExecuted  uint64
	StoresExecuted uint64
	StoreForwards  uint64

	RegReads   uint64
	RegWrites  uint64
	Broadcasts uint64 // CDB/bypass wakeup broadcasts

	// Trace (fabric) activity, populated when DynaSpAM hooks inject
	// trace invocations.
	TraceInvocations   uint64
	TraceCommittedOps  uint64 // instructions retired via the fabric
	TraceSquashes      uint64
	TraceLiveInMoves   uint64
	TraceLiveOutMoves  uint64
	TraceFabricLoads   uint64
	TraceFabricStores  uint64
	MappedInstructions uint64 // instructions committed while in mapping mode

	HaltSeen bool
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}
