// Package cpistack is the cycle-accounting plane: a fixed taxonomy of
// cycle causes plus a zero-allocation accumulator that classifies every
// commit-slot cycle of a simulation into exactly one bucket, so the stack
// always sums exactly to the run's total cycles ("CPI stack" in the
// interval-analysis sense).
//
// The taxonomy is deliberately closed: internal/ooo charges one Cause per
// counted cycle using head-of-ROB interval analysis, internal/core adds the
// single synthetic CauseEstimated bucket for fast-forwarded regions under
// reduced-fidelity simulation, and every surfacing layer (journal metrics,
// /metrics families, Perfetto counter tracks, `dynaspam explain`) renders
// the same enum. Σ buckets == total cycles is an invariant enforced by
// tests on every workload; nothing in this package reads the wall clock or
// iterates a map, so stacks are bit-identical across runs and worker
// counts.
package cpistack

// Cause is one cycle-accounting bucket. Every counted cycle is charged to
// exactly one Cause.
type Cause uint8

// The cycle taxonomy. Order is fixed — it is the rendering order of every
// exporter — and NumCauses sizes the Stack array, so new causes append
// before NumCauses.
const (
	// CauseBase: at least one instruction committed this cycle (useful
	// work, the "base" component of a CPI stack).
	CauseBase Cause = iota
	// CauseFrontendICache: nothing committed and the ROB is empty because
	// fetch is stalled on an instruction-cache miss.
	CauseFrontendICache
	// CauseFrontendFetch: nothing committed and the ROB is empty while
	// fetch runs (front-end refill depth, fetch suppression, or program
	// structure) — the generic front-end starvation bucket.
	CauseFrontendFetch
	// CauseStructROB: rename stalled because the re-order buffer is full.
	CauseStructROB
	// CauseStructRS: rename stalled because the reservation stations are
	// full.
	CauseStructRS
	// CauseStructLQ: rename stalled because the load queue is full.
	CauseStructLQ
	// CauseStructSQ: rename stalled because the store queue is full.
	CauseStructSQ
	// CauseStructPhysReg: rename stalled because the physical register
	// free list is empty.
	CauseStructPhysReg
	// CauseExecDep: the head of the ROB is waiting on operand
	// dependencies or execution bandwidth (plain out-of-order stall with
	// no more specific attribution).
	CauseExecDep
	// CauseMemory: the head of the ROB is an issued load or store waiting
	// on the memory hierarchy.
	CauseMemory
	// CauseSquashBranch: recovery window after a host branch
	// misprediction squash (charged from the squash until the next
	// commit).
	CauseSquashBranch
	// CauseSquashMemOrder: recovery window after a host memory-order
	// violation squash.
	CauseSquashMemOrder
	// CauseFabricConfigWait: the head of the ROB is a trace invocation
	// still inside its reconfiguration (startup) delay.
	CauseFabricConfigWait
	// CauseFabricEval: the head of the ROB is a trace invocation being
	// evaluated on the fabric.
	CauseFabricEval
	// CauseFabricSquashBranchExit: recovery window after a trace
	// invocation squashed for leaving its recorded path
	// (ooo.SquashBranchExit).
	CauseFabricSquashBranchExit
	// CauseFabricSquashMemOrder: recovery window after a trace invocation
	// squashed for a memory-order violation (ooo.SquashMemOrder).
	// External-kind trace squashes (ooo.SquashExternal) are charged to
	// the initiating host cause instead — they are collateral damage of a
	// host squash, not fabric waste of their own.
	CauseFabricSquashMemOrder
	// CauseMapper: nothing committed while a mapping session holds the
	// pipeline (dispatch gating and drain during issue-coupled mapping).
	CauseMapper
	// CauseEstimated: synthetic bucket for fast-forwarded regions under
	// reduced-fidelity SimPolicy: the estimated cycles the skipped
	// instructions would have cost. Zero in full-detail runs.
	CauseEstimated

	// NumCauses is the taxonomy size (and the Stack array length).
	NumCauses
)

// causeNames is indexed by Cause; the snake_case forms double as metric
// name suffixes (cpi_cycles_<name>) and journal keys (cpi_<name>).
var causeNames = [NumCauses]string{
	"base",
	"frontend_icache",
	"frontend_fetch",
	"struct_rob",
	"struct_rs",
	"struct_lq",
	"struct_sq",
	"struct_physreg",
	"exec_dep",
	"memory",
	"squash_branch",
	"squash_mem_order",
	"fabric_config_wait",
	"fabric_eval",
	"fabric_squash_branch_exit",
	"fabric_squash_mem_order",
	"mapper",
	"estimated",
}

// String implements fmt.Stringer; it returns the snake_case bucket name.
func (c Cause) String() string {
	if c < NumCauses {
		return causeNames[c]
	}
	return "unknown"
}

// Causes returns every Cause in taxonomy (rendering) order.
func Causes() [NumCauses]Cause {
	var out [NumCauses]Cause
	for i := range out {
		out[i] = Cause(i)
	}
	return out
}

// Stack is a per-run cycle-accounting accumulator: one uint64 bucket per
// Cause, indexed directly. The zero value is ready to use; embedding it by
// value keeps the per-cycle hot path free of allocations and pointer
// chasing.
type Stack struct {
	// Buckets holds the cycle count charged to each Cause.
	Buckets [NumCauses]uint64
}

// Get returns the cycles charged to cause.
func (s *Stack) Get(cause Cause) uint64 {
	return s.Buckets[cause]
}

// Total returns the sum of every bucket. For a stack maintained by the
// pipeline it equals ooo.Stats.Cycles exactly; with the estimated bucket
// added it equals core.SimStats.EstCycles.
func (s *Stack) Total() uint64 {
	var t uint64
	for _, v := range s.Buckets {
		t += v
	}
	return t
}

// Share returns cause's fraction of the stack total (0 when empty).
func (s *Stack) Share(cause Cause) float64 {
	t := s.Total()
	if t == 0 {
		return 0
	}
	return float64(s.Buckets[cause]) / float64(t)
}

// AddStack folds other into s bucket by bucket.
func (s *Stack) AddStack(other *Stack) {
	for i := range s.Buckets {
		s.Buckets[i] += other.Buckets[i]
	}
}
