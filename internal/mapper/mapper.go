// Package mapper implements DynaSpAM's dynamic resource-aware mapping (§4):
// the coupling of the host pipeline's issue stage to placement of trace
// instructions on the spatial fabric's scheduling frontier.
//
// Three mapping engines are provided:
//
//   - Session: the paper's mechanism. It rides the host pipeline's hooks —
//     the issue unit's select logic is overridden with a priority score
//     (Table 2, Algorithm 2) per candidate, and each issued instruction is
//     simultaneously placed on the PE paired with its functional unit
//     (Algorithm 1), updating the ProdTable / ReuseSet / OverallUsage
//     status tables (Algorithm 3).
//
//   - MapStatic: an offline replay of the same algorithm in dataflow order,
//     used by tests and the ablation benchmarks.
//
//   - MapNaive: the program-order baseline of §2.2 (CCA/DIF style), which
//     places one instruction at a time greedily and demonstrates the
//     feasibility and routing deficiencies of small-scope mapping.
package mapper

import (
	"fmt"

	"dynaspam/internal/fabric"
	"dynaspam/internal/isa"
)

// TraceInst is one expected trace instruction, captured when the trace is
// detected on the predicted path.
type TraceInst struct {
	PC   int
	Inst isa.Inst
	// ExpectTaken is the recorded direction for branches.
	ExpectTaken bool
}

// LiveOutsOf computes the architectural registers a trace defines and the
// trace index of each register's last definition.
func LiveOutsOf(trace []TraceInst) (regs []isa.Reg, producer []int) {
	// Dense domain: architectural registers index a fixed-size array
	// directly (-1 = never defined), avoiding a map in mapping-session
	// setup.
	var last [isa.NumRegs]int
	for i := range last {
		last[i] = -1
	}
	var order []isa.Reg
	for i, ti := range trace {
		if ti.Inst.Op.HasDest() && ti.Inst.Dest != isa.RegZero && ti.Inst.Dest.Valid() {
			if last[ti.Inst.Dest] < 0 {
				order = append(order, ti.Inst.Dest)
			}
			last[ti.Inst.Dest] = i
		}
	}
	for _, r := range order {
		regs = append(regs, r)
		producer = append(producer, last[r])
	}
	return regs, producer
}

// peBase returns the index of the first PE of pool fu within a stripe laid
// out pool-by-pool.
func peBase(g fabric.Geometry, fu isa.FUType) int {
	idx := 0
	for t := isa.FUType(0); t < fu; t++ {
		idx += g.FUsPerStripe[t]
	}
	return idx
}

// tables is the mapping state shared by all engines: the paper's ProdTable,
// ReuseSet (as per-value route reach), and OverallUsage (as per-stripe
// datapath slot counters).
type tables struct {
	geom   fabric.Geometry
	policy Policy

	// prod maps a value id (physical register for the online session,
	// trace index for static engines) to its producing trace index; -1
	// marks an id with no producer. Value ids are small dense integers,
	// so a lazily grown slice replaces the seed's map.
	prod []int
	// stripeOf maps trace index -> placed stripe.
	stripeOf []int
	// reach maps a value id to the highest stripe its route currently
	// feeds; consumers at stripes (producer, reach] read it for free.
	// Indexed like prod; 0 (the default) means "reaches nothing yet".
	reach []int
	// slotsUsed counts allocated pass-register slots per stripe.
	slotsUsed []int
	// peUsed marks allocated PEs.
	peUsed [][]bool

	datapathSlots int
}

func newTables(g fabric.Geometry, traceLen int) *tables {
	t := &tables{
		geom:      g,
		policy:    Table2Policy,
		stripeOf:  make([]int, traceLen),
		slotsUsed: make([]int, g.Stripes),
		peUsed:    make([][]bool, g.Stripes),
	}
	t.ensureID(traceLen - 1)
	for i := range t.stripeOf {
		t.stripeOf[i] = -1
	}
	for s := range t.peUsed {
		t.peUsed[s] = make([]bool, g.PEsPerStripe())
	}
	return t
}

// ensureID grows the value-id tables to cover id.
func (t *tables) ensureID(id int) {
	for len(t.prod) <= id {
		t.prod = append(t.prod, -1)
		t.reach = append(t.reach, 0)
	}
}

// prodOf returns valueID's producing trace index, if it has one.
func (t *tables) prodOf(id int) (int, bool) {
	if id < 0 || id >= len(t.prod) || t.prod[id] < 0 {
		return 0, false
	}
	return t.prod[id], true
}

// reachOf returns the highest stripe valueID's route currently feeds.
func (t *tables) reachOf(id int) int {
	if id < 0 || id >= len(t.reach) {
		return 0
	}
	return t.reach[id]
}

// operandView describes one source operand of a candidate: either a live-in
// or a value id with a known producer.
type operandView struct {
	valid   bool
	liveIn  bool
	arch    isa.Reg // live-in architectural register
	valueID int     // producer value id when !liveIn
}

// PlacementView summarizes the resource situation of one candidate
// (instruction, PE) pair for a Policy: how many distinct live-in ports it
// needs, how many non-live-in operands it has, and how many of those can be
// satisfied from the ReuseSet for free (the rest need a fresh route).
type PlacementView struct {
	NeedInputs int // distinct live-in operands
	NonLive    int // operands with in-fabric producers
	CanReuse   int // of NonLive, satisfiable from pass registers for free
}

// Policy ranks a feasible placement (§4.2: "the scheduling algorithm is not
// tied to any particular priority scoring mechanism"). Feasibility is
// decided before the policy runs; the policy only orders feasible
// candidates — larger is better.
type Policy func(v PlacementView) int

// Table2Policy is the paper's priority scoring (Table 2): two-live-in
// instructions outrank everything (they fit only the first stripe), full
// ReuseSet coverage outranks partial, partial outranks none.
func Table2Policy(v PlacementView) int {
	switch {
	case v.NeedInputs == 2:
		return 3
	case v.NonLive > 0 && v.CanReuse == v.NonLive:
		return 2
	case v.CanReuse > 0:
		return 1
	default:
		return 0
	}
}

// FlatPolicy ignores routing economics entirely (every feasible placement
// scores alike except the mandatory two-live-in rule). It isolates how much
// of the resource-aware mapper's advantage comes from the Table 2 scoring
// itself rather than from the large scheduling scope.
func FlatPolicy(v PlacementView) int {
	if v.NeedInputs == 2 {
		return 1 // still required for feasibility ordering
	}
	return 0
}

// priorityGen is Algorithm 2: score placing an instruction with the given
// operands onto a PE in stripe s. The score is the policy's priority, or -1
// when the placement is infeasible.
func (t *tables) priorityGen(ops [2]operandView, s int) int {
	needInputs := 0
	// At most two operands, so duplicate live-in detection is a direct
	// comparison, not a map.
	var seenLiveIn [2]isa.Reg
	canReuse, nonLive := 0, 0
	for i := 0; i < 2; i++ {
		op := ops[i]
		if !op.valid {
			continue
		}
		if op.liveIn {
			dup := false
			for k := 0; k < needInputs; k++ {
				if seenLiveIn[k] == op.arch {
					dup = true
					break
				}
			}
			if !dup {
				seenLiveIn[needInputs] = op.arch
				needInputs++
			}
			continue
		}
		nonLive++
		prodIdx, ok := t.prodOf(op.valueID)
		if !ok {
			// Producer unknown: treat as infeasible (the engines
			// guarantee producers are placed first, so this is a
			// candidate whose producer is not yet mapped).
			return -1
		}
		ps := t.stripeOf[prodIdx]
		if ps < 0 || ps >= s {
			// Acyclic fabric: operands come from earlier stripes only.
			return -1
		}
		if s <= t.reachOf(op.valueID) {
			canReuse++
		} else if !t.canExtend(op.valueID, s) {
			return -1
		}
	}
	if needInputs > t.geom.InputPorts(s) {
		return -1
	}
	return t.policy(PlacementView{
		NeedInputs: needInputs,
		NonLive:    nonLive,
		CanReuse:   canReuse,
	})
}

// canExtend reports whether the route of valueID can be extended to feed
// stripe s (OverallUsage lookup).
func (t *tables) canExtend(valueID, s int) bool {
	from := t.reachOf(valueID)
	for k := from; k < s; k++ {
		if t.slotsUsed[k] >= t.geom.RouteCapacity() {
			return false
		}
	}
	return true
}

// place is Algorithm 3: commit the placement of trace index idx (producing
// value destID, or -1) with the given operands onto (stripe, pe), updating
// all status tables and returning the mapped operand descriptors.
func (t *tables) place(idx, destID int, ops [2]operandView, stripe, pe int) [2]fabric.Operand {
	t.peUsed[stripe][pe] = true
	t.stripeOf[idx] = stripe
	if destID >= 0 {
		t.ensureID(destID)
		t.prod[destID] = idx
		// A freshly produced value is directly visible to the next
		// stripe without consuming pass registers.
		t.reach[destID] = stripe + 1
	}
	var out [2]fabric.Operand
	for i := 0; i < 2; i++ {
		op := ops[i]
		if !op.valid {
			out[i] = fabric.Operand{Kind: fabric.SrcNone}
			continue
		}
		if op.liveIn {
			out[i] = fabric.Operand{Kind: fabric.SrcLiveIn, Index: -1} // index fixed by caller
			continue
		}
		prodIdx := t.prod[op.valueID]
		ps := t.stripeOf[prodIdx]
		reused := stripe <= t.reach[op.valueID]
		if !reused {
			for k := t.reach[op.valueID]; k < stripe; k++ {
				t.slotsUsed[k]++
				t.datapathSlots++
			}
			t.reach[op.valueID] = stripe
		}
		// op.valueID was scored feasible, so its producer was placed and
		// ensureID already covers it; direct indexing is safe.
		out[i] = fabric.Operand{
			Kind:   fabric.SrcProducer,
			Index:  prodIdx,
			Hops:   stripe - ps - 1,
			Reused: reused,
		}
	}
	return out
}

// freePE returns the PE index of pool fu, unit u in stripe s if it exists
// and is unallocated, else -1.
func (t *tables) freePE(fu isa.FUType, unit, s int) int {
	if unit >= t.geom.FUsPerStripe[fu] {
		return -1
	}
	pe := peBase(t.geom, fu) + unit
	if t.peUsed[s][pe] {
		return -1
	}
	return pe
}

// anyFreePE returns any unallocated PE of pool fu in stripe s, or -1.
func (t *tables) anyFreePE(fu isa.FUType, s int) int {
	base := peBase(t.geom, fu)
	for u := 0; u < t.geom.FUsPerStripe[fu]; u++ {
		if !t.peUsed[s][base+u] {
			return base + u
		}
	}
	return -1
}

// FailReason explains why a mapping could not be produced.
type FailReason int

const (
	// FailNone: mapping succeeded.
	FailNone FailReason = iota
	// FailStripes: the trace needs more stripes than the fabric has.
	FailStripes
	// FailPorts: an instruction needs more live-in ports than any
	// remaining PE provides.
	FailPorts
	// FailRouting: a needed datapath could not be allocated.
	FailRouting
	// FailFIFOs: the trace's live-ins or live-outs exceed the FIFO count.
	FailFIFOs
	// FailAborted: the mapping session was aborted by a pipeline squash
	// or a fetch divergence.
	FailAborted
)

// String implements fmt.Stringer.
func (r FailReason) String() string {
	switch r {
	case FailNone:
		return "none"
	case FailStripes:
		return "stripes-exhausted"
	case FailPorts:
		return "input-ports"
	case FailRouting:
		return "routing"
	case FailFIFOs:
		return "fifos"
	case FailAborted:
		return "aborted"
	}
	return "unknown"
}

// MapError is returned when a trace cannot be mapped.
type MapError struct {
	Reason FailReason
	Index  int // trace index that failed, -1 if not applicable
}

// Error implements error.
func (e *MapError) Error() string {
	return fmt.Sprintf("mapper: mapping failed (%s) at trace index %d", e.Reason, e.Index)
}
