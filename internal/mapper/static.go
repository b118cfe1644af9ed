package mapper

import (
	"dynaspam/internal/fabric"
	"dynaspam/internal/isa"
)

// staticOperands derives operand views for trace index i using trace indices
// as value ids: an operand is a live-in unless an earlier trace instruction
// defines its architectural register.
func staticOperands(trace []TraceInst, lastDef map[isa.Reg]int, i int) [2]operandView {
	var ops [2]operandView
	srcs, n := trace[i].Inst.Sources()
	for s := 0; s < n; s++ {
		r := srcs[s]
		if r == isa.RegZero && !r.IsFP() {
			// r0 is constant zero: model as a live-in of r0.
			ops[s] = operandView{valid: true, liveIn: true, arch: r}
			continue
		}
		if def, ok := lastDef[r]; ok && def < i {
			ops[s] = operandView{valid: true, liveIn: false, valueID: def}
		} else {
			ops[s] = operandView{valid: true, liveIn: true, arch: r}
		}
	}
	return ops
}

// defsBefore computes, for each trace index, the defining trace index of
// each register as of that instruction (program order).
func defsBefore(trace []TraceInst) []map[isa.Reg]int {
	out := make([]map[isa.Reg]int, len(trace))
	cur := make(map[isa.Reg]int)
	for i, ti := range trace {
		snapshot := make(map[isa.Reg]int, len(cur))
		for k, v := range cur {
			snapshot[k] = v
		}
		out[i] = snapshot
		if ti.Inst.Op.HasDest() && ti.Inst.Dest != isa.RegZero && ti.Inst.Dest.Valid() {
			cur[ti.Inst.Dest] = i
		}
	}
	return out
}

// assemble builds the final fabric.Config from placements, assigning live-in
// FIFO indices and computing live-outs. It returns a FailFIFOs error when
// the trace exceeds the FIFO limits.
func assemble(trace []TraceInst, g fabric.Geometry, t *tables,
	placedPE []int, placedOps [][2]operandView, rawOps [][2]fabric.Operand,
	startPC, exitPC int) (*fabric.Config, error) {

	cfg := &fabric.Config{StartPC: startPC, ExitPC: exitPC}
	liveInIdx := make(map[isa.Reg]int)
	stripesUsed := 0
	for i, ti := range trace {
		mi := fabric.MappedInst{
			PC:          ti.PC,
			Inst:        ti.Inst,
			Stripe:      t.stripeOf[i],
			PE:          placedPE[i],
			ExpectTaken: ti.ExpectTaken,
		}
		for s := 0; s < 2; s++ {
			op := rawOps[i][s]
			if op.Kind == fabric.SrcLiveIn {
				r := placedOps[i][s].arch
				idx, ok := liveInIdx[r]
				if !ok {
					idx = len(cfg.LiveIns)
					liveInIdx[r] = idx
					cfg.LiveIns = append(cfg.LiveIns, r)
				}
				op.Index = idx
			}
			mi.Src[s] = op
		}
		cfg.Insts = append(cfg.Insts, mi)
		if t.stripeOf[i]+1 > stripesUsed {
			stripesUsed = t.stripeOf[i] + 1
		}
	}
	cfg.StripesUsed = stripesUsed
	cfg.DatapathSlots = t.datapathSlots
	cfg.LiveOuts, cfg.LiveOutProducer = LiveOutsOf(trace)
	if len(cfg.LiveIns) > g.LiveInFIFOs || len(cfg.LiveOuts) > g.LiveOutFIFOs {
		return nil, &MapError{Reason: FailFIFOs, Index: -1}
	}
	if err := cfg.Validate(g); err != nil {
		return nil, err
	}
	return cfg, nil
}

// MapNaive is the program-order baseline mapper of §2.2 (in the style of CCA
// and DIF): each instruction, in strict program order, is placed on the
// first PE that can receive its operands — with no knowledge of the
// instructions that follow. Traces that a larger scope could map may fail
// here, and routes that could be shared are allocated eagerly.
func MapNaive(trace []TraceInst, g fabric.Geometry, startPC, exitPC int) (*fabric.Config, error) {
	g.Validate()
	t := newTables(g, len(trace))
	defs := defsBefore(trace)
	placedPE := make([]int, len(trace))
	placedOps := make([][2]operandView, len(trace))
	rawOps := make([][2]fabric.Operand, len(trace))

	minStripe := 0
	for i := range trace {
		ops := staticOperands(trace, defs[i], i)
		fu := trace[i].Inst.Op.FU()
		placed := false
		for s := minStripe; s < g.Stripes && !placed; s++ {
			pe := t.anyFreePE(fu, s)
			if pe < 0 {
				continue
			}
			// Program order on an acyclic fabric: producers are
			// already placed (they precede i).
			if t.priorityGen(ops, s) < 0 {
				continue
			}
			rawOps[i] = t.place(i, defIDOf(trace, i), ops, s, pe)
			placedPE[i] = pe
			placedOps[i] = ops
			placed = true
			// The naive scheduler never revisits earlier stripes:
			// it follows program order with a forward-only frontier
			// (single-instruction scope).
			if s > minStripe {
				minStripe = s
			}
		}
		if !placed {
			return nil, &MapError{Reason: failureKind(t, ops, g), Index: i}
		}
	}
	return assemble(trace, g, t, placedPE, placedOps, rawOps, startPC, exitPC)
}

// MapStatic replays the resource-aware algorithm (Algorithms 1–3) offline in
// dataflow order: per stripe, rank every schedulable instruction by its
// priority score and fill the stripe's PEs greedily, advancing the frontier
// when nothing more fits. This is the same policy the online Session applies
// through the issue unit, without needing a running pipeline.
func MapStatic(trace []TraceInst, g fabric.Geometry, startPC, exitPC int) (*fabric.Config, error) {
	return MapStaticPolicy(trace, g, startPC, exitPC, Table2Policy)
}

// MapStaticPolicy is MapStatic with an explicit priority Policy (§4.2 makes
// the scoring mechanism a customization point; the ablation benchmarks use
// this to isolate the Table 2 scoring's contribution).
func MapStaticPolicy(trace []TraceInst, g fabric.Geometry, startPC, exitPC int, policy Policy) (*fabric.Config, error) {
	g.Validate()
	t := newTables(g, len(trace))
	t.policy = policy
	defs := defsBefore(trace)
	placedPE := make([]int, len(trace))
	placedOps := make([][2]operandView, len(trace))
	rawOps := make([][2]fabric.Operand, len(trace))
	done := make([]bool, len(trace))
	remaining := len(trace)

	for stripe := 0; stripe < g.Stripes && remaining > 0; stripe++ {
		for {
			// Candidates: unplaced instructions whose in-trace
			// producers are placed in stripes < stripe.
			bestIdx, bestPE, bestScore := -1, -1, -1
			var bestOps [2]operandView
			for i := range trace {
				if done[i] {
					continue
				}
				if !producersPlacedBefore(trace, defs, t, i, stripe) {
					continue
				}
				fu := trace[i].Inst.Op.FU()
				pe := t.anyFreePE(fu, stripe)
				if pe < 0 {
					continue
				}
				ops := staticOperands(trace, defs[i], i)
				if sc := t.priorityGen(ops, stripe); sc > bestScore {
					bestScore = sc
					bestIdx, bestPE = i, pe
					bestOps = ops
				}
			}
			if bestIdx < 0 {
				break // advance the frontier
			}
			rawOps[bestIdx] = t.place(bestIdx, defIDOf(trace, bestIdx), bestOps, stripe, bestPE)
			placedPE[bestIdx] = bestPE
			placedOps[bestIdx] = bestOps
			done[bestIdx] = true
			remaining--
		}
	}
	if remaining > 0 {
		for i := range trace {
			if !done[i] {
				ops := staticOperands(trace, defs[i], i)
				return nil, &MapError{Reason: failureKind(t, ops, g), Index: i}
			}
		}
	}
	return assemble(trace, g, t, placedPE, placedOps, rawOps, startPC, exitPC)
}

// defIDOf returns the value id produced by trace index i (the index itself),
// or -1 for instructions without a destination.
func defIDOf(trace []TraceInst, i int) int {
	in := trace[i].Inst
	if in.Op.HasDest() && in.Dest != isa.RegZero && in.Dest.Valid() {
		return i
	}
	return -1
}

// producersPlacedBefore reports whether every in-trace producer of i is
// placed in a stripe strictly before s.
func producersPlacedBefore(trace []TraceInst, defs []map[isa.Reg]int, t *tables, i, s int) bool {
	srcs, n := trace[i].Inst.Sources()
	for k := 0; k < n; k++ {
		r := srcs[k]
		if def, ok := defs[i][r]; ok && def < i {
			ps := t.stripeOf[def]
			if ps < 0 || ps >= s {
				return false
			}
		}
	}
	return true
}

// failureKind classifies why an instruction with the given operands cannot
// be placed anywhere.
func failureKind(t *tables, ops [2]operandView, g fabric.Geometry) FailReason {
	needInputs := 0
	seen := map[isa.Reg]bool{}
	for _, op := range ops {
		if op.valid && op.liveIn && !seen[op.arch] {
			seen[op.arch] = true
			needInputs++
		}
	}
	if needInputs > 1 {
		return FailPorts
	}
	for _, op := range ops {
		if op.valid && !op.liveIn {
			if _, ok := t.prodOf(op.valueID); ok && !t.canExtend(op.valueID, g.Stripes-1) {
				return FailRouting
			}
		}
	}
	return FailStripes
}
