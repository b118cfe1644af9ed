package experiments

import (
	"dynaspam/internal/interp"
	"dynaspam/internal/isa"
	"dynaspam/internal/mapper"
	"dynaspam/internal/tcache"
	"dynaspam/internal/workloads"
)

// SampleTraces extracts the distinct dynamic trace shapes a workload
// produces, using the same trace-formation rules as the online framework
// (anchor at a branch, follow the actual path, end at the fourth branch or
// the length cap). It drives the reference interpreter, so the traces are
// the real hot paths, not predictions. Used by the mapping ablation.
func SampleTraces(w *workloads.Workload, traceLen int) [][]mapper.TraceInst {
	m := w.NewMemory()
	s := interp.New(m)
	s.TraceBranches = true
	if err := s.Run(w.Prog, w.MaxInsts); err != nil {
		return nil
	}

	// Replay the branch outcome stream, forming a trace at every branch
	// anchor and deduplicating by (anchor, first-3-directions).
	seen := make(map[tcache.TraceKey]bool)
	var out [][]mapper.TraceInst

	outcomes := s.Branches
	for i := 0; i < len(outcomes); i++ {
		if i+tcache.HistoryLen > len(outcomes) {
			break
		}
		k := tcache.TraceKey{AnchorPC: outcomes[i].PC}
		for d := 0; d < tcache.HistoryLen; d++ {
			k.SetDir(d, outcomes[i+d].Taken)
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		tr := buildTrace(w, outcomes, i, traceLen)
		if len(tr) >= 2 {
			out = append(out, tr)
		}
	}
	return out
}

// buildTrace walks the static program along the recorded outcome stream
// starting at branch occurrence b0, collecting up to traceLen instructions
// or until the fourth branch.
func buildTrace(w *workloads.Workload, outcomes []interp.BranchOutcome, b0, traceLen int) []mapper.TraceInst {
	var tr []mapper.TraceInst
	pc := outcomes[b0].PC
	bIdx := b0
	branches := 0
	for len(tr) < traceLen {
		if !w.Prog.Valid(pc) {
			break
		}
		in := w.Prog.At(pc)
		if in.Op == isa.OpHalt {
			break
		}
		if in.Op.IsBranch() {
			if branches == tcache.HistoryLen {
				break
			}
			if bIdx >= len(outcomes) || outcomes[bIdx].PC != pc {
				break // outcome stream exhausted
			}
			taken := outcomes[bIdx].Taken
			bIdx++
			branches++
			tr = append(tr, mapper.TraceInst{PC: pc, Inst: in, ExpectTaken: taken})
			if taken {
				pc = in.Target
			} else {
				pc++
			}
			continue
		}
		tr = append(tr, mapper.TraceInst{PC: pc, Inst: in})
		pc++
	}
	return tr
}
