// Sampled and fast-forward simulation (the simulation-fidelity plane).
//
// Full-detail simulation runs every instruction through the cycle-accurate
// out-of-order pipeline. That fidelity costs ~tens of milliseconds per
// million instructions, which caps affordable workload sizes. The two
// reduced-fidelity policies here trade measured cycles for wall-clock speed
// while keeping architectural state exact:
//
//   - SimFastForward executes the whole program on the functional
//     interpreter (internal/interp) over the pipeline's own memory,
//     training the branch predictor and the T-Cache hot counters from the
//     committed branch stream, and runs only the final halt in detail.
//     Cycle counts are estimated at CPI 1.0 — useful for functional
//     shakedown and predictor/T-Cache warmth studies, not timing.
//
//   - SimSampled is SMARTS-style systematic sampling: alternate a detailed
//     region (Warmup unmeasured commits, then a DetailWindow measured
//     window), a pipeline drain to the commit point, and an FFInterval
//     functional fast-forward, until the program halts. Total cycles are
//     estimated as the actual detailed cycles plus each fast-forwarded
//     region's instruction count scaled by the CPI of the most recent
//     measured window.
//
// State handoff is exact in both directions: the drain makes the committed
// register map the whole truth, the interpreter shares the pipeline's
// *mem.Memory, and SetArchReg/SetPC re-seed the drained pipeline. The only
// fidelity loss is timing (cache/predictor aging during fast-forward and
// the estimated CPI of skipped regions) — final memory still must match the
// golden reference, and experiments.Run keeps verifying that at every
// fidelity.
package core

import (
	"context"
	"fmt"
	"math"

	"dynaspam/internal/interp"
	"dynaspam/internal/isa"
	"dynaspam/internal/ooo"
)

// SimMode selects the simulation fidelity policy.
type SimMode int

const (
	// SimFull is cycle-accurate detailed simulation of every instruction
	// (the default; bit-identical to the pre-policy simulator).
	SimFull SimMode = iota
	// SimFastForward executes functionally at interpreter speed, training
	// the branch predictor and T-Cache, with only the halt in detail.
	SimFastForward
	// SimSampled interleaves detailed measurement windows with functional
	// fast-forward regions (SMARTS-style systematic sampling).
	SimSampled
)

// String implements fmt.Stringer; the names match the -sim-policy flag and
// the jobs API's "sim_policy" field.
func (m SimMode) String() string {
	switch m {
	case SimFull:
		return "full"
	case SimFastForward:
		return "ff"
	case SimSampled:
		return "sampled"
	}
	return "unknown"
}

// ParseSimMode maps a policy name to its SimMode. The empty string means
// full detail.
func ParseSimMode(name string) (SimMode, bool) {
	switch name {
	case "", "full":
		return SimFull, true
	case "ff":
		return SimFastForward, true
	case "sampled":
		return SimSampled, true
	}
	return 0, false
}

// SimPolicy configures the fidelity plane. All fields are instruction
// counts; zero means the default. Pure scalars by design (see Params.Sim).
type SimPolicy struct {
	Mode SimMode
	// FFInterval is the number of instructions fast-forwarded per region.
	FFInterval uint64
	// Warmup is the number of detailed commits run unmeasured before each
	// measurement window, absorbing drained-pipeline and cold-structure
	// transients.
	Warmup uint64
	// DetailWindow is the number of detailed commits measured per sampling
	// period; its CPI prices the following fast-forward region.
	DetailWindow uint64
}

// Default sampling geometry: ~2.6% detailed duty cycle, windows long enough
// to settle the ROB and T-Cache after a drain.
const (
	defaultFFInterval   = 1_000_000
	defaultWarmup       = 6_000
	defaultDetailWindow = 20_000
)

// withDefaults fills zero fields with the default sampling geometry.
func (p SimPolicy) withDefaults() SimPolicy {
	if p.FFInterval == 0 {
		p.FFInterval = defaultFFInterval
	}
	if p.Warmup == 0 {
		p.Warmup = defaultWarmup
	}
	if p.DetailWindow == 0 {
		p.DetailWindow = defaultDetailWindow
	}
	return p
}

// WindowStat records one measured detailed window of a sampled run.
// Start/End pairs are the pipeline's cumulative cycle and committed-
// instruction counters at the window boundaries, and EndStats is the full
// pipeline counter snapshot at window end — the window-equivalence test
// compares it against a full-detail run driven to the same commit quota.
type WindowStat struct {
	StartCycle uint64
	EndCycle   uint64
	StartInsts uint64
	EndInsts   uint64
	// FFInsts is the length of the fast-forward region priced by this
	// window's CPI (filled after the region runs).
	FFInsts  uint64
	EndStats ooo.Stats
}

// CPI returns the window's cycles per committed instruction.
func (w WindowStat) CPI() float64 {
	if w.EndInsts <= w.StartInsts {
		return 1
	}
	return float64(w.EndCycle-w.StartCycle) / float64(w.EndInsts-w.StartInsts)
}

// SimStats summarizes a run's fidelity accounting. For full-detail runs it
// degenerates to the pipeline's own counters with EstCycles == DetailCycles.
type SimStats struct {
	// Policy is the normalized policy the run used (defaults filled in).
	Policy SimPolicy
	// Windows is the number of measured detailed windows (0 outside
	// sampled mode).
	Windows int
	// FFInsts is the number of instructions executed by fast-forward;
	// DetailInsts the number committed by the detailed pipeline.
	FFInsts     uint64
	DetailInsts uint64
	// DetailCycles is the pipeline's actual cycle count; EstCycles adds
	// the estimated cost of fast-forwarded regions.
	DetailCycles uint64
	EstCycles    uint64
}

// SimStats returns the run's fidelity accounting.
func (s *System) SimStats() SimStats {
	cs := s.cpu.Stats()
	st := SimStats{
		Policy:       s.params.Sim.withDefaults(),
		Windows:      len(s.simWindows),
		FFInsts:      s.simFFInsts,
		DetailInsts:  cs.Committed,
		DetailCycles: cs.Cycles,
		EstCycles:    cs.Cycles + uint64(s.simFFCycles+0.5),
	}
	return st
}

// SimWindows returns the recorded measurement windows (capped; sampled mode
// only).
func (s *System) SimWindows() []WindowStat { return s.simWindows }

// simWindowCap bounds per-run window bookkeeping; beyond it windows still
// measure CPI but are no longer recorded individually.
const simWindowCap = 4096

// maxFFInsts guards against a fast-forward that never reaches the halt
// (the functional analogue of the pipeline's cycle budget).
const maxFFInsts = 100_000_000_000

// runSampledCtx drives the SimFastForward and SimSampled policies: detailed
// regions on the pipeline, fast-forward regions on the interpreter, with a
// drained-pipeline state handoff between them. The final halt always
// commits in detail, so every run ends in a fully architectural state.
func (s *System) runSampledCtx(ctx context.Context) error {
	pol := s.params.Sim.withDefaults()
	it := interp.New(s.cpu.Mem())
	lastCPI := 1.0
	atHalt := false
	for !atHalt {
		if pol.Mode == SimSampled {
			if err := s.cpu.RunCommitsCtx(ctx, pol.Warmup); err != nil {
				return err
			}
			if s.cpu.Stats().HaltSeen {
				break
			}
			w0 := s.cpu.Stats()
			if err := s.cpu.RunCommitsCtx(ctx, pol.DetailWindow); err != nil {
				return err
			}
			w1 := s.cpu.Stats()
			if w1.Committed > w0.Committed && w1.Cycles > w0.Cycles {
				win := WindowStat{
					StartCycle: w0.Cycles, EndCycle: w1.Cycles,
					StartInsts: w0.Committed, EndInsts: w1.Committed,
					EndStats: w1,
				}
				lastCPI = win.CPI()
				if len(s.simWindows) < simWindowCap {
					s.simWindows = append(s.simWindows, win)
				}
			}
			if w1.HaltSeen {
				break
			}
		}
		// Leave detail: a mapping session gates dispatch on its own fetch
		// stream, which a fetch-suppressed drain would never deliver, so
		// reap it first — without the instability penalty, since the abort
		// is the sampler's fault, not the trace's.
		s.abortSessionForSample()
		if err := s.cpu.DrainCtx(ctx); err != nil {
			return err
		}
		if s.cpu.Stats().HaltSeen {
			break
		}
		s.archToInterp(it)
		n, halted, err := s.fastForward(ctx, it, pol.FFInterval)
		if err != nil {
			return err
		}
		s.simFFInsts += n
		s.simFFCycles += float64(n) * lastCPI
		if k := len(s.simWindows); k > 0 {
			s.simWindows[k-1].FFInsts += n
		}
		s.interpToArch(it)
		if pol.Mode == SimFastForward {
			atHalt = halted
		}
		if s.simFFInsts > maxFFInsts {
			return fmt.Errorf("core: fast-forward budget %d exhausted at pc %d (deadlock?)", uint64(maxFFInsts), it.PC)
		}
	}
	// Commit the remaining detailed tail — at minimum the halt itself.
	if !s.cpu.Stats().HaltSeen {
		if err := s.cpu.RunCtx(ctx); err != nil {
			return err
		}
	}
	return nil
}

// fastForward executes up to n instructions functionally, stopping early at
// the halt (which is never executed here: the detailed pipeline always
// commits it, so sampled runs end exactly like full-detail ones). Committed
// branch outcomes train the direction predictor, BTB, and T-Cache the same
// way detailed commit does, so trace detection and prediction accuracy keep
// evolving through skipped regions. Returns the instruction count and
// whether the next instruction is the halt.
func (s *System) fastForward(ctx context.Context, it *interp.State, n uint64) (uint64, bool, error) {
	bp := s.cpu.Branch()
	hier := s.cpu.Hierarchy()
	prog := s.prog
	var done uint64
	for done < n {
		if done&8191 == 0 {
			if err := ctx.Err(); err != nil {
				return done, false, fmt.Errorf("core: fast-forward cancelled after %d insts: %w", done, err)
			}
		}
		if !prog.Valid(it.PC) {
			return done, false, fmt.Errorf("core: fast-forward pc %d out of range in %s", it.PC, prog.Name)
		}
		in := &prog.Insts[it.PC]
		if in.Op == isa.OpHalt {
			return done, true, nil
		}
		switch {
		case in.Op == isa.OpJmp:
			bp.UpdateBTB(uint64(it.PC), in.Target)
			s.noteBranch(it.PC, true)
		case in.Op.IsCondBranch():
			pc := uint64(it.PC)
			hist := bp.History()
			pred := bp.PredictDirection(pc)
			taken := isa.BranchTaken(in.Op, it.ReadReg(in.Src1), it.ReadReg(in.Src2))
			target := it.PC + 1
			if taken {
				target = in.Target
			}
			bp.Update(pc, hist, taken, target, pred != taken)
			bp.SpeculateHistory(taken)
			s.noteBranch(it.PC, taken)
		case in.Op == isa.OpLd || in.Op == isa.OpFLd:
			// Functional cache warming: age the data hierarchy's tags/LRU
			// through the skipped region so detailed windows start with
			// realistic cache contents (the statistics counters are
			// preserved — see Hierarchy.WarmData).
			hier.WarmData(uint64(it.ReadReg(in.Src1)+in.Imm), false)
		case in.Op == isa.OpSt || in.Op == isa.OpFSt:
			hier.WarmData(uint64(it.ReadReg(in.Src1)+in.Imm), true)
		}
		if err := it.Step(prog); err != nil {
			return done, false, err
		}
		done++
	}
	return done, false, nil
}

// archToInterp copies the drained pipeline's architectural state into the
// interpreter (memory is already shared).
func (s *System) archToInterp(it *interp.State) {
	for r := 1; r < isa.NumIntRegs; r++ {
		it.IntRegs[r] = s.cpu.ArchRegInt(isa.Reg(r))
	}
	for i := 0; i < isa.NumFPRegs; i++ {
		it.FPRegs[i] = s.cpu.ArchRegFloat(isa.Reg(isa.FPBase + i))
	}
	it.PC = s.cpu.ArchPC()
}

// interpToArch writes the interpreter's state back into the drained
// pipeline and redirects fetch to the interpreter's PC.
func (s *System) interpToArch(it *interp.State) {
	for r := 1; r < isa.NumIntRegs; r++ {
		s.cpu.SetArchReg(isa.Reg(r), uint64(it.IntRegs[r]))
	}
	for i := 0; i < isa.NumFPRegs; i++ {
		s.cpu.SetArchReg(isa.Reg(isa.FPBase+i), math.Float64bits(it.FPRegs[i]))
	}
	s.cpu.SetPC(it.PC)
}
