// Package core is the DynaSpAM framework (§3): it couples the host
// out-of-order pipeline with trace detection (T-Cache), the issue-coupled
// resource-aware mapper, the configuration cache, and one or more spatial
// fabrics, orchestrating the three phases of trace acceleration — detection,
// mapping, and offloading.
//
// A System is built over a program with a Params bundle selecting the run
// mode: plain baseline, mapping-only (measures mapping overhead), or full
// acceleration with or without memory speculation. Run simulates to
// completion; the accessors expose everything the paper's tables and
// figures need.
package core

import (
	"context"
	"fmt"
	"slices"

	"dynaspam/internal/cfgcache"
	"dynaspam/internal/cpistack"
	"dynaspam/internal/fabric"
	"dynaspam/internal/isa"
	"dynaspam/internal/mapper"
	"dynaspam/internal/mem"
	"dynaspam/internal/ooo"
	"dynaspam/internal/probe"
	"dynaspam/internal/program"
	"dynaspam/internal/tcache"
)

// Mode selects how much of DynaSpAM is enabled.
type Mode int

const (
	// ModeBaseline is the plain host OOO pipeline.
	ModeBaseline Mode = iota
	// ModeMappingOnly detects and maps hot traces (incurring mapping
	// overhead) but never offloads them.
	ModeMappingOnly
	// ModeAccelNoSpec maps and offloads traces while conservatively
	// preserving all load-store and store-store orderings on the fabric.
	ModeAccelNoSpec
	// ModeAccel is full DynaSpAM: mapping, offloading, and store-sets
	// memory speculation.
	ModeAccel
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeBaseline:
		return "baseline"
	case ModeMappingOnly:
		return "mapping"
	case ModeAccelNoSpec:
		return "accel-nospec"
	case ModeAccel:
		return "accel-spec"
	}
	return "unknown"
}

// Offloads reports whether the mode executes traces on the fabric.
func (m Mode) Offloads() bool { return m == ModeAccel || m == ModeAccelNoSpec }

// Params configures a System.
type Params struct {
	Mode Mode
	// TraceLen caps the trace body length in instructions (the paper
	// sweeps 16–40 and settles on 32).
	TraceLen int
	// NumFabrics is the number of physical fabrics managed with LRU
	// reconfiguration (Table 5 models 1, 2, and 4).
	NumFabrics int
	// ReconfigPenalty is the cycle cost to load a configuration.
	ReconfigPenalty int

	// Sim selects the simulation fidelity policy (full detail, pure
	// fast-forward, or SMARTS-style sampled). The zero value is full
	// detail, which is bit-identical to the pre-policy simulator. The
	// struct is pure scalars so Params keeps satisfying the jobs memo
	// cache's %#v-key contract — cells simulated at different fidelities
	// can never alias one cache entry.
	Sim SimPolicy

	OOO      ooo.Config
	Geometry fabric.Geometry
	TCache   tcache.Config
	CfgCache cfgcache.Config
}

// DefaultParams returns the evaluation configuration of Table 4 in full
// acceleration mode.
func DefaultParams() Params {
	return Params{
		Mode:            ModeAccel,
		TraceLen:        32,
		NumFabrics:      1,
		ReconfigPenalty: 4,
		OOO:             ooo.DefaultConfig(),
		Geometry:        fabric.DefaultGeometry(),
		TCache:          tcache.DefaultConfig(),
		CfgCache:        cfgcache.DefaultConfig(),
	}
}

// Stats aggregates framework-level counters on top of the pipeline's own.
type Stats struct {
	TracesDetected  uint64 // T-Cache hot flips
	MappingSessions uint64
	TracesMapped    uint64 // configurations produced
	MappingFailed   uint64
	MappingAborted  uint64
	Offloads        uint64 // invocations injected
	OffloadDenied   uint64 // ready but FIFO-full or blocked-once
	TraceCommits    uint64
	TraceSquashes   uint64
	BranchExits     uint64
	MemOrderKills   uint64
	ExternalKills   uint64
	MappedCommits   uint64 // instructions committed during mapping sessions
	TracesDisabled  uint64 // configurations dropped for chronic exits

	// Invocation timing aggregates (diagnostics).
	InvocLatencySum uint64
	InvocCount      uint64
	InvocIISum      uint64
	InvocIICount    uint64
}

// System is one simulated machine instance.
type System struct {
	params Params
	prog   *program.Program
	cpu    *ooo.CPU
	tc     *tcache.TCache
	cc     *cfgcache.Cache
	fabs   *cfgcache.Fabrics

	session    *mapper.Session
	sessionKey tcache.TraceKey

	// offloadedKeys tracks which mapped traces ever ran on the fabric.
	offloadedKeys map[tcache.TraceKey]bool
	mappedKeys    map[tcache.TraceKey]bool
	// blockOnce marks traces that must run once on the host after a
	// squash (re-execution per §3.2).
	blockOnce map[tcache.TraceKey]bool
	// inflight counts in-flight invocations per configuration, bounded by
	// the FIFO depth.
	inflight map[*fabric.Config]int
	// pendingPenalty carries a reconfiguration penalty to the next
	// invocation of a config.
	pendingPenalty map[*fabric.Config]int
	// health tracks per-trace offload/exit counts for the chronic-exit
	// filter.
	health map[tcache.TraceKey]keyHealth
	// lastStarts holds each configuration's previous invocation schedule
	// (per-PE initiation constraint).
	lastStarts map[*fabric.Config][]int64
	// disabled blacklists traces that proved unstable (chronic exits or
	// repeated mapping aborts); cleared periodically so phase changes get
	// another chance.
	disabled      map[tcache.TraceKey]bool
	abortCount    map[tcache.TraceKey]int
	branchesSeen  uint64
	lastEval      map[*fabric.Config]uint64
	lastStoreDone int64

	// walkBuf is walkTrace's reusable trace-body buffer: the trace it
	// returns aliases it and is valid only until the next walk, so a
	// mapping session gets its own copy. offloads caches each
	// configuration's invocation lists, built once and shared read-only
	// by every TraceInject of that configuration.
	walkBuf  []mapper.TraceInst
	offloads map[*fabric.Config]*offloadLists

	stats Stats

	// Sampled-simulation bookkeeping (sample.go); untouched in full-detail
	// runs. simFFCycles accumulates the estimated cycle cost of
	// fast-forwarded regions (ff insts × most recent detailed-window CPI).
	simWindows  []WindowStat
	simFFInsts  uint64
	simFFCycles float64

	// probe is the attached observability tracer; nil (the default) means
	// tracing is disabled and every probe call below is a nil-receiver
	// no-op. inflightTotal mirrors the sum of inflight for the FIFO
	// occupancy probe point.
	probe         *probe.Probe
	inflightTotal int

	// cpiPrev is the last CPI-stack snapshot emitted to the probe's
	// counter track; the sampler sends per-cause deltas against it.
	// cpiPrevEst mirrors the synthetic estimated bucket the same way.
	cpiPrev    [cpistack.NumCauses]uint64
	cpiPrevEst uint64
}

// offloadLists are the per-configuration slices a TraceInject carries: the
// recorded direction of each conditional branch in trace order, and the
// simplified memory-instruction lists (§3.2). A configuration is immutable
// once mapped and the pipeline only reads these, so one copy serves every
// invocation.
type offloadLists struct {
	predDirs []bool
	loads    []int
	stores   []int
}

type keyHealth struct {
	offloads uint64
	commits  uint64
	exits    uint64
}

// New builds a System over prog and memory m.
func New(params Params, prog *program.Program, m *mem.Memory) *System {
	if params.TraceLen < 2 {
		panic("core: TraceLen must be at least 2")
	}
	s := &System{
		params:         params,
		prog:           prog,
		cpu:            ooo.New(params.OOO, prog, m, nil),
		tc:             tcache.New(params.TCache),
		cc:             cfgcache.New(params.CfgCache),
		fabs:           cfgcache.NewFabrics(params.NumFabrics, params.Geometry, params.ReconfigPenalty),
		offloadedKeys:  make(map[tcache.TraceKey]bool),
		mappedKeys:     make(map[tcache.TraceKey]bool),
		blockOnce:      make(map[tcache.TraceKey]bool),
		inflight:       make(map[*fabric.Config]int),
		pendingPenalty: make(map[*fabric.Config]int),
		health:         make(map[tcache.TraceKey]keyHealth),
		lastStarts:     make(map[*fabric.Config][]int64),
		disabled:       make(map[tcache.TraceKey]bool),
		abortCount:     make(map[tcache.TraceKey]int),
		lastEval:       make(map[*fabric.Config]uint64),
		offloads:       make(map[*fabric.Config]*offloadLists),
	}
	if params.Mode != ModeBaseline {
		s.cpu.SetHooks(s.hooks())
	}
	return s
}

// CPU exposes the underlying pipeline (stats, architectural state).
func (s *System) CPU() *ooo.CPU { return s.cpu }

// TCache exposes the trace detection unit.
func (s *System) TCache() *tcache.TCache { return s.tc }

// CfgCache exposes the configuration cache.
func (s *System) CfgCache() *cfgcache.Cache { return s.cc }

// Fabrics exposes the fabric manager.
func (s *System) Fabrics() *cfgcache.Fabrics { return s.fabs }

// Params returns the system's configuration.
func (s *System) Params() Params { return s.params }

// Stats returns the framework counters.
func (s *System) Stats() Stats { return s.stats }

// Probe returns the attached observability probe (nil when disabled).
func (s *System) Probe() *probe.Probe { return s.probe }

// SetProbe attaches p to the whole system: the pipeline hooks plus the
// detection, configuration-cache, and fabric probe points. It wires p's
// clock to the pipeline's cycle counter and its disassembler to the
// program, so exported events are cycle-stamped and labelled. In baseline
// mode — where New installs no hooks at all — it installs an observe-only
// hook set that feeds the probe without training the T-Cache or starting
// mapping sessions, so baseline behavior is bit-identical with and without
// tracing. Call with nil to detach (baseline observe-only hooks stay
// installed but become no-ops).
func (s *System) SetProbe(p *probe.Probe) {
	s.probe = p
	p.SetClock(s.cpu.Cycle)
	p.SetDisasm(func(pc int) string {
		if !s.prog.Valid(pc) {
			return ""
		}
		return s.prog.At(pc).String()
	})
	s.tc.SetProbe(p)
	s.cc.SetProbe(p)
	s.fabs.SetProbe(p)
	if p != nil {
		s.cpu.SetCPISampler(s.emitCPISamples)
	} else {
		s.cpu.SetCPISampler(nil)
	}
	if s.params.Mode == ModeBaseline && p != nil {
		s.cpu.SetHooks(s.observeHooks())
	}
}

// emitCPISamples sends the per-cause cycle deltas accumulated since the last
// sample to the probe as EvCPISample events (the Perfetto counter track).
// Attribution itself lives in the pipeline's stack; this only reads it, so a
// probed run stays cycle-identical to an unprobed one.
func (s *System) emitCPISamples(cycle uint64) {
	if s.probe == nil {
		return
	}
	st := s.cpu.CPIStack()
	for i, v := range st.Buckets {
		if d := v - s.cpiPrev[i]; d > 0 {
			s.probe.CPISample(cycle, int64(i), int64(d))
			s.cpiPrev[i] = v
		}
	}
}

// FlushCPISamples emits the final CPI-stack deltas (including the synthetic
// estimated bucket of reduced-fidelity runs) so the counter track's running
// totals reach the run's exact stack. Call once after the run completes.
func (s *System) FlushCPISamples() {
	if s.probe == nil {
		return
	}
	cycle := s.cpu.Cycle()
	s.emitCPISamples(cycle)
	if est := uint64(s.simFFCycles + 0.5); est > s.cpiPrevEst {
		s.probe.CPISample(cycle, int64(cpistack.CauseEstimated), int64(est-s.cpiPrevEst))
		s.cpiPrevEst = est
	}
}

// CPIStack returns the run's cycle-accounting stack: the pipeline's
// per-cause detail buckets plus the synthetic estimated bucket covering
// fast-forwarded regions, so Total() equals SimStats().EstCycles exactly
// under every SimPolicy.
func (s *System) CPIStack() cpistack.Stack {
	st := *s.cpu.CPIStack()
	st.Buckets[cpistack.CauseEstimated] = uint64(s.simFFCycles + 0.5)
	return st
}

// MappedTraces returns how many distinct traces were successfully mapped.
func (s *System) MappedTraces() int { return len(s.mappedKeys) }

// OffloadedTraces returns how many distinct traces ran on the fabric.
func (s *System) OffloadedTraces() int { return len(s.offloadedKeys) }

// Run simulates until the program halts.
func (s *System) Run() error {
	return s.RunCtx(context.Background())
}

// RunCtx simulates until the program halts or ctx is cancelled, whichever
// comes first. Parallel sweeps use it so one failing cell can stop the
// others mid-simulation. The Sim policy in Params selects fidelity: full
// detail runs the cycle-accurate pipeline end to end, while ff/sampled
// interleave functional fast-forwarding (see sample.go).
func (s *System) RunCtx(ctx context.Context) error {
	if s.params.Sim.Mode == SimFull {
		return s.cpu.RunCtx(ctx)
	}
	return s.runSampledCtx(ctx)
}

// observeHooks is the baseline-mode hook set: pipeline lifecycle events
// flow to the probe, but nothing feeds trace detection or mapping, so a
// probed baseline run is cycle-identical to an unprobed one.
func (s *System) observeHooks() ooo.Hooks {
	return ooo.Hooks{
		OnFetch: func(pc int, seq uint64) {
			if s.probe != nil {
				s.probe.Fetch(s.cpu.Cycle(), seq, pc)
			}
		},
		OnIssue: func(e *ooo.RSEntry, fu isa.FUType, unit int) {
			if s.probe != nil {
				s.probe.Issue(s.cpu.Cycle(), e.Seq(), e.PC(), int64(fu), int64(unit))
			}
		},
		OnWriteback: func(pc int, seq uint64) {
			if s.probe != nil {
				s.probe.Writeback(s.cpu.Cycle(), seq, pc)
			}
		},
		OnCommit: func(pc int, seq uint64, op isa.Op) {
			if s.probe != nil {
				s.probe.Commit(s.cpu.Cycle(), seq, pc)
			}
		},
		OnSquash: func(seqBoundary uint64) {
			if s.probe != nil {
				s.probe.PipelineSquash(s.cpu.Cycle(), seqBoundary)
			}
		},
	}
}

// hooks wires the framework into the pipeline.
func (s *System) hooks() ooo.Hooks {
	return ooo.Hooks{
		BeforeFetch: s.beforeFetch,
		OnFetch: func(pc int, seq uint64) {
			if s.probe != nil {
				s.probe.Fetch(s.cpu.Cycle(), seq, pc)
			}
			if s.session != nil {
				s.session.NoteFetched(pc, seq)
				s.checkSession()
			}
		},
		DispatchGate: func(pc int, seq uint64, robEmpty bool) bool {
			if s.session != nil {
				return s.session.GateDispatch(pc, seq, robEmpty)
			}
			return true
		},
		BeginIssue: func() {
			if s.session != nil {
				s.session.BeginIssue()
				s.checkSession()
			}
		},
		SelectOverride: func(fu isa.FUType, unit int, ready []*ooo.RSEntry) int {
			if s.session != nil {
				return s.session.Select(fu, unit, ready)
			}
			return 0
		},
		OnIssue: func(e *ooo.RSEntry, fu isa.FUType, unit int) {
			if s.probe != nil {
				s.probe.Issue(s.cpu.Cycle(), e.Seq(), e.PC(), int64(fu), int64(unit))
			}
			if s.session != nil {
				s.session.NoteIssued(e, fu, unit)
				s.checkSession()
			}
		},
		OnWriteback: func(pc int, seq uint64) {
			if s.probe != nil {
				s.probe.Writeback(s.cpu.Cycle(), seq, pc)
			}
			if s.session != nil {
				s.session.NoteWriteback(pc, seq)
				s.checkSession()
			}
		},
		OnCommit: func(pc int, seq uint64, op isa.Op) {
			if s.probe != nil {
				s.probe.Commit(s.cpu.Cycle(), seq, pc)
			}
			if s.session != nil {
				s.stats.MappedCommits++
			}
		},
		OnCommitBranch: func(pc int, taken bool) {
			s.noteBranch(pc, taken)
		},
		OnSquash: func(seqBoundary uint64) {
			if s.probe != nil {
				s.probe.PipelineSquash(s.cpu.Cycle(), seqBoundary)
			}
			if s.session != nil {
				s.session.Abort()
				s.checkSession()
			}
		},
	}
}

// noteBranch feeds one committed branch outcome to trace detection and
// periodically clears the instability blacklist (mirroring the paper's
// periodic counter clearing, §3.1).
func (s *System) noteBranch(pc int, taken bool) {
	if _, became := s.tc.OnBranchCommit(pc, taken); became {
		s.stats.TracesDetected++
	}
	s.branchesSeen++
	if s.branchesSeen%(1<<17) == 0 {
		clear(s.disabled)
		clear(s.abortCount)
	}
}

// abortSessionForSample reaps an in-flight mapping session before a
// sampled-simulation drain WITHOUT the instability penalty: the abort is an
// artifact of the sampling schedule, not of the trace's behavior, so it must
// not feed the abort-count blacklist (otherwise every hot trace gets
// disabled after a few windows and sampled runs stop offloading entirely).
func (s *System) abortSessionForSample() {
	if s.session == nil {
		return
	}
	s.session.Abort()
	s.stats.MappingAborted++
	if s.probe != nil {
		s.probe.MapEnd(s.cpu.Cycle(), s.sessionKey.AnchorPC, probe.MapAborted, 0)
	}
	s.session = nil
	s.cpu.SetMapperActive(false)
}

// checkSession reaps a finished or failed mapping session.
func (s *System) checkSession() {
	if s.session == nil {
		return
	}
	switch s.session.State() {
	case mapper.SessionDone:
		cfg := s.session.Config()
		s.cc.Store(s.sessionKey, cfg)
		s.mappedKeys[s.sessionKey] = true
		s.stats.TracesMapped++
		if s.probe != nil {
			s.probe.MapEnd(s.cpu.Cycle(), s.sessionKey.AnchorPC, probe.MapDone, len(cfg.Insts))
		}
		s.session = nil
		s.cpu.SetMapperActive(false)
	case mapper.SessionFailed:
		if s.probe != nil {
			outcome := probe.MapFailed
			if s.session.FailReason() == mapper.FailAborted {
				outcome = probe.MapAborted
			}
			s.probe.MapEnd(s.cpu.Cycle(), s.sessionKey.AnchorPC, outcome, 0)
		}
		if s.session.FailReason() == mapper.FailAborted {
			s.stats.MappingAborted++
			// A trace whose mapping keeps aborting (squashes or
			// fetch divergence) follows an unstable path; back off.
			s.abortCount[s.sessionKey]++
			if s.abortCount[s.sessionKey] >= 4 {
				s.disabled[s.sessionKey] = true
				s.tc.Unhot(s.sessionKey)
				s.stats.TracesDisabled++
			}
		} else {
			// Structurally unmappable: never retry.
			s.disabled[s.sessionKey] = true
			s.tc.Unhot(s.sessionKey)
			s.stats.MappingFailed++
		}
		s.session = nil
		s.cpu.SetMapperActive(false)
	}
}

// beforeFetch implements the fetch side of §3.1: on reaching a branch, look
// three predicted branches ahead, consult the T-Cache and configuration
// cache, and either inject an offloaded invocation, start a mapping session,
// or fall through to normal fetch.
func (s *System) beforeFetch(pc int) (*ooo.TraceInject, bool) {
	if s.session != nil {
		return nil, false
	}
	in := s.prog.At(pc)
	if !in.Op.IsBranch() {
		return nil, false
	}
	trace, key, exitPC, ok := s.walkTrace(pc)
	if !ok {
		return nil, false
	}
	if s.disabled[key] {
		return nil, false
	}

	if entry := s.cc.Lookup(key); entry != nil {
		state, _ := s.cc.Predicted(key)
		if state != cfgcache.StateReady || !s.params.Mode.Offloads() {
			return nil, false
		}
		if s.blockOnce[key] {
			delete(s.blockOnce, key)
			s.stats.OffloadDenied++
			s.probe.TraceDenied(s.cpu.Cycle(), pc, probe.DeniedBlockOnce)
			return nil, false
		}
		cfg := entry.Cfg
		if s.inflight[cfg] >= s.params.Geometry.FIFODepth {
			// Input FIFOs full: let the host execute this occurrence
			// rather than stall fetch behind a long drain.
			s.stats.OffloadDenied++
			s.probe.TraceDenied(s.cpu.Cycle(), pc, probe.DeniedFIFO)
			return nil, false
		}
		return s.inject(key, cfg), false
	}

	if !s.tc.IsHot(key) {
		return nil, false
	}
	// Hot but unmapped: begin a mapping session; the trace instructions
	// flow through the pipeline normally while the issue unit maps them.
	s.session = mapper.NewSession(slices.Clone(trace), s.params.Geometry, pc, exitPC)
	s.cpu.SetMapperActive(true)
	s.sessionKey = key
	s.stats.MappingSessions++
	s.probe.MapStart(s.cpu.Cycle(), pc, key.Dirs)
	return nil, false
}

// inject builds the fat atomic trace invocation for the pipeline.
func (s *System) inject(key tcache.TraceKey, cfg *fabric.Config) *ooo.TraceInject {
	inst, penalty := s.fabs.Acquire(key, cfg)
	if penalty > 0 {
		s.pendingPenalty[cfg] = penalty
	}
	s.fabs.NoteInvocation(cfg)
	s.inflight[cfg]++
	s.inflightTotal++
	s.offloadedKeys[key] = true
	s.stats.Offloads++
	// The running offload count doubles as the invocation id in probe
	// events, correlating inject/evaluate/commit/squash across tracks.
	invocID := s.stats.Offloads
	if s.probe != nil {
		s.probe.TraceInject(s.cpu.Cycle(), invocID, cfg.StartPC, cfg.ExitPC, len(cfg.Insts))
		s.probe.FIFOOccupancy(s.cpu.Cycle(), s.inflightTotal)
	}
	h := s.health[key]
	h.offloads++
	s.health[key] = h

	lists := s.offloadListsOf(cfg)
	tr := &ooo.TraceInject{
		StartPC:      cfg.StartPC,
		ExitPC:       cfg.ExitPC,
		LiveIns:      cfg.LiveIns,
		LiveOuts:     cfg.LiveOuts,
		NumInsts:     len(cfg.Insts),
		PredDirs:     lists.predDirs,
		LoadPCs:      lists.loads,
		StorePCs:     lists.stores,
		Conservative: s.params.Mode == ModeAccelNoSpec,
	}
	tr.Evaluate = func(in ooo.TraceInput) ooo.TraceResult {
		delay := s.pendingPenalty[cfg]
		delete(s.pendingPenalty, cfg)
		if s.probe != nil {
			s.probe.TraceEvalStart(in.Cycle, invocID, cfg.StartPC, int64(delay))
		}
		env := fabric.EvalEnv{
			ReadMem:      in.ReadMem,
			AccessMem:    s.cpu.Hierarchy().AccessData,
			MemDep:       s.cpu.MemDep(),
			Speculative:  s.params.Mode == ModeAccel,
			StartupDelay: delay,
		}
		res := inst.Run(fabric.Invocation{
			Cfg:        cfg,
			LiveIns:    in.LiveIns,
			Arrivals:   in.Arrivals,
			PrevStarts: s.lastStarts[cfg],
			Now:        int64(in.Cycle),
			OrderAfter: s.lastStoreDone,
		}, env)
		res.ConfigWait = delay
		if res.ExitMatches && !res.MemViolation {
			s.lastStarts[cfg] = res.StartTimes
			if res.LastStoreDone > s.lastStoreDone {
				s.lastStoreDone = res.LastStoreDone
			}
		}
		s.stats.InvocLatencySum += uint64(res.Latency)
		s.stats.InvocCount++
		ii := int64(-1)
		if last, ok := s.lastEval[cfg]; ok && in.Cycle > last {
			s.stats.InvocIISum += in.Cycle - last
			s.stats.InvocIICount++
			ii = int64(in.Cycle - last)
		}
		s.lastEval[cfg] = in.Cycle
		if s.probe != nil {
			end := in.Cycle + uint64(res.Latency)
			s.probe.TraceEvalEnd(end, invocID, cfg.StartPC, int64(res.Latency), int64(res.Ops), ii)
		}
		return res
	}
	// The FIFO entries free when the invocation completes on the fabric;
	// a squash before completion frees them too, exactly once.
	fifoFreed := false
	free := func() {
		if !fifoFreed {
			fifoFreed = true
			s.inflight[cfg]--
			s.inflightTotal--
			if s.probe != nil {
				s.probe.FIFOOccupancy(s.cpu.Cycle(), s.inflightTotal)
			}
		}
	}
	tr.OnComplete = free
	tr.OnCommit = func(res *ooo.TraceResult) {
		free()
		s.stats.TraceCommits++
		if s.probe != nil {
			s.probe.TraceCommit(s.cpu.Cycle(), invocID, cfg.StartPC, int64(res.Ops))
		}
		h := s.health[key]
		h.commits++
		s.health[key] = h
		for _, b := range res.Branches {
			s.noteBranch(b.PC, b.Taken)
		}
		// The result is fully consumed at commit; recycle its record
		// storage. (Squashed invocations keep theirs — the squash path
		// still reads Branches for predictor training.)
		inst.Release(res)
	}
	tr.OnSquash = func(kind ooo.SquashKind) {
		free()
		s.stats.TraceSquashes++
		if s.probe != nil {
			s.probe.TraceSquash(s.cpu.Cycle(), invocID, cfg.StartPC, int64(kind), kind.String())
		}
		switch kind {
		case ooo.SquashBranchExit:
			s.stats.BranchExits++
			s.blockOnce[key] = true
			s.noteExit(key)
		case ooo.SquashMemOrder:
			s.stats.MemOrderKills++
			s.blockOnce[key] = true
		case ooo.SquashExternal:
			s.stats.ExternalKills++
		}
	}
	return tr
}

// noteExit tracks per-trace branch-exit rates over evaluated invocations; a
// trace whose invocations chronically leave the recorded path wastes fabric
// work and squash bandwidth, so its configuration is dropped and its hot
// flag cleared until detection re-trains it.
func (s *System) noteExit(key tcache.TraceKey) {
	h := s.health[key]
	h.exits++
	s.health[key] = h
	evaluated := h.exits + h.commits
	if evaluated >= 8 && h.exits*4 >= evaluated {
		s.cc.Invalidate(key)
		s.tc.Unhot(key)
		s.disabled[key] = true
		delete(s.health, key)
		s.stats.TracesDisabled++
	}
}

// walkTrace follows the predicted path from the anchor branch at pc,
// predicting up to three branch directions to form the trace key, and
// collecting the trace body up to the length cap, the fourth branch, or a
// halt. The returned trace aliases s.walkBuf: it is valid only until the
// next call, and a caller that keeps it must copy it.
func (s *System) walkTrace(pc int) (trace []mapper.TraceInst, key tcache.TraceKey, exitPC int, ok bool) {
	if !s.prog.Valid(pc) || !s.prog.At(pc).Op.IsBranch() {
		return nil, tcache.TraceKey{}, 0, false
	}
	bp := s.cpu.Branch()
	hist := bp.History()
	savedHist := hist
	key = tcache.TraceKey{AnchorPC: pc}
	trace = s.walkBuf[:0]
	cur := pc
	branches := 0
	for steps := 0; steps < 4*s.params.TraceLen; steps++ {
		if !s.prog.Valid(cur) {
			break
		}
		in := s.prog.At(cur)
		if in.Op == isa.OpHalt {
			break
		}
		bodyFull := len(trace) >= s.params.TraceLen
		if in.Op.IsBranch() {
			if branches == tcache.HistoryLen {
				break // fourth branch ends both key walk and body
			}
			var taken bool
			if in.Op == isa.OpJmp {
				taken = true
			} else {
				bp.Restore(hist)
				taken = bp.PredictDirection(uint64(cur))
				hist = hist<<1 | boolBit(taken)
			}
			key.SetDir(branches, taken)
			if !bodyFull {
				trace = append(trace, mapper.TraceInst{PC: cur, Inst: in, ExpectTaken: taken})
				exitPC = nextPC(cur, in, taken)
			}
			branches++
			cur = nextPC(cur, in, taken)
			continue
		}
		if !bodyFull {
			trace = append(trace, mapper.TraceInst{PC: cur, Inst: in})
			exitPC = cur + 1
		}
		cur++
	}
	bp.Restore(savedHist)
	s.walkBuf = trace // keep any growth for the next walk
	if branches < tcache.HistoryLen || len(trace) < 2 {
		return nil, tcache.TraceKey{}, 0, false
	}
	// Alignment: a trace that the length cap cut mid-block exits into the
	// middle of a basic block, forcing the block's remainder onto the
	// host every invocation (the paper's Figure 7 coverage effect). Trim
	// such traces to end just before their last internal branch, so the
	// exit lands on the next trace's anchor and invocations chain
	// back-to-back.
	// Very short aligned traces are not worth an invocation's overhead,
	// so only trim when a reasonable body remains.
	if s.prog.Valid(exitPC) && !s.prog.At(exitPC).Op.IsBranch() {
		for cut := len(trace) - 1; cut >= 8; cut-- {
			if trace[cut].Inst.Op.IsBranch() {
				exitPC = trace[cut].PC
				trace = trace[:cut]
				break
			}
		}
	}
	return trace, key, exitPC, true
}

// offloadListsOf returns cfg's invocation lists, building them on the
// configuration's first offload.
func (s *System) offloadListsOf(cfg *fabric.Config) *offloadLists {
	if l := s.offloads[cfg]; l != nil {
		return l
	}
	l := &offloadLists{}
	for i := range cfg.Insts {
		mi := &cfg.Insts[i]
		switch {
		case mi.Inst.Op.IsCondBranch():
			l.predDirs = append(l.predDirs, mi.ExpectTaken)
		case mi.Inst.Op.IsLoad():
			l.loads = append(l.loads, mi.PC)
		case mi.Inst.Op.IsStore():
			l.stores = append(l.stores, mi.PC)
		}
	}
	s.offloads[cfg] = l
	return l
}

func nextPC(pc int, in isa.Inst, taken bool) int {
	if taken {
		return in.Target
	}
	return pc + 1
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Verify checks framework invariants after a run; tests call it.
func (s *System) Verify() error {
	// Count violations instead of returning mid-iteration: map order is
	// randomized, so an early return (and a %p-formatted pointer) would
	// make the error message differ across runs.
	leaked := 0
	for _, n := range s.inflight {
		if n != 0 {
			leaked++
		}
	}
	if leaked > 0 {
		return fmt.Errorf("core: %d config(s) have in-flight invocations after halt", leaked)
	}
	if s.stats.Offloads != s.stats.TraceCommits+s.stats.TraceSquashes {
		return fmt.Errorf("core: offload accounting: %d injected, %d committed, %d squashed",
			s.stats.Offloads, s.stats.TraceCommits, s.stats.TraceSquashes)
	}
	return nil
}
