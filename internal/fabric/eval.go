package fabric

import (
	"math"

	"dynaspam/internal/isa"
	"dynaspam/internal/memdep"
	"dynaspam/internal/ooo"
	"dynaspam/internal/probe"
)

// EvalEnv supplies the environment for one invocation: the memory view at
// the invocation's position in program order, the timing model of the shared
// cache hierarchy, and the store-sets unit.
type EvalEnv struct {
	// ReadMem reads 8 bytes with full forwarding from older in-flight
	// stores (provided by the host pipeline).
	ReadMem func(addr uint64) uint64
	// AccessMem returns the cache access latency for addr and charges the
	// hierarchy.
	AccessMem func(addr uint64, write bool) int
	// MemDep is the shared store-sets predictor; nil disables prediction
	// (every unrelated load issues freely and risks violations).
	MemDep *memdep.Predictor
	// Speculative selects the paper's "w/ speculation" mode; when false
	// every memory operation conservatively orders after all older
	// loads/stores ("w/o speculation").
	Speculative bool
	// StartupDelay is added before any operand is available (e.g.
	// reconfiguration in progress when the invocation arrives).
	StartupDelay int
}

// Invocation describes one run of a configuration with full pipelining
// context. Times are absolute cycles of the host clock.
type Invocation struct {
	Cfg     *Config
	LiveIns []uint64
	// Arrivals gives the cycle each live-in value reaches its input FIFO;
	// nil means all arrive at Now. The input FIFOs decouple operand
	// delivery from invocation start (§3.2), so an instruction depending
	// only on early live-ins starts before late ones arrive.
	Arrivals []int64
	// PrevStarts, when non-nil, holds the per-instruction start cycles of
	// the same configuration's previous invocation; each PE accepts a new
	// operation at most once per cycle, bounding the initiation interval.
	PrevStarts []int64
	// Now is the evaluation cycle (when the last required input resolved).
	Now int64
	// OrderAfter, in conservative (no-speculation) mode, forces every
	// memory operation to start after this absolute cycle — the
	// completion time of the youngest store of older invocations, so
	// load/store order is preserved across invocations, not just inside
	// one.
	OrderAfter int64
}

// Stats accumulates fabric activity across invocations, feeding the energy
// model.
type Stats struct {
	Invocations    uint64
	OpsExecuted    uint64
	FUOps          [isa.NumFUTypes]uint64
	PassRegMoves   uint64 // pass-register hops traversed
	GlobalBusMoves uint64 // live-in/live-out bus transfers
	Loads          uint64
	Stores         uint64
	Violations     uint64
	EarlyExits     uint64
	ActivePECycles uint64 // powered-on PE-cycles (power gating model)
	IdlePECycles   uint64 // gated PE-cycles
}

// bufStore is one entry of the in-invocation store buffer used for
// forwarding, youngest-last.
type bufStore struct {
	idx   int
	addr  uint64
	value uint64
}

// evalScratch holds per-invocation working state reused across Run calls so
// steady-state evaluation allocates nothing. All slices are owned by the
// fabric and sized to the largest configuration seen.
type evalScratch struct {
	values    []uint64
	start     []int64
	done      []int64
	stores    []bufStore
	perStripe []int
	// lastCfg is the configuration the values scratch was last evaluated
	// with. Consecutive invocations of one configuration skip the
	// per-invocation zeroing of values: every producing op writes its slot
	// before any consumer reads it (strict index-order evaluation), and
	// non-producing slots are never read, so the batch reuse is
	// bit-identical to a zeroed scratch.
	lastCfg *Config
	// stripeCfg marks the configuration perStripe currently describes, so
	// batched invocations skip the per-invocation stripe walk in finish.
	stripeCfg *Config
}

// recordSet is a bundle of result-record backing arrays. Run pops one from
// the fabric's free list and Release returns it, so callers that release
// their results recycle record storage; callers that never call Release get
// the seed behavior (freshly grown slices, garbage collected).
type recordSet struct {
	loads        []ooo.LoadRecord
	stores       []ooo.StoreRecord
	branches     []ooo.BranchRec
	liveOuts     []uint64
	liveOutDelay []int
}

// startPair double-buffers a configuration's StartTimes. The previous
// invocation's schedule stays readable (the pipeline holds it as PrevStarts)
// while the next invocation writes the other buffer.
type startPair struct {
	bufs [2][]int64
	cur  int
}

// Fabric is one physical fabric instance: a geometry plus the currently
// loaded configuration and accumulated stats.
type Fabric struct {
	Geom Geometry

	cfg   *Config
	stats Stats
	probe *probe.Probe

	scratch evalScratch
	recPool []recordSet
	starts  map[*Config]*startPair
}

// New returns a fabric with no configuration loaded.
func New(g Geometry) *Fabric {
	g.Validate()
	return &Fabric{Geom: g}
}

// Configure loads cfg, returning the reconfiguration penalty in cycles
// (zero when cfg is already loaded).
func (f *Fabric) Configure(cfg *Config, penalty int) int {
	if f.cfg == cfg {
		return 0
	}
	f.cfg = cfg
	return penalty
}

// Configured returns the loaded configuration (nil if none).
func (f *Fabric) Configured() *Config { return f.cfg }

// SetProbe attaches the observability probe (nil disables; the default).
func (f *Fabric) SetProbe(p *probe.Probe) { f.probe = p }

// Stats returns a copy of the accumulated counters.
func (f *Fabric) Stats() Stats { return f.stats }

// getRecordSet pops a recycled record bundle, or a zero bundle when the pool
// is empty (its nil slices grow on first append, exactly like the seed).
func (f *Fabric) getRecordSet() recordSet {
	if n := len(f.recPool); n > 0 {
		rs := f.recPool[n-1]
		f.recPool[n-1] = recordSet{}
		f.recPool = f.recPool[:n-1]
		return rs
	}
	return recordSet{}
}

// Release returns res's record slices to the fabric's free list and sets
// them to nil, so a later read, write or Release through res sees nil,
// never another invocation's records. Call it once the result is fully
// consumed: the framework releases every result in the invocation's
// terminal callback, at commit or squash, after the pipeline has read what
// it needs (ooo.TraceHandler). StartTimes is not pooled — the pipeline
// retains it as the next invocation's PrevStarts. Releasing the same result
// twice is a no-op.
func (f *Fabric) Release(res *ooo.TraceResult) {
	if res.Loads == nil && res.Stores == nil && res.Branches == nil &&
		res.LiveOuts == nil && res.LiveOutDelay == nil {
		return
	}
	f.recPool = append(f.recPool, recordSet{
		loads:        res.Loads[:0],
		stores:       res.Stores[:0],
		branches:     res.Branches[:0],
		liveOuts:     res.LiveOuts[:0],
		liveOutDelay: res.LiveOutDelay[:0],
	})
	res.Loads = nil
	res.Stores = nil
	res.Branches = nil
	res.LiveOuts = nil
	res.LiveOutDelay = nil
}

// grow readies the scratch arrays for an n-instruction invocation.
func (s *evalScratch) grow(n int) {
	if cap(s.values) < n {
		s.values = make([]uint64, n)
		s.start = make([]int64, n)
		s.done = make([]int64, n)
	}
	s.values = s.values[:n]
	s.start = s.start[:n]
	s.done = s.done[:n]
	s.stores = s.stores[:0]
}

// publishStarts copies the scratch schedule into cfg's double buffer and
// returns the stable copy handed to the caller. Only successful invocations
// publish: the pipeline feeds the returned slice back as PrevStarts while
// the next invocation writes the other buffer, so the reader never sees a
// partially overwritten schedule.
func (f *Fabric) publishStarts(cfg *Config, start []int64) []int64 {
	if f.starts == nil {
		f.starts = make(map[*Config]*startPair)
	}
	p := f.starts[cfg]
	if p == nil {
		p = &startPair{}
		f.starts[cfg] = p
	}
	buf := p.bufs[p.cur]
	if cap(buf) < len(start) {
		buf = make([]int64, len(start))
	}
	buf = buf[:len(start)]
	copy(buf, start)
	p.bufs[p.cur] = buf
	p.cur ^= 1
	return buf
}

// Evaluate runs one invocation of the loaded configuration with all live-ins
// arriving now and no pipelining context (convenience form for tests and
// single-shot use). It panics if no configuration is loaded.
func (f *Fabric) Evaluate(liveIns []uint64, env EvalEnv) ooo.TraceResult {
	if f.cfg == nil {
		panic("fabric: Evaluate without configuration")
	}
	return f.Run(Invocation{Cfg: f.cfg, LiveIns: liveIns}, env)
}

// Run executes one invocation functionally and computes its dataflow
// schedule. Latency and live-out delays in the result are relative to
// inv.Now; StartTimes are absolute, for the next invocation's initiation
// constraint.
func (f *Fabric) Run(inv Invocation, env EvalEnv) ooo.TraceResult {
	cfg := inv.Cfg
	if cfg == nil {
		panic("fabric: Run with nil config")
	}
	f.stats.Invocations++

	n := len(cfg.Insts)
	f.scratch.grow(n)
	values, start, done := f.scratch.values, f.scratch.start, f.scratch.done
	// Non-producing ops (branches, stores) never write their value slot;
	// clear the scratch on a configuration switch so a stale value can
	// never leak between configurations the way a fresh allocation's zero
	// could not. Back-to-back invocations of one configuration — the
	// batched steady state — skip the O(n) clear: each producing slot is
	// rewritten in index order before any consumer reads it.
	if f.scratch.lastCfg != cfg {
		for i := range values {
			values[i] = 0
		}
		f.scratch.lastCfg = cfg
	}

	rs := f.getRecordSet()
	res := ooo.TraceResult{
		ExitMatches:  true,
		ActualExitPC: cfg.ExitPC,
		Loads:        rs.loads,
		Stores:       rs.stores,
		Branches:     rs.branches,
		// Empty until the invocation completes; an early exit returns
		// them empty, so Release still recycles their storage.
		LiveOuts:     rs.liveOuts,
		LiveOutDelay: rs.liveOutDelay,
	}

	maxDone := inv.Now
	for i := 0; i < n; i++ {
		mi := &cfg.Insts[i]
		op := mi.Inst.Op

		// Operand values and ready times.
		var a, b uint64
		ready := int64(1 + env.StartupDelay)
		if inv.PrevStarts != nil {
			// The PE accepts one operation per cycle.
			if t := inv.PrevStarts[i] + 1; t > ready {
				ready = t
			}
		}
		for s := 0; s < 2; s++ {
			src := mi.Src[s]
			var v uint64
			var at int64
			switch src.Kind {
			case SrcNone:
				continue
			case SrcLiveIn:
				v = inv.LiveIns[src.Index]
				// Live-in arrival: FIFO entry time (capped at Now) plus
				// one global-bus cycle and any startup delay.
				at = inv.Now
				if inv.Arrivals != nil {
					at = inv.Arrivals[src.Index]
					if at > inv.Now {
						at = inv.Now
					}
				}
				at += 1 + int64(env.StartupDelay)
				f.stats.GlobalBusMoves++
			case SrcProducer:
				v = values[src.Index]
				at = done[src.Index] + int64(src.Hops)
				f.stats.PassRegMoves += uint64(src.Hops)
			}
			if s == 0 {
				a = v
			} else {
				b = v
			}
			if at > ready {
				ready = at
			}
		}

		// Memory-ordering constraints on start time.
		if op.IsMem() {
			if env.Speculative {
				if op.IsStore() {
					// Stores never run ahead of older stores to
					// preserve write order in the reservation
					// buffer.
					for _, s := range f.scratch.stores {
						if done[s.idx] > ready {
							ready = done[s.idx]
						}
					}
				} else if env.MemDep != nil {
					// Loads order after predicted-dependent
					// older stores only.
					for _, s := range f.scratch.stores {
						if env.MemDep.SameSet(uint64(mi.PC), uint64(cfg.Insts[s.idx].PC)) && done[s.idx] > ready {
							ready = done[s.idx]
						}
					}
				}
			} else {
				// Conservative: order after every older memory op,
				// including the stores of older invocations.
				if inv.OrderAfter > ready {
					ready = inv.OrderAfter
				}
				for j := 0; j < i; j++ {
					if cfg.Insts[j].Inst.Op.IsMem() {
						if op.IsLoad() && cfg.Insts[j].Inst.Op.IsLoad() {
							continue // load-load may reorder
						}
						if done[j] > ready {
							ready = done[j]
						}
					}
				}
			}
		}

		start[i] = ready
		lat := int64(op.Latency())

		// Functional evaluation.
		switch {
		case op == isa.OpHalt, op == isa.OpNop:
			// mapped traces never contain halt; nop is inert
		case op.IsBranch():
			taken := true
			if op.IsCondBranch() {
				taken = isa.BranchTaken(op, int64(a), int64(b))
			}
			res.Branches = append(res.Branches, ooo.BranchRec{PC: mi.PC, Taken: taken})
			if taken != mi.ExpectTaken {
				// Off the recorded path: the invocation squashes.
				res.ExitMatches = false
				if taken {
					res.ActualExitPC = mi.Inst.Target
				} else {
					res.ActualExitPC = mi.PC + 1
				}
				f.stats.EarlyExits++
				f.probe.FabricExit(uint64(inv.Now), mi.PC, res.ActualExitPC)
				done[i] = start[i] + lat
				f.finish(&res, cfg, inv.Now, maxDone, n)
				return res
			}
		case op.IsLoad():
			addr := uint64(int64(a) + mi.Inst.Imm)
			var v uint64
			forwarded := false
			for k := len(f.scratch.stores) - 1; k >= 0; k-- {
				if f.scratch.stores[k].addr == addr {
					v = f.scratch.stores[k].value
					forwarded = true
					break
				}
			}
			if !forwarded {
				v = env.ReadMem(addr)
				res.Loads = append(res.Loads, ooo.LoadRecord{PC: mi.PC, Addr: addr, Value: v})
			}
			values[i] = v
			if forwarded {
				lat++
			} else {
				lat += int64(env.AccessMem(addr, false))
			}
			f.stats.Loads++

			// Speculative violation check: did this load start before
			// an older overlapping store finished?
			if env.Speculative {
				for _, s := range f.scratch.stores {
					if addrOverlap(s.addr, addr) && start[i] < done[s.idx] {
						f.stats.Violations++
						f.probe.FabricViolation(uint64(inv.Now), mi.PC)
						res.MemViolation = true
						if env.MemDep != nil {
							env.MemDep.Violation(uint64(mi.PC), uint64(cfg.Insts[s.idx].PC))
						}
						done[i] = start[i] + lat
						f.finish(&res, cfg, inv.Now, maxDone, n)
						return res
					}
				}
			}
		case op.IsStore():
			addr := uint64(int64(a) + mi.Inst.Imm)
			f.scratch.stores = append(f.scratch.stores, bufStore{idx: i, addr: addr, value: b})
			res.Stores = append(res.Stores, ooo.StoreRecord{PC: mi.PC, Addr: addr, Value: b})
			env.AccessMem(addr, true)
			f.stats.Stores++
			if t := start[i] + lat; t > res.LastStoreDone {
				res.LastStoreDone = t
			}
		case op == isa.OpFSlt:
			// Unconditional write: batch reuse of the values scratch
			// (see Run's clear) requires every producing op to rewrite
			// its slot each invocation.
			v := uint64(0)
			if math.Float64frombits(a) < math.Float64frombits(b) {
				v = 1
			}
			values[i] = v
		case op == isa.OpItoF:
			values[i] = math.Float64bits(float64(int64(a)))
		case op == isa.OpFtoI:
			values[i] = uint64(int64(math.Float64frombits(a)))
		case op.Class() == isa.ClassFPALU, op.Class() == isa.ClassFPMul, op.Class() == isa.ClassFPDiv:
			values[i] = math.Float64bits(isa.FPOp(op, math.Float64frombits(a), math.Float64frombits(b), mi.Inst.FImm))
		default:
			values[i] = uint64(isa.IntOp(op, int64(a), int64(b), mi.Inst.Imm))
		}

		done[i] = start[i] + lat
		if done[i] > maxDone {
			maxDone = done[i]
		}
		f.stats.OpsExecuted++
		f.stats.FUOps[op.FU()]++
	}

	// Live-outs: values and per-live-out ready offsets (+1 global bus),
	// relative to Now and clamped to at least one cycle.
	res.LiveOuts = resizeUint64s(res.LiveOuts, len(cfg.LiveOuts))
	res.LiveOutDelay = resizeInts(res.LiveOutDelay, len(cfg.LiveOuts))
	for i, p := range cfg.LiveOutProducer {
		res.LiveOuts[i] = values[p]
		d := done[p] + 1 - inv.Now
		if d < 1 {
			d = 1
		}
		res.LiveOutDelay[i] = int(d)
		f.stats.GlobalBusMoves++
	}
	// Only completed invocations publish a schedule; aborted ones return a
	// nil StartTimes, which nothing downstream reads.
	res.StartTimes = f.publishStarts(cfg, start)
	f.finish(&res, cfg, inv.Now, maxDone, n)
	return res
}

// resizeUint64s returns s with length n, reusing its backing array when
// large enough.
func resizeUint64s(s []uint64, n int) []uint64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint64, n)
}

// resizeInts returns s with length n, reusing its backing array when large
// enough.
func resizeInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// finish fills the result's latency, op count, and power-gating statistics.
// It runs on every return path of Run, so it is also the one fabric-level
// probe point covering committed, early-exited, and violated invocations.
func (f *Fabric) finish(res *ooo.TraceResult, cfg *Config, now, maxDone int64, ops int) {
	lat := maxDone + 1 - now // live-out/commit synchronization
	if lat < 1 {
		lat = 1
	}
	res.Latency = int(lat)
	res.Ops = ops
	active := uint64(cfg.ActivePEs())
	total := uint64(f.Geom.Stripes * f.Geom.PEsPerStripe())
	f.stats.ActivePECycles += active * uint64(res.Latency)
	f.stats.IdlePECycles += (total - active) * uint64(res.Latency)
	if f.probe != nil {
		aborted := !res.ExitMatches || res.MemViolation
		f.probe.FabricEval(uint64(now), cfg.StartPC, int64(res.Latency), int64(res.Ops), aborted)
		// The per-stripe occupancy of a configuration is invariant across
		// its invocations; batched invocations reuse the walk.
		if f.scratch.stripeCfg != cfg {
			if cap(f.scratch.perStripe) < f.Geom.Stripes {
				f.scratch.perStripe = make([]int, f.Geom.Stripes)
			}
			perStripe := f.scratch.perStripe[:f.Geom.Stripes]
			for i := range perStripe {
				perStripe[i] = 0
			}
			for i := range cfg.Insts {
				perStripe[cfg.Insts[i].Stripe]++
			}
			f.scratch.stripeCfg = cfg
		}
		for stripe, n := range f.scratch.perStripe[:f.Geom.Stripes] {
			if n > 0 {
				f.probe.StripeOccupancy(uint64(now), int64(stripe), int64(n))
			}
		}
	}
}

func addrOverlap(a, b uint64) bool { return a < b+8 && b < a+8 }
