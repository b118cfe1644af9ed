package ooo

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"dynaspam/internal/branch"
	"dynaspam/internal/cache"
	"dynaspam/internal/cpistack"
	"dynaspam/internal/isa"
	"dynaspam/internal/mem"
	"dynaspam/internal/memdep"
	"dynaspam/internal/program"
)

// physReg is one physical register.
type physReg struct {
	value uint64
	ready bool
	// readyAt is the cycle the value became available (feeds the fabric's
	// per-live-in arrival model).
	readyAt uint64
}

// ROBEntry is one in-flight instruction (or trace invocation).
type ROBEntry struct {
	Seq  uint64
	PC   int
	Inst isa.Inst

	// Renamed registers.
	PhysSrc1, PhysSrc2 int
	PhysDest           int // -1 when no destination

	Issued   bool
	Executed bool

	// Branch state.
	PredTaken  bool
	PredTarget int
	HistAtPred uint64
	Taken      bool
	Target     int

	// Memory state.
	Addr      uint64
	AddrValid bool
	StoreVal  uint64

	// Trace invocation state (fat atomic instruction). The inject carries
	// the invocation's result and renamed registers; a trace entry has a
	// result once it has issued.
	Trace        *TraceInject
	DispatchedAt uint64
	// renameAt is the earliest cycle rename may take the entry from the
	// front end (its fetch cycle plus FrontendDepth).
	renameAt uint64
	// evalStartAt is the cycle fabric evaluation began (issueTrace);
	// cycle accounting splits head-of-ROB occupancy into config-wait and
	// evaluation against it.
	evalStartAt uint64

	// active is true while the entry occupies the ROB. Writeback checks it
	// instead of scanning the ROB: completions of entries that committed or
	// squashed while their event was in flight are skipped.
	active bool
	// pending counts scheduled-but-unfired completion events. An entry is
	// recycled through the CPU's pool only when it reaches zero, so a late
	// event can never observe a reused entry: one that leaves the pipeline
	// with events pending is recycled when the last of them fires.
	pending int32
	// rsSlot is the reservation-station slot a non-trace entry holds from
	// dispatch until it issues (its column in the wakeup matrix); rsWait
	// counts its distinct source registers not yet written.
	rsSlot int32
	rsWait int32
}

// IsTrace reports whether the entry is a fabric trace invocation.
func (e *ROBEntry) IsTrace() bool { return e.Trace != nil }

// completion is a scheduled writeback event.
type completion struct {
	entry *ROBEntry
	// kind selects the writeback action.
	kind compKind
	// liveOutIdx is used by compTraceLiveOut.
	liveOutIdx int
}

type compKind int

const (
	compALU compKind = iota
	compBranch
	compLoad
	compStore
	compTraceDone
	compTraceLiveOut
)

// CPU is the simulated machine. Create one with New, then call Run.
type CPU struct {
	cfg   Config
	prog  *program.Program
	mem   *mem.Memory
	hier  *cache.Hierarchy
	bp    *branch.Predictor
	mdp   *memdep.Predictor
	hooks Hooks

	cycle uint64
	seq   uint64

	pc          int
	fetchStall  uint64 // fetch blocked until this cycle (icache miss)
	haltFetched bool
	// fetchSuppressed stops fetch entirely while the pipeline drains to the
	// commit point (DrainCtx); squash redirects still update pc but nothing
	// new enters the front end.
	fetchSuppressed bool
	// commitPC is the PC of the next instruction in committed program
	// order, latched at every commit (the drained machine resumes here).
	commitPC int

	// Front end: fetched, waiting for rename+dispatch.
	fe queue

	// Register renaming.
	rat          []int // arch reg -> phys
	committedRAT []int
	regs         []physReg
	freeList     []int

	// Backend structures: the ROB and the load and store queues.
	rob   queue
	loads queue
	strs  queue

	// Reservation station, event driven (see issue). rsCount is the
	// occupancy: every dispatched, unissued entry, trace invocations
	// included. Each non-trace entry holds one of the RSSize slots
	// (rsSlots maps a slot to its entry, rsFree stacks the free ones).
	// wakeRows is the wakeup matrix: row p, rsWords words long, has bit s
	// set while slot s waits for physical register p. ready holds the
	// non-trace entries whose operands have all arrived, in sequence
	// order; rsTraces the trace invocations not yet evaluated.
	rsCount  int
	rsSlots  []*ROBEntry
	rsFree   []int32
	rsWords  int
	wakeRows []uint64
	ready    []*ROBEntry
	rsTraces queue
	// evalTraces holds the evaluated trace invocations still in the ROB:
	// invocations evaluate oldest first (traceReady), so issueTrace pushes
	// and commitTrace pops. Their store buffers and load records are what
	// store forwarding and violation snooping read.
	evalTraces queue

	// Completion events, bucketed by cycle (see wheel.go).
	wheel eventWheel

	// Per-FU-unit next-free cycle, indexed by pool then unit.
	fuFree [isa.NumFUTypes][]uint64

	// Cycle accounting (internal/cpistack). classifyCycle charges every
	// counted cycle to exactly one cause, so cpi.Total() == stats.Cycles
	// at all times — the sum-exactness invariant the cpistack tests pin.
	cpi cpistack.Stack
	// stallCause is the structural resource that blocked rename last
	// cycle (causeNone when rename was not structurally blocked); it is
	// consulted one cycle later because rename runs after classifyCycle
	// within a step, a deterministic one-cycle attribution skew.
	stallCause cpistack.Cause
	// recoverCause is the active squash-recovery window: set at squash
	// initiation (latest squash wins), cleared by the first subsequent
	// commit. Zero-commit cycles inside the window charge to it.
	recoverCause cpistack.Cause
	// mapperActive marks an open mapping session (set by the framework
	// via SetMapperActive); zero-commit cycles charge to CauseMapper.
	mapperActive bool
	// cpiSampler, when installed, fires every cpiSamplePeriod cycles so
	// observers can export CPI-stack deltas as a time series. Nil (the
	// default) adds one predictable branch to the cycle loop.
	cpiSampler func(cycle uint64)

	// Scratch state owned by the CPU so the per-cycle loop is allocation
	// free in steady state. Contents are valid only within the pipeline
	// stage that fills them.
	entryPool    []*ROBEntry                 // recycled ROB entries (LIFO)
	readyScratch [isa.NumFUTypes][]*ROBEntry // issue: per-FU candidate lists
	liveInBuf    []uint64                    // issueTrace: TraceInput.LiveIns
	arrivalBuf   []int64                     // issueTrace: TraceInput.Arrivals
	readMemFn    func(addr uint64) uint64    // issueTrace: shared ReadMem closure
	readMemSeq   uint64                      // sequence readMemFn forwards for

	stats Stats
}

// causeNone marks "no cause recorded" in stallCause/recoverCause; it is
// never a valid bucket index.
const causeNone = cpistack.NumCauses

// cpiSamplePeriod is the cpiSampler firing period in cycles (power of two;
// the hot loop masks instead of dividing).
const cpiSamplePeriod = 4096

// New builds a CPU over prog and memory m. A nil hierarchy gets the default
// Table 4 hierarchy; nil predictor configs inside cfg are not allowed (use
// DefaultConfig as a base).
func New(cfg Config, prog *program.Program, m *mem.Memory, hier *cache.Hierarchy) *CPU {
	cfg.validate()
	if hier == nil {
		hier = cache.DefaultHierarchy()
	}
	rsWords := (cfg.RSSize + 63) / 64
	c := &CPU{
		cfg:          cfg,
		prog:         prog,
		mem:          m,
		hier:         hier,
		bp:           branch.New(cfg.Branch),
		mdp:          memdep.New(cfg.MemDep),
		rat:          make([]int, isa.NumRegs),
		committedRAT: make([]int, isa.NumRegs),
		regs:         make([]physReg, cfg.PhysRegs),
		// Size every list by its architectural bound so the hot loop never
		// grows a backing array after warm-up. Fetch stops at ROBSize
		// queued, after a group of up to FetchWidth.
		fe:       newQueue(cfg.ROBSize + cfg.FetchWidth),
		rob:      newQueue(cfg.ROBSize),
		loads:    newQueue(cfg.LQSize),
		strs:     newQueue(cfg.SQSize),
		freeList: make([]int, 0, cfg.PhysRegs),
		rsSlots:  make([]*ROBEntry, cfg.RSSize),
		rsFree:   make([]int32, 0, cfg.RSSize),
		rsWords:  rsWords,
		wakeRows: make([]uint64, cfg.PhysRegs*rsWords),
		ready:    make([]*ROBEntry, 0, cfg.RSSize),
		rsTraces: newQueue(cfg.ROBSize),

		stallCause:   causeNone,
		recoverCause: causeNone,
	}
	// Phys reg 0 is the always-zero register; all arch regs start mapped
	// to it (initial architectural state is zero).
	c.regs[0] = physReg{value: 0, ready: true}
	for r := range c.rat {
		c.rat[r] = 0
		c.committedRAT[r] = 0
	}
	for p := cfg.PhysRegs - 1; p >= 1; p-- {
		c.freeList = append(c.freeList, p)
	}
	for s := cfg.RSSize - 1; s >= 0; s-- {
		c.rsFree = append(c.rsFree, int32(s))
	}
	for t := range c.fuFree {
		c.fuFree[t] = make([]uint64, cfg.FUCounts[t])
	}
	// One ReadMem closure for the whole run: issueTrace points readMemSeq
	// at the invocation being evaluated (the TraceInput contract makes
	// ReadMem transient, valid only during Evaluate).
	c.readMemFn = func(addr uint64) uint64 {
		v, _ := c.forwardFromStores(c.readMemSeq, addr)
		return v
	}
	return c
}

// ---------------------------------------------------------------- queues --

// queue is one of the pipeline's in-order lists (front end, ROB, load and
// store queues, RS trace list, evaluated invocations). Its entries are in
// sequence order: push appends the youngest, pop takes the oldest and a
// squash cuts the tail. It is a head-indexed slice. New sizes the backing
// array at twice the list's bound, so the compaction a push makes when the
// array is full copies at most one entry per push on average; the zero
// queue grows on demand.
//
// Vacated slots are not cleared: every entry they can point to stays the
// CPU's for the whole run (in flight, pooled, or awaiting its last
// completion event), so a stale slot keeps nothing alive.
type queue struct {
	buf  []*ROBEntry // the entries are buf[head:]
	head int
}

func newQueue(bound int) queue { return queue{buf: make([]*ROBEntry, 0, 2*bound)} }

// live returns the entries, oldest first.
func (q *queue) live() []*ROBEntry { return q.buf[q.head:] }

func (q *queue) len() int { return len(q.buf) - q.head }

// push appends e, which is younger than every entry.
func (q *queue) push(e *ROBEntry) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		q.buf = q.buf[:copy(q.buf, q.live())]
		q.head = 0
	}
	q.buf = append(q.buf, e)
}

// pop removes and returns the oldest entry.
func (q *queue) pop() *ROBEntry {
	e := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return e
}

// cut removes the entries numbered seq or higher and returns them, oldest
// first. The returned slice is the vacated end of the backing array, valid
// until the next push.
func (q *queue) cut(seq uint64) []*ROBEntry {
	n := q.head + cutIndex(q.live(), seq)
	tail := q.buf[n:]
	q.buf = q.buf[:n]
	return tail
}

// cutIndex returns the index of the first entry of list, which is in
// sequence order, numbered seq or higher. It searches from the youngest
// end: what a squash cuts is short.
func cutIndex(list []*ROBEntry, seq uint64) int {
	n := len(list)
	for n > 0 && list[n-1].Seq >= seq {
		n--
	}
	return n
}

// newEntry returns a zeroed ROBEntry, recycled from the pool when possible.
func (c *CPU) newEntry() *ROBEntry {
	if n := len(c.entryPool); n > 0 {
		e := c.entryPool[n-1]
		c.entryPool[n-1] = nil
		c.entryPool = c.entryPool[:n-1]
		return e
	}
	return &ROBEntry{}
}

// freeEntry recycles e once it has left every pipeline structure. An entry
// with unfired completion events stays out of the pool until writeback
// drains the last of them, which frees it again: the events still reference
// it, and a recycled entry must never be observable through a stale event.
func (c *CPU) freeEntry(e *ROBEntry) {
	if e.pending != 0 {
		return
	}
	*e = ROBEntry{}
	c.entryPool = append(c.entryPool, e)
}

// resizeInts returns s with length n, reusing its backing array when large
// enough.
func resizeInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// SetHooks installs the DynaSpAM hooks. Must be called before Run.
func (c *CPU) SetHooks(h Hooks) { c.hooks = h }

// Stats returns a copy of the activity counters.
func (c *CPU) Stats() Stats { return c.stats }

// CPIStack returns the pipeline's cycle-accounting stack. The pointer
// aliases live CPU state: read it between steps or after the run; never
// mutate it. Its Total() equals Stats().Cycles at every step boundary.
func (c *CPU) CPIStack() *cpistack.Stack { return &c.cpi }

// SetMapperActive marks whether a mapping session currently holds the
// pipeline; zero-commit cycles while active are charged to CauseMapper.
// The DynaSpAM framework toggles it at session start and reap.
func (c *CPU) SetMapperActive(active bool) { c.mapperActive = active }

// SetCPISampler installs fn, invoked with the current cycle every
// cpiSamplePeriod (4096) cycles so observers can stream CPI-stack deltas
// (see CPIStack). Pass nil to remove. The callback must not mutate the CPU.
func (c *CPU) SetCPISampler(fn func(cycle uint64)) { c.cpiSampler = fn }

// Cycle returns the current cycle.
func (c *CPU) Cycle() uint64 { return c.cycle }

// Mem returns the architectural memory.
func (c *CPU) Mem() *mem.Memory { return c.mem }

// Hierarchy returns the cache hierarchy (shared with the fabric's LDST
// units).
func (c *CPU) Hierarchy() *cache.Hierarchy { return c.hier }

// Branch returns the branch predictor (shared with trace detection).
func (c *CPU) Branch() *branch.Predictor { return c.bp }

// MemDep returns the store-sets predictor (shared with the fabric).
func (c *CPU) MemDep() *memdep.Predictor { return c.mdp }

// ArchReg returns the committed architectural value of r.
func (c *CPU) ArchReg(r isa.Reg) uint64 { return c.regs[c.committedRAT[r]].value }

// ArchRegInt returns the committed integer value of r.
func (c *CPU) ArchRegInt(r isa.Reg) int64 { return int64(c.ArchReg(r)) }

// ArchRegFloat returns the committed FP value of r.
func (c *CPU) ArchRegFloat(r isa.Reg) float64 { return math.Float64frombits(c.ArchReg(r)) }

// ArchPC returns the PC of the next instruction in committed program order
// (0 before anything commits). Meaningful as a resume point only once the
// pipeline is drained (DrainCtx).
func (c *CPU) ArchPC() int { return c.commitPC }

// SetArchReg installs v as the committed architectural value of r. Legal
// only on a drained pipeline, where the speculative and committed register
// maps agree; both maps are updated. Writes to the zero register are
// discarded. The sampled-simulation driver uses it to write fast-forwarded
// state back into the machine.
func (c *CPU) SetArchReg(r isa.Reg, v uint64) {
	if r == isa.RegZero {
		return
	}
	p := c.committedRAT[r]
	if p == 0 {
		// r still maps to the always-zero register: writing zero is a
		// no-op, anything else needs a real physical register.
		if v == 0 {
			return
		}
		p = c.freeList[len(c.freeList)-1]
		c.freeList = c.freeList[:len(c.freeList)-1]
		c.committedRAT[r] = p
		c.rat[r] = p
	}
	c.regs[p] = physReg{value: v, ready: true, readyAt: c.cycle}
}

// SetPC redirects fetch (and the committed-order resume point) to pc,
// clearing any latched halt-fetch or icache stall. Legal only on a drained
// pipeline.
func (c *CPU) SetPC(pc int) {
	c.pc = pc
	c.commitPC = pc
	c.haltFetched = false
	c.fetchStall = 0
}

// DebugState summarizes the pipeline's head-of-ROB state for deadlock
// diagnostics.
func (c *CPU) DebugState() string {
	if c.rob.len() == 0 {
		return fmt.Sprintf("cycle %d pc %d: ROB empty, frontend %d, rs %d", c.cycle, c.pc, c.fe.len(), c.rsCount)
	}
	h := c.rob.live()[0]
	extra := ""
	if h.IsTrace() {
		extra = fmt.Sprintf(" trace(res=%v liveInReady=%v)", h.Issued, func() []bool {
			var out []bool
			for _, p := range h.Trace.liveInPhys {
				out = append(out, c.regs[p].ready)
			}
			return out
		}())
	}
	return fmt.Sprintf("cycle %d pc %d: head seq=%d pc=%d op=%s issued=%v executed=%v%s (rob %d, rs %d, fe %d)",
		c.cycle, c.pc, h.Seq, h.PC, h.Inst.Op, h.Issued, h.Executed, extra, c.rob.len(), c.rsCount, c.fe.len())
}

// Run simulates until the halt instruction commits. It returns an error if
// the cycle budget is exhausted, which indicates a deadlock bug rather than
// a program property.
func (c *CPU) Run() error {
	return c.RunCtx(context.Background())
}

// RunCtx is Run with cooperative cancellation: the simulation polls ctx
// every few thousand cycles and aborts with ctx's error once it is done.
// The poll granularity (8192 cycles, well under a millisecond of host time)
// keeps the check off the per-cycle hot path while letting a parallel sweep
// cancel in-flight simulations promptly.
func (c *CPU) RunCtx(ctx context.Context) error {
	return c.runUntil(ctx, nil, "simulation", "")
}

// RunCommitsCtx steps the pipeline until at least n more instructions have
// committed (fabric-executed ops count individually, exactly as in
// Stats.Committed), the halt commits, or ctx is cancelled. The stop check
// runs between cycles, so a wide commit may overshoot the quota by up to
// CommitWidth-1 instructions — deterministically, since the machine itself
// is deterministic. The sampled-simulation driver in internal/core uses it
// to delimit warmup and measurement windows.
func (c *CPU) RunCommitsCtx(ctx context.Context, n uint64) error {
	target := c.stats.Committed + n
	return c.runUntil(ctx, func() bool { return c.stats.Committed >= target }, "simulation", "")
}

// DrainCtx suppresses fetch and steps until every in-flight instruction has
// committed or squashed, leaving the speculative register map equal to the
// committed one. The drained machine's architectural state (ArchReg, ArchPC,
// memory) is then a precise resume point: the sampled-simulation driver
// hands it to the functional interpreter for fast-forwarding. Draining costs
// simulated cycles like any pipeline flush would.
func (c *CPU) DrainCtx(ctx context.Context) error {
	c.fetchSuppressed = true
	defer func() { c.fetchSuppressed = false }()
	return c.runUntil(ctx, func() bool { return c.rob.len() == 0 && c.fe.len() == 0 }, "drain", " draining")
}

// runUntil is the one run loop: it steps until the halt commits or done
// (nil: never) holds, checking the cycle budget every cycle and polling ctx
// every 8192; what and where word the cancellation and budget errors.
func (c *CPU) runUntil(ctx context.Context, done func() bool, what, where string) error {
	budget := c.cfg.MaxCycles
	if budget == 0 {
		budget = 2_000_000_000
	}
	for !c.stats.HaltSeen && (done == nil || !done()) {
		if c.cycle >= budget {
			return fmt.Errorf("ooo: cycle budget %d exhausted%s at pc %d (deadlock?)", budget, where, c.pc)
		}
		if c.cycle&8191 == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("ooo: %s cancelled at cycle %d: %w", what, c.cycle, err)
			}
		}
		c.step()
	}
	return nil
}

// step advances one cycle. Stages run back-to-front so same-cycle
// producer→consumer flow matches a real pipeline's latch behaviour.
func (c *CPU) step() {
	committedBefore := c.stats.Committed
	c.commit()
	if c.stats.HaltSeen {
		// The halt cycle is not counted in stats.Cycles (early return
		// before the increment below), so it is not classified either:
		// the stack stays equal to the cycle counter.
		return
	}
	c.classifyCycle(c.stats.Committed - committedBefore)
	c.writeback()
	c.issue()
	c.renameDispatch()
	c.fetch()
	c.cycle++
	c.stats.Cycles++
	if c.cpiSampler != nil && c.cycle&(cpiSamplePeriod-1) == 0 {
		c.cpiSampler(c.cycle)
	}
}

// classifyCycle charges the commit-slot cycle that commit() just consumed
// to exactly one cpistack cause (head-of-ROB interval analysis). It runs
// once per counted cycle, immediately after commit, so Σ buckets ==
// stats.Cycles by construction. Zero-commit precedence, most to least
// specific:
//
//  1. an active squash-recovery window (set at squash initiation, latest
//     squash wins, cleared by the first commit after it);
//  2. an open mapping session (CauseMapper);
//  3. empty ROB → front-end starvation (icache miss vs. generic fetch);
//  4. head is an evaluating trace invocation → config-wait during its
//     startup delay, fabric-eval after;
//  5. head is an issued load/store → memory;
//  6. the structural resource that blocked rename last cycle (rename runs
//     after classify, a deterministic one-cycle skew);
//  7. otherwise plain dependency/bandwidth stall (CauseExecDep) — this
//     also covers a head trace still waiting for its live-ins.
func (c *CPU) classifyCycle(commits uint64) {
	stall := c.stallCause
	c.stallCause = causeNone
	if commits > 0 {
		c.recoverCause = causeNone
		c.cpi.Buckets[cpistack.CauseBase]++
		return
	}
	if c.recoverCause != causeNone {
		c.cpi.Buckets[c.recoverCause]++
		return
	}
	if c.mapperActive {
		c.cpi.Buckets[cpistack.CauseMapper]++
		return
	}
	if c.rob.len() == 0 {
		if c.cycle < c.fetchStall {
			c.cpi.Buckets[cpistack.CauseFrontendICache]++
		} else {
			c.cpi.Buckets[cpistack.CauseFrontendFetch]++
		}
		return
	}
	h := c.rob.live()[0]
	switch {
	case h.IsTrace() && h.Issued:
		if wait := h.Trace.Result.ConfigWait; wait > 0 && c.cycle-h.evalStartAt <= uint64(wait) {
			c.cpi.Buckets[cpistack.CauseFabricConfigWait]++
		} else {
			c.cpi.Buckets[cpistack.CauseFabricEval]++
		}
	case !h.IsTrace() && h.Issued && !h.Executed && (h.Inst.Op.IsLoad() || h.Inst.Op.IsStore()):
		c.cpi.Buckets[cpistack.CauseMemory]++
	case stall != causeNone:
		c.cpi.Buckets[stall]++
	default:
		c.cpi.Buckets[cpistack.CauseExecDep]++
	}
}

// ---------------------------------------------------------------- fetch --

func (c *CPU) fetch() {
	if c.fetchSuppressed || c.haltFetched || c.cycle < c.fetchStall {
		return
	}
	// Front-end queue backpressure.
	if c.fe.len() >= c.cfg.ROBSize {
		return
	}
	fetched := 0
	for fetched < c.cfg.FetchWidth {
		if !c.prog.Valid(c.pc) {
			return
		}
		in := c.prog.At(c.pc)
		// DynaSpAM: at a branch, a trace anchor, give the framework a
		// chance to take over.
		if c.hooks.BeforeFetch != nil && in.Op.IsBranch() {
			if tr := c.hooks.BeforeFetch(c.pc); tr != nil {
				c.fetchTrace(tr)
				return // trace injection ends the fetch group
			}
		}
		// Instruction cache timing: charge the line once per block.
		lat := c.hier.AccessInst(uint64(c.pc) * 4)
		// Next-line prefetch keeps sequential fetch streaming.
		c.hier.PrefetchInst(uint64(c.pc)*4 + 64)
		if lat > c.hier.L1I.Config().HitLatency {
			// Miss: bubble until the line arrives, then re-fetch.
			c.fetchStall = c.cycle + uint64(lat)
			return
		}
		e := c.fetchEntry(c.pc, in)
		if c.hooks.OnFetch != nil {
			c.hooks.OnFetch(c.pc, e.Seq)
		}
		fetched++

		switch {
		case in.Op == isa.OpHalt:
			c.haltFetched = true
			return
		case in.Op == isa.OpJmp:
			e.PredTaken = true
			e.PredTarget = in.Target
			c.pc = in.Target
			if _, ok := c.bp.PredictTarget(uint64(e.PC)); !ok {
				c.bp.NoteBTBMiss()
			}
			// A taken control transfer ends the fetch group: the
			// front end fetches through at most one taken branch
			// per cycle.
			return
		case in.Op.IsCondBranch():
			e.HistAtPred = c.bp.History()
			taken := c.bp.PredictDirection(uint64(e.PC))
			e.PredTaken = taken
			c.bp.SpeculateHistory(taken)
			if taken {
				e.PredTarget = in.Target
				c.pc = in.Target
				if _, ok := c.bp.PredictTarget(uint64(e.PC)); !ok {
					c.bp.NoteBTBMiss()
				}
				return // taken branch ends the fetch group
			}
			e.PredTarget = e.PC + 1
			c.pc = e.PC + 1
		default:
			c.pc++
		}
	}
}

// fetchTrace injects a fat atomic trace invocation, checkpointing the global
// branch history and shifting in the trace's predicted directions so that
// lookahead past the invocation stays consistent.
func (c *CPU) fetchTrace(tr *TraceInject) {
	e := c.fetchEntry(tr.StartPC, isa.Inst{Op: isa.OpNop, Dest: isa.RegInvalid, Src1: isa.RegInvalid, Src2: isa.RegInvalid})
	e.Trace = tr
	e.HistAtPred = c.bp.History()
	for _, d := range tr.PredDirs {
		c.bp.SpeculateHistory(d)
	}
	c.pc = tr.ExitPC
}

// fetchEntry queues a new entry for in at pc, numbered next in sequence, in
// the front end; rename may take it FrontendDepth cycles from now.
func (c *CPU) fetchEntry(pc int, in isa.Inst) *ROBEntry {
	c.seq++
	e := c.newEntry()
	e.Seq = c.seq
	e.PC = pc
	e.Inst = in
	e.PhysSrc1, e.PhysSrc2, e.PhysDest = -1, -1, -1
	e.renameAt = c.cycle + uint64(c.cfg.FrontendDepth)
	c.fe.push(e)
	c.stats.Fetched++
	return e
}

// ------------------------------------------------------ rename/dispatch --

// renameDispatch renames and dispatches up to RenameWidth instructions from
// the front-end queue into the ROB, reservation stations and load/store
// queues.
func (c *CPU) renameDispatch() {
	n := 0
	for n < c.cfg.RenameWidth && c.fe.len() > 0 {
		e := c.fe.live()[0]
		if e.renameAt > c.cycle {
			return
		}
		if c.hooks.DispatchGate != nil && !c.hooks.DispatchGate(e.PC, e.Seq, c.rob.len() == 0) {
			return
		}
		if c.rob.len() >= c.cfg.ROBSize {
			c.stallCause = cpistack.CauseStructROB
			return
		}
		if e.IsTrace() {
			if !c.renameTrace(e) {
				return
			}
		} else {
			if !c.renameInst(e) {
				return
			}
		}
		c.fe.pop()
		c.rob.push(e)
		e.active = true
		e.DispatchedAt = c.cycle
		c.stats.Renamed++
		c.stats.Dispatched++
		n++
	}
}

// renameInst renames a normal instruction; false means a structural stall
// (no free phys reg, RS or LSQ full).
func (c *CPU) renameInst(e *ROBEntry) bool {
	in := &e.Inst
	needsRS := in.Op != isa.OpHalt && in.Op != isa.OpNop
	if needsRS && c.rsCount >= c.cfg.RSSize {
		c.stallCause = cpistack.CauseStructRS
		return false
	}
	if in.Op.IsLoad() && c.loads.len() >= c.cfg.LQSize {
		c.stallCause = cpistack.CauseStructLQ
		return false
	}
	if in.Op.IsStore() && c.strs.len() >= c.cfg.SQSize {
		c.stallCause = cpistack.CauseStructSQ
		return false
	}
	hasDest := in.Op.HasDest() && in.Dest != isa.RegZero
	if hasDest && len(c.freeList) == 0 {
		c.stallCause = cpistack.CauseStructPhysReg
		return false
	}
	srcs, nsrc := in.Sources()
	if nsrc >= 1 {
		e.PhysSrc1 = c.rat[srcs[0]]
		c.stats.RegReads++
	}
	if nsrc >= 2 {
		e.PhysSrc2 = c.rat[srcs[1]]
		c.stats.RegReads++
	}
	if hasDest {
		p := c.freeList[len(c.freeList)-1]
		c.freeList = c.freeList[:len(c.freeList)-1]
		c.regs[p] = physReg{}
		e.PhysDest = p
		c.rat[in.Dest] = p
	}
	if needsRS {
		c.rsInsert(e)
	} else {
		e.Issued = true
		e.Executed = true // halt/nop complete immediately
	}
	if in.Op.IsLoad() {
		c.loads.push(e)
	}
	if in.Op.IsStore() {
		c.strs.push(e)
		// Register the in-flight store with the store-sets unit so that
		// predicted-dependent loads wait for it until it executes.
		c.mdp.CheckStore(uint64(e.PC), int(e.Seq))
	}
	return true
}

// renameTrace renames a trace invocation's live-ins and live-outs. The
// invocation holds a reservation-station entry until it issues, and it
// counts toward the RSSize limit that later instructions face, but it is
// never refused by that limit: only free physical registers can stall it.
func (c *CPU) renameTrace(e *ROBEntry) bool {
	tr := e.Trace
	need := 0
	for _, r := range tr.LiveOuts {
		if r != isa.RegZero {
			need++
		}
	}
	if need > len(c.freeList) {
		c.stallCause = cpistack.CauseStructPhysReg
		return false
	}
	tr.liveInPhys = resizeInts(tr.liveInPhys, len(tr.LiveIns))
	tr.liveInsReady = 0
	for i, r := range tr.LiveIns {
		tr.liveInPhys[i] = c.rat[r]
		c.stats.RegReads++
	}
	tr.liveOutPhys = resizeInts(tr.liveOutPhys, len(tr.LiveOuts))
	for i, r := range tr.LiveOuts {
		if r == isa.RegZero {
			tr.liveOutPhys[i] = -1
			continue
		}
		p := c.freeList[len(c.freeList)-1]
		c.freeList = c.freeList[:len(c.freeList)-1]
		c.regs[p] = physReg{}
		tr.liveOutPhys[i] = p
		c.rat[r] = p
	}
	c.stats.TraceLiveInMoves += uint64(len(tr.LiveIns))
	c.stats.TraceLiveOutMoves += uint64(need)
	// It waits for its live-ins in the RS, but outside the wakeup matrix:
	// traceReady rechecks every trace invocation each cycle.
	c.rsCount++
	c.rsTraces.push(e)
	return true
}

// --------------------------------------------------- reservation station --

// rsInsert gives the non-trace entry e a reservation-station slot and sets
// its bit in the matrix row of each distinct source register not yet
// written. An entry whose operands are all ready joins the ready list at
// once; it is the youngest entry in flight, so appending keeps the list in
// sequence order.
func (c *CPU) rsInsert(e *ROBEntry) {
	s := c.rsFree[len(c.rsFree)-1]
	c.rsFree = c.rsFree[:len(c.rsFree)-1]
	c.rsSlots[s] = e
	c.rsCount++
	e.rsSlot = s
	e.rsWait = 0
	c.subscribe(e, e.PhysSrc1)
	if e.PhysSrc2 != e.PhysSrc1 {
		c.subscribe(e, e.PhysSrc2)
	}
	if e.rsWait == 0 {
		c.ready = append(c.ready, e)
	}
}

// subscribe makes e wait for physical register p unless p is absent or
// already written.
func (c *CPU) subscribe(e *ROBEntry, p int) {
	if p < 0 || c.regs[p].ready {
		return
	}
	c.wakeRows[p*c.rsWords+int(e.rsSlot>>6)] |= 1 << (e.rsSlot & 63)
	e.rsWait++
}

// wake delivers physical register p to the entries waiting for it: it walks
// and clears p's matrix row, and each entry whose last operand this was
// joins the ready list at its sequence position.
func (c *CPU) wake(p int) {
	row := c.wakeRows[p*c.rsWords : (p+1)*c.rsWords]
	for w, mask := range row {
		if mask == 0 {
			continue
		}
		row[w] = 0
		for ; mask != 0; mask &= mask - 1 {
			e := c.rsSlots[w<<6|bits.TrailingZeros64(mask)]
			if e.rsWait--; e.rsWait == 0 {
				c.insertReady(e)
			}
		}
	}
}

// insertReady adds e to the ready list, keeping it in sequence order:
// SelectOverride and the oldest-first pick both depend on that order.
func (c *CPU) insertReady(e *ROBEntry) {
	i := len(c.ready)
	c.ready = append(c.ready, e)
	for ; i > 0 && c.ready[i-1].Seq > e.Seq; i-- {
		c.ready[i] = c.ready[i-1]
	}
	c.ready[i] = e
}

// releaseSlot returns e's reservation-station slot to the free stack,
// first clearing any matrix bits it still has (only a squashed entry can).
func (c *CPU) releaseSlot(e *ROBEntry) {
	if e.rsWait > 0 {
		word, bit := int(e.rsSlot>>6), uint64(1)<<(e.rsSlot&63)
		for _, p := range [2]int{e.PhysSrc1, e.PhysSrc2} {
			if p >= 0 {
				c.wakeRows[p*c.rsWords+word] &^= bit
			}
		}
	}
	c.rsSlots[e.rsSlot] = nil
	c.rsFree = append(c.rsFree, e.rsSlot)
}

// ---------------------------------------------------------------- issue --

// loadMayIssue enforces memory-ordering rules for load issue.
func (c *CPU) loadMayIssue(e *ROBEntry) bool {
	// The address operand is known ready here; compute the address for
	// disambiguation (idempotent).
	addr := uint64(int64(c.regs[e.PhysSrc1].value) + e.Inst.Imm)
	for _, s := range c.strs.live() {
		if s.Seq >= e.Seq {
			break
		}
		if !s.AddrValid {
			// Older store with unknown address.
			if !c.cfg.MemSpeculation {
				return false
			}
			// Store-sets: if the predictor says this load depends on
			// an in-flight store, wait until no predicted store is
			// outstanding.
			if tag := c.mdp.CheckLoad(uint64(e.PC)); tag != memdep.InvalidTag {
				return false
			}
			continue
		}
		if overlaps(s.Addr, addr) && !s.Executed {
			// Known-aliasing store whose data is not ready yet.
			return false
		}
	}
	// Older trace invocations that have not evaluated yet (those still in
	// the RS) have unknown store sets; conservative mode waits for them,
	// speculative mode waits only when the store-sets unit links this load
	// to one of the invocation's stores.
	for _, o := range c.rsTraces.live() {
		if o.Seq >= e.Seq {
			break
		}
		if !c.cfg.MemSpeculation {
			return false
		}
		for _, spc := range o.Trace.StorePCs {
			if c.mdp.SameSet(uint64(e.PC), uint64(spc)) {
				return false
			}
		}
	}
	e.Addr = addr
	e.AddrValid = true
	return true
}

// overlaps reports whether two 8-byte accesses intersect.
func overlaps(a, b uint64) bool {
	return a < b+8 && b < a+8
}

// traceReady decides whether e, the oldest trace invocation not yet
// evaluated, can begin evaluation. Only the oldest can: older invocations
// must have evaluated, since their store buffers are its forwarding source
// (in-order wave evaluation through the configuration FIFOs). An
// invocation stays in the RS trace list until it evaluates, so issue asks
// about the head of that list alone.
func (c *CPU) traceReady(e *ROBEntry) bool {
	tr := e.Trace
	for ; tr.liveInsReady < len(tr.liveInPhys); tr.liveInsReady++ {
		if !c.regs[tr.liveInPhys[tr.liveInsReady]].ready {
			return false
		}
	}
	if tr.Conservative {
		// Wait for every older store (host or trace) to be fully known.
		for _, s := range c.strs.live() {
			if s.Seq < e.Seq && !s.Executed {
				return false
			}
		}
	} else {
		// Speculative: wait only for older unexecuted host stores the
		// store-sets unit links to one of the invocation's loads.
		for _, s := range c.strs.live() {
			if s.Seq >= e.Seq {
				break
			}
			if s.Executed {
				continue
			}
			for _, lpc := range tr.LoadPCs {
				if c.mdp.SameSet(uint64(s.PC), uint64(lpc)) {
					return false
				}
			}
		}
	}
	return true
}

// issue selects up to IssueWidth ready instructions onto free functional
// units, oldest-first (or per the SelectOverride hook), and schedules their
// completions. It visits only the ready list, which register writes fill
// (wake), and the oldest trace invocation in the RS. Loads and invocations
// need more than ready operands, so loadMayIssue and traceReady recheck
// them every cycle.
func (c *CPU) issue() {
	if c.hooks.BeginIssue != nil {
		c.hooks.BeginIssue()
	}
	if len(c.ready) == 0 && c.rsTraces.len() == 0 {
		return
	}
	// Split the candidates by functional unit, each unit's list in sequence
	// order, before the oldest invocation can issue: loadMayIssue still
	// counts it as unevaluated this cycle.
	for fu := range c.readyScratch {
		c.readyScratch[fu] = c.readyScratch[fu][:0]
	}
	for _, e := range c.ready {
		if e.Inst.Op.IsLoad() && !c.loadMayIssue(e) {
			continue
		}
		fu := e.Inst.Op.FU()
		c.readyScratch[fu] = append(c.readyScratch[fu], e)
	}
	// Trace invocations issue on a virtual fabric port, not an OOO FU,
	// oldest first: only the head of the RS trace list can.
	if c.rsTraces.len() > 0 && c.traceReady(c.rsTraces.live()[0]) {
		c.issueTrace(c.rsTraces.pop())
		c.rsCount--
	}
	issued := 0
	for fu := isa.FUType(0); fu < isa.NumFUTypes; fu++ {
		cand := c.readyScratch[fu]
		for unit := 0; unit < c.cfg.FUCounts[fu] && issued < c.cfg.IssueWidth; unit++ {
			if c.fuFree[fu][unit] > c.cycle {
				continue // unit busy (non-pipelined op)
			}
			if len(cand) == 0 {
				break
			}
			idx := 0 // oldest-first: cand is in sequence order
			if c.hooks.SelectOverride != nil {
				idx = c.hooks.SelectOverride(fu, unit, cand)
				if idx < 0 || idx >= len(cand) {
					continue
				}
			}
			e := cand[idx]
			// Order-preserving removal: SelectOverride tie-breaks on
			// candidate order, so a swap-with-tail would change
			// architectural results.
			cand = append(cand[:idx], cand[idx+1:]...)
			c.issueOne(e, fu, unit)
			issued++
		}
	}
	c.compactRS()
}

// issueOne executes e's instruction functionally and schedules its
// writeback.
func (c *CPU) issueOne(e *ROBEntry, fu isa.FUType, unit int) {
	e.Issued = true
	c.stats.Issued++
	if c.hooks.OnIssue != nil {
		c.hooks.OnIssue(e, fu, unit)
	}
	in := &e.Inst
	lat := in.Op.Latency()
	var kind compKind
	switch {
	case in.Op.IsCondBranch() || in.Op == isa.OpJmp:
		kind = compBranch
		if in.Op == isa.OpJmp {
			e.Taken = true
			e.Target = in.Target
		} else {
			a := int64(c.regs[e.PhysSrc1].value)
			b := int64(c.regs[e.PhysSrc2].value)
			e.Taken = isa.BranchTaken(in.Op, a, b)
			if e.Taken {
				e.Target = in.Target
			} else {
				e.Target = e.PC + 1
			}
		}
	case in.Op.IsLoad():
		kind = compLoad
		c.stats.LoadsExecuted++
		val, fwd := c.forwardFromStores(e.Seq, e.Addr)
		e.StoreVal = val
		if fwd {
			c.stats.StoreForwards++
			lat += 1
		} else {
			lat += c.hier.AccessData(e.Addr, false)
		}
	case in.Op.IsStore():
		kind = compStore
		c.stats.StoresExecuted++
		e.Addr = uint64(int64(c.regs[e.PhysSrc1].value) + in.Imm)
		e.AddrValid = true
		e.StoreVal = c.regs[e.PhysSrc2].value
		// Charge the cache fill now (write-allocate); commit drains the
		// store buffer without stalling.
		c.hier.AccessData(e.Addr, true)
	default:
		kind = compALU
		// Non-pipelined long-latency units occupy the unit.
		if in.Op.Class() == isa.ClassIntDiv || in.Op.Class() == isa.ClassFPDiv {
			c.fuFree[fu][unit] = c.cycle + uint64(lat)
		}
	}
	c.schedule(c.cycle+uint64(lat), completion{entry: e, kind: kind})
}

// forwardFromStores finds the youngest older store (host SQ entry or the
// store buffer of an evaluated trace invocation) covering addr. Returns its
// value, or memory's when no such store exists, and whether it was a
// forward.
func (c *CPU) forwardFromStores(seq uint64, addr uint64) (val uint64, forwarded bool) {
	var best *ROBEntry
	var bestTraceVal uint64
	bestIsTrace := false
	for _, s := range c.strs.live() {
		if s.Seq >= seq {
			break
		}
		if s.AddrValid && s.Executed && s.Addr == addr {
			if best == nil || s.Seq > best.Seq {
				best = s
				bestIsTrace = false
			}
		}
	}
	for _, o := range c.evalTraces.live() {
		if o.Seq >= seq {
			break
		}
		for i := range o.Trace.Result.Stores {
			st := &o.Trace.Result.Stores[i]
			if st.Addr == addr {
				if best == nil || o.Seq >= best.Seq {
					best = o
					bestTraceVal = st.Value
					bestIsTrace = true
				}
			}
		}
	}
	if best != nil {
		if bestIsTrace {
			return bestTraceVal, true
		}
		return best.StoreVal, true
	}
	return c.mem.Read64(addr), false
}

// issueTrace begins fabric evaluation of a trace invocation.
func (c *CPU) issueTrace(e *ROBEntry) {
	e.Issued = true
	c.stats.Issued++
	c.stats.TraceInvocations++
	tr := e.Trace
	// LiveIns/Arrivals/ReadMem are CPU-owned scratch, valid only during
	// Evaluate (the TraceInput contract).
	if cap(c.liveInBuf) < len(tr.LiveIns) {
		c.liveInBuf = make([]uint64, len(tr.LiveIns))
		c.arrivalBuf = make([]int64, len(tr.LiveIns))
	}
	c.liveInBuf = c.liveInBuf[:len(tr.LiveIns)]
	c.arrivalBuf = c.arrivalBuf[:len(tr.LiveIns)]
	c.readMemSeq = e.Seq
	e.evalStartAt = c.cycle
	in := TraceInput{
		LiveIns:  c.liveInBuf,
		Arrivals: c.arrivalBuf,
		Cycle:    c.cycle,
		ReadMem:  c.readMemFn,
	}
	for i, p := range tr.liveInPhys {
		in.LiveIns[i] = c.regs[p].value
		// A live-in enters its FIFO when its value is produced, but no
		// earlier than the invocation's dispatch (FIFO allocation).
		at := c.regs[p].readyAt
		if at < e.DispatchedAt {
			at = e.DispatchedAt
		}
		in.Arrivals[i] = int64(at)
	}
	res := &tr.Result
	*res = tr.Handler.Evaluate(in)
	c.evalTraces.push(e)
	c.stats.TraceFabricLoads += uint64(len(res.Loads))
	c.stats.TraceFabricStores += uint64(len(res.Stores))
	if res.Latency < 1 {
		res.Latency = 1
	}
	// Schedule per-live-out wakeups (pipelined forwarding) and the final
	// completion.
	if res.ExitMatches && !res.MemViolation {
		for i := range tr.liveOutPhys {
			delay := res.Latency
			if res.LiveOutDelay != nil && i < len(res.LiveOutDelay) {
				delay = res.LiveOutDelay[i]
				if delay < 1 {
					delay = 1
				}
			}
			c.schedule(c.cycle+uint64(delay), completion{entry: e, kind: compTraceLiveOut, liveOutIdx: i})
		}
	}
	c.schedule(c.cycle+uint64(res.Latency), completion{entry: e, kind: compTraceDone})
}

func (c *CPU) schedule(at uint64, comp completion) {
	if at <= c.cycle {
		at = c.cycle + 1
	}
	comp.entry.pending++
	c.wheel.schedule(c.cycle, at, comp)
}

// compactRS removes the entries that issued this cycle from the ready
// list, freeing their slots.
func (c *CPU) compactRS() {
	out := c.ready[:0]
	for _, e := range c.ready {
		if e.Issued {
			c.releaseSlot(e)
			c.rsCount--
			continue
		}
		out = append(out, e)
	}
	c.ready = out
}

// ------------------------------------------------------------ writeback --

func (c *CPU) writeback() {
	comps := c.wheel.take(c.cycle)
	if len(comps) == 0 {
		return
	}
	// Squashes triggered mid-list do not stop processing: the active
	// re-check skips completions of flushed entries, while surviving
	// entries' completions must still land this cycle.
	for _, comp := range comps {
		e := comp.entry
		e.pending--
		if !e.active {
			// Squashed (or committed) while in flight: the entry has left
			// every structure, and it recycles once its last event fires.
			c.freeEntry(e)
			continue
		}
		// A trace-done handler can squash e itself, recycling the entry
		// mid-iteration; capture the identity the hook reports first.
		pc, seq := e.PC, e.Seq
		switch comp.kind {
		case compALU:
			c.writebackALU(e)
		case compBranch:
			c.writebackBranch(e)
		case compLoad:
			c.writeResult(e, e.StoreVal)
			e.Executed = true
		case compStore:
			e.Executed = true
			c.mdpRegisterStore(e)
			c.checkViolation(e)
		case compTraceDone:
			c.writebackTraceDone(e)
		case compTraceLiveOut:
			c.writebackTraceLiveOut(e, comp.liveOutIdx)
		}
		if c.hooks.OnWriteback != nil && comp.kind != compTraceLiveOut {
			c.hooks.OnWriteback(pc, seq)
		}
	}
	// The drained slice aliases wheel storage reused on later cycles; zero
	// it so processed events do not pin their entries.
	for i := range comps {
		comps[i] = completion{}
	}
}

func (c *CPU) writebackALU(e *ROBEntry) {
	in := &e.Inst
	var result uint64
	switch {
	case in.Op == isa.OpFSlt:
		a := math.Float64frombits(c.regs[e.PhysSrc1].value)
		b := math.Float64frombits(c.regs[e.PhysSrc2].value)
		if a < b {
			result = 1
		}
	case in.Op == isa.OpItoF:
		result = math.Float64bits(float64(int64(c.regs[e.PhysSrc1].value)))
	case in.Op == isa.OpFtoI:
		result = uint64(int64(math.Float64frombits(c.regs[e.PhysSrc1].value)))
	case in.Op.Class() == isa.ClassFPALU || in.Op.Class() == isa.ClassFPMul || in.Op.Class() == isa.ClassFPDiv:
		var a, b float64
		if e.PhysSrc1 >= 0 {
			a = math.Float64frombits(c.regs[e.PhysSrc1].value)
		}
		if e.PhysSrc2 >= 0 {
			b = math.Float64frombits(c.regs[e.PhysSrc2].value)
		}
		result = math.Float64bits(isa.FPOp(in.Op, a, b, in.FImm))
	default:
		var a, b int64
		if e.PhysSrc1 >= 0 {
			a = int64(c.regs[e.PhysSrc1].value)
		}
		if e.PhysSrc2 >= 0 {
			b = int64(c.regs[e.PhysSrc2].value)
		}
		result = uint64(isa.IntOp(in.Op, a, b, in.Imm))
	}
	c.writeResult(e, result)
	e.Executed = true
}

// writeResult writes e's destination physical register and broadcasts.
func (c *CPU) writeResult(e *ROBEntry, v uint64) {
	if e.PhysDest >= 0 {
		c.regs[e.PhysDest] = physReg{value: v, ready: true, readyAt: c.cycle}
		c.stats.RegWrites++
		c.stats.Broadcasts++
		c.wake(e.PhysDest)
	}
}

func (c *CPU) writebackBranch(e *ROBEntry) {
	e.Executed = true
	c.stats.BranchResolved++
	mispredicted := e.Taken != e.PredTaken || (e.Taken && e.Target != e.PredTarget)
	if e.Inst.Op.IsCondBranch() {
		c.bp.Update(uint64(e.PC), e.HistAtPred, e.Taken, e.Target, mispredicted)
	} else if e.Taken {
		c.bp.UpdateBTB(uint64(e.PC), e.Target)
	}
	if mispredicted {
		c.stats.BranchMispredicts++
		// Restore history to the point of prediction, then shift in
		// the actual outcome.
		c.bp.Restore(e.HistAtPred)
		c.bp.SpeculateHistory(e.Taken)
		c.recoverCause = cpistack.CauseSquashBranch
		c.squashAfter(e.Seq, e.Target)
	}
}

// mdpRegisterStore tells the store-sets predictor the store has resolved:
// once address and data are known, dependent loads use ordinary
// disambiguation instead of the predictor.
func (c *CPU) mdpRegisterStore(e *ROBEntry) {
	c.mdp.StoreRetired(uint64(e.PC), int(e.Seq))
}

// checkViolation scans for younger loads (host LQ or trace invocations) that
// executed before store e and read a stale value. The squash must start at
// the oldest violating consumer: everything from the consumer onward
// re-executes, while instructions between the store and the consumer keep
// their results.
func (c *CPU) checkViolation(e *ROBEntry) {
	victim := c.staleHostLoad(e.Seq, e.PC, e.Addr, e.StoreVal, nil)
	// Evaluated trace invocations: their recorded loads are snooped the
	// same way.
	for _, o := range c.evalTraces.live() {
		if o.Seq <= e.Seq {
			continue
		}
		for i := range o.Trace.Result.Loads {
			l := &o.Trace.Result.Loads[i]
			if !overlaps(e.Addr, l.Addr) || c.interveningStore(e.Seq, o.Seq, l.Addr) {
				continue
			}
			if e.Addr == l.Addr && l.Value == e.StoreVal {
				continue
			}
			c.mdp.Violation(uint64(l.PC), uint64(e.PC))
			if victim == nil || o.Seq < victim.Seq {
				victim = o
			}
		}
	}
	c.squashStale(victim)
}

// traceStoreViolations runs when a trace invocation's stores become known:
// younger host loads that issued before the evaluation may have read stale
// values.
func (c *CPU) traceStoreViolations(e *ROBEntry) {
	var victim *ROBEntry
	for i := range e.Trace.Result.Stores {
		st := &e.Trace.Result.Stores[i]
		victim = c.staleHostLoad(e.Seq, st.PC, st.Addr, st.Value, victim)
	}
	c.squashStale(victim)
}

// staleHostLoad snoops the host loads younger than the store numbered seq,
// at pc, that wrote val to addr. A load read a stale value if it issued
// (it reads at issue, so the window opens there, not at writeback) with an
// address that overlaps, no store in between re-covers that address, and
// it did not read val from addr by luck. Each such load trains the
// store-sets unit; staleHostLoad returns the oldest of them and victim.
func (c *CPU) staleHostLoad(seq uint64, pc int, addr, val uint64, victim *ROBEntry) *ROBEntry {
	for _, l := range c.loads.live() {
		if l.Seq <= seq || !l.Issued || !l.AddrValid || !overlaps(addr, l.Addr) {
			continue
		}
		if c.interveningStore(seq, l.Seq, l.Addr) || (l.Addr == addr && l.StoreVal == val) {
			continue
		}
		c.mdp.Violation(uint64(l.PC), uint64(pc))
		if victim == nil || l.Seq < victim.Seq {
			victim = l
		}
	}
	return victim
}

// squashStale squashes from victim, the oldest consumer that read a stale
// value, if there is one.
func (c *CPU) squashStale(victim *ROBEntry) {
	if victim == nil {
		return
	}
	c.stats.MemViolations++
	c.recoverCause = cpistack.CauseSquashMemOrder
	if victim.IsTrace() {
		c.stats.TraceSquashes++
		c.recoverCause = cpistack.CauseFabricSquashMemOrder
		c.squashTrace(victim, SquashMemOrder)
		return
	}
	c.squashFrom(victim.Seq, victim.PC)
}

// interveningStore reports whether a store with sequence in (after, before)
// covers addr, which would make an older store's value irrelevant.
func (c *CPU) interveningStore(after, before uint64, addr uint64) bool {
	for _, s := range c.strs.live() {
		if s.Seq > after && s.Seq < before && s.AddrValid && s.Addr == addr {
			return true
		}
	}
	return false
}

// writebackTraceDone finalizes a trace invocation.
func (c *CPU) writebackTraceDone(e *ROBEntry) {
	res := &e.Trace.Result
	if !res.ExitMatches || res.MemViolation {
		kind := SquashBranchExit
		c.recoverCause = cpistack.CauseFabricSquashBranchExit
		if res.MemViolation {
			kind = SquashMemOrder
			c.recoverCause = cpistack.CauseFabricSquashMemOrder
			c.stats.MemViolations++
		}
		c.stats.TraceSquashes++
		// Rewind the global history to the injection point; the host
		// re-predicts the region's branches as it re-executes it.
		c.bp.Restore(e.HistAtPred)
		// Train the direction predictor with the outcomes the fabric
		// observed, so the next walk follows the real path. This reads the
		// result, so it precedes the terminal Squash below.
		hist := e.HistAtPred
		for _, br := range res.Branches {
			if c.prog.At(br.PC).Op.IsCondBranch() {
				target := br.PC + 1
				if br.Taken {
					target = c.prog.At(br.PC).Target
				}
				c.bp.Update(uint64(br.PC), hist, br.Taken, target, false)
				hist = hist<<1 | histBit(br.Taken)
			}
		}
		c.squashTrace(e, kind)
		return
	}
	// The invocation itself is complete; a violation below squashes only
	// younger consumers, so mark completion first.
	e.Executed = true
	e.Trace.Handler.Complete()
	// The invocation's stores are now architectural candidates: snoop
	// younger host loads that issued before the evaluation.
	c.traceStoreViolations(e)
}

// writebackTraceLiveOut broadcasts live-out i of an invocation that stays
// on its recorded path (issueTrace schedules no other).
func (c *CPU) writebackTraceLiveOut(e *ROBEntry, i int) {
	tr := e.Trace
	p := tr.liveOutPhys[i]
	if p < 0 {
		return
	}
	if i < len(tr.Result.LiveOuts) {
		c.regs[p] = physReg{value: tr.Result.LiveOuts[i], ready: true, readyAt: c.cycle}
		c.stats.RegWrites++
		c.stats.Broadcasts++
		c.wake(p)
	}
}

// ----------------------------------------------------------------- squash --

// squashAfter flushes every instruction strictly younger than seq and
// redirects fetch to pc.
func (c *CPU) squashAfter(seq uint64, pc int) { c.squashBoundary(seq, false, pc) }

// squashFrom flushes seq itself and everything younger, redirecting to pc.
func (c *CPU) squashFrom(seq uint64, pc int) { c.squashBoundary(seq, true, pc) }

// squashTrace squashes the trace invocation e for kind, and everything
// younger, redirecting fetch to the trace's start. e's handler hears first,
// before the invocations e takes with it.
func (c *CPU) squashTrace(e *ROBEntry, kind SquashKind) {
	pc := e.Trace.StartPC
	c.endTrace(e, kind)
	c.squashFrom(e.Seq, pc)
}

// endTrace ends the squashed, renamed invocation e: its live-out registers
// go back to the free list, then its handler hears kind. Squash is the
// terminal callback, so nothing reads e.Trace after it.
func (c *CPU) endTrace(e *ROBEntry, kind SquashKind) {
	tr := e.Trace
	for _, p := range tr.liveOutPhys {
		if p >= 0 {
			c.freeList = append(c.freeList, p)
		}
	}
	tr.Handler.Squash(kind)
}

// squashBoundary flushes seq (when inclusive) and every younger
// instruction, and redirects fetch to pc. The flushed instructions are the
// tail of each sequence-ordered list and the whole front end.
func (c *CPU) squashBoundary(seq uint64, inclusive bool, pc int) {
	first := seq + 1 // the oldest flushed sequence number
	if inclusive {
		first = seq
	}
	// Flush the front end, which is younger than the ROB, notifying trace
	// injections that never reached the ROB. Front-end entries have no
	// scheduled events and sit in no other structure, so they recycle
	// immediately.
	for _, e := range c.fe.cut(first) {
		if e.IsTrace() {
			e.Trace.Handler.Squash(SquashExternal)
		}
		c.freeEntry(e)
	}
	c.haltFetched = false
	c.fetchStall = 0

	// Release what the flushed ROB entries hold, oldest first: the order
	// registers return to the free list decides which ones later renames
	// take.
	tail := c.rob.cut(first)
	for _, e := range tail {
		c.stats.Squashed++
		e.active = false
		if !e.Issued {
			c.rsCount--
		}
		if e.IsTrace() {
			// squashTrace ended the boundary invocation itself; every
			// other flushed invocation is external.
			if e.Seq != seq {
				c.endTrace(e, SquashExternal)
			}
			continue
		}
		if e.PhysDest >= 0 {
			c.freeList = append(c.freeList, e.PhysDest)
		}
		if !e.Issued {
			c.releaseSlot(e)
		}
	}
	c.loads.cut(first)
	c.strs.cut(first)
	c.rsTraces.cut(first)
	c.evalTraces.cut(first)
	c.ready = c.ready[:cutIndex(c.ready, first)]
	// Recycle the flushed entries only now: the cuts read their sequence
	// numbers. One with completion events still scheduled stays out of the
	// pool: writeback skips those events, the entry being inactive, and
	// recycles the entry when the last fires.
	for _, e := range tail {
		c.freeEntry(e)
	}

	// Rebuild the speculative RAT: committed map + surviving renames.
	copy(c.rat, c.committedRAT)
	for _, e := range c.rob.live() {
		if e.IsTrace() {
			for i, r := range e.Trace.LiveOuts {
				if p := e.Trace.liveOutPhys[i]; p >= 0 {
					c.rat[r] = p
				}
			}
			continue
		}
		if e.PhysDest >= 0 {
			c.rat[e.Inst.Dest] = e.PhysDest
		}
	}

	// Store-sets: drop in-flight registrations of squashed stores, then
	// re-register surviving unexecuted stores.
	c.mdp.Flush()
	for _, s := range c.strs.live() {
		if !s.Executed {
			c.mdp.CheckStore(uint64(s.PC), int(s.Seq))
		}
	}

	c.pc = pc
	if c.hooks.OnSquash != nil {
		c.hooks.OnSquash(first)
	}
}

// ---------------------------------------------------------------- commit --

func (c *CPU) commit() {
	n := 0
	for n < c.cfg.CommitWidth && c.rob.len() > 0 {
		e := c.rob.live()[0]
		if !e.Executed {
			return
		}
		if e.IsTrace() {
			c.commitTrace(e)
		} else {
			c.commitInst(e)
		}
		c.rob.pop()
		e.active = false
		c.freeEntry(e)
		n++
		if c.stats.HaltSeen {
			return
		}
	}
}

func (c *CPU) commitInst(e *ROBEntry) {
	in := &e.Inst
	c.stats.Committed++
	if in.Op == isa.OpHalt {
		c.stats.HaltSeen = true
		c.commitPC = e.PC
		return
	}
	if in.Op.IsBranch() && e.Taken {
		c.commitPC = e.Target
	} else {
		c.commitPC = e.PC + 1
	}
	if e.PhysDest >= 0 {
		old := c.committedRAT[in.Dest]
		c.committedRAT[in.Dest] = e.PhysDest
		if old != 0 {
			c.freeList = append(c.freeList, old)
		}
	}
	if in.Op.IsStore() {
		c.mem.Write64(e.Addr, e.StoreVal)
		c.strs.pop()
	}
	if in.Op.IsLoad() {
		c.loads.pop()
	}
	if in.Op.IsBranch() && c.hooks.OnCommitBranch != nil {
		c.hooks.OnCommitBranch(e.PC, e.Taken)
	}
	if c.hooks.OnCommit != nil {
		c.hooks.OnCommit(e.PC, e.Seq, in.Op)
	}
}

func (c *CPU) commitTrace(e *ROBEntry) {
	tr := e.Trace
	res := &tr.Result
	c.evalTraces.pop()
	c.stats.Committed += uint64(res.Ops)
	c.stats.TraceCommittedOps += uint64(res.Ops)
	c.commitPC = tr.ExitPC
	for i := range res.Stores {
		st := &res.Stores[i]
		c.mem.Write64(st.Addr, st.Value)
	}
	for i, r := range tr.LiveOuts {
		p := tr.liveOutPhys[i]
		if p < 0 {
			continue
		}
		old := c.committedRAT[r]
		c.committedRAT[r] = p
		if old != 0 {
			c.freeList = append(c.freeList, old)
		}
	}
	// Commit is the terminal callback: nothing below reads tr.
	tr.Handler.Commit()
	if c.hooks.OnCommit != nil {
		c.hooks.OnCommit(e.PC, e.Seq, isa.OpNop)
	}
}

func histBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
