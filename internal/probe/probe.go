// Package probe is the cycle-accurate observability subsystem: an event
// tracer plus a metrics registry that together answer "where do the cycles
// go?" for one simulation.
//
// A *Probe attaches to one core.System (core.System.SetProbe) and records
// per-instruction pipeline lifecycle events (fetch, issue, writeback,
// commit, squash) through the existing ooo.Hooks, plus framework events from
// the probe points in internal/core (invocation inject/evaluate/commit/
// squash, FIFO occupancy, mapping sessions), internal/fabric (evaluation,
// early exits, violations, stripe occupancy), internal/tcache (hot flips)
// and internal/cfgcache (configuration store/ready/evict, reconfigurations).
//
// Everything is timed in simulated cycles — the package never reads the
// wall clock — so a trace is a pure function of the simulation inputs and
// byte-identical across runs and sweep worker counts.
//
// The nil *Probe is the disabled state: every recording method is nil-safe
// and returns immediately, adding no allocations to the simulate path.
// Call sites therefore never need their own guard.
//
// Recorded data drains three ways: Metrics().Snapshot() merges counters and
// histograms into a runner journal's Metrics map; WriteChromeTrace emits
// Chrome trace-event JSON loadable in Perfetto (ui.perfetto.dev); and
// WritePipeView emits a Konata-style (Kanata 0004) text pipeline view that
// `dynaspam pipeview` renders as an ASCII timeline.
package probe

// Kind identifies one probe point.
type Kind uint8

// Event kinds. The Seq, PC, A and B fields of an Event are kind-specific;
// see each constant's comment (unlisted fields are zero).
const (
	// EvFetch: host instruction fetched. Seq=sequence number, PC.
	EvFetch Kind = iota
	// EvIssue: host instruction issued. Seq, PC, A=FU pool, B=unit.
	EvIssue
	// EvWriteback: host instruction (or trace entry) completed. Seq, PC.
	EvWriteback
	// EvCommit: host instruction (or trace entry) committed. Seq, PC.
	EvCommit
	// EvSquash: pipeline flush. Seq=oldest squashed sequence number.
	EvSquash
	// EvTraceInject: invocation entered the pipeline at fetch.
	// Seq=invocation id, PC=trace start, A=exit PC, B=trace length.
	EvTraceInject
	// EvTraceDenied: a ready trace was not offloaded this occurrence.
	// PC=anchor, A=denial reason (Denied* constants).
	EvTraceDenied
	// EvTraceEvalStart: fabric evaluation began. Seq=invocation id,
	// A=startup (reconfiguration) delay.
	EvTraceEvalStart
	// EvTraceEvalEnd: fabric evaluation finished. Seq=invocation id,
	// A=latency in cycles, B=ops retired by the invocation.
	EvTraceEvalEnd
	// EvTraceCommit: invocation committed atomically. Seq=invocation id,
	// A=ops.
	EvTraceCommit
	// EvTraceSquash: invocation squashed. Seq=invocation id,
	// A=ooo.SquashKind as int64.
	EvTraceSquash
	// EvFIFOOcc: total in-flight invocations changed. A=new occupancy.
	EvFIFOOcc
	// EvMapStart: a mapping session began. PC=anchor, A=key dirs.
	EvMapStart
	// EvMapEnd: a mapping session ended. PC=anchor, A=outcome (Map*
	// constants), B=mapped trace length (0 unless done).
	EvMapEnd
	// EvHot: the T-Cache flipped a trace hot. PC=anchor, A=key dirs.
	EvHot
	// EvCfgStore: a configuration entered the config cache. PC=trace
	// start, A=key dirs, B=trace length.
	EvCfgStore
	// EvCfgReady: a cached configuration crossed the ready threshold.
	// PC=anchor, A=key dirs.
	EvCfgReady
	// EvCfgEvict: a configuration was evicted. PC=anchor, A=key dirs.
	EvCfgEvict
	// EvReconfig: a fabric was reprogrammed. A=fabric index, B=penalty.
	EvReconfig
	// EvFabricEval: one invocation ran on the fabric. PC=trace start,
	// A=latency, B=ops; Seq=1 when the recorded path was left early or a
	// memory violation was detected, else 0.
	EvFabricEval
	// EvFabricExit: a branch inside an invocation left the recorded path.
	// PC=branch PC, A=actual exit PC.
	EvFabricExit
	// EvFabricViol: the fabric detected an intra-invocation memory-order
	// violation. PC=load PC.
	EvFabricViol
	// EvCPISample: periodic CPI-stack flush. A=cpistack.Cause as int64,
	// B=cycles charged to that cause since the previous flush. All samples
	// of one flush share a Cycle; the Chrome exporter groups them into one
	// stacked counter row per flush.
	EvCPISample
	// EvStripeOcc: per-stripe PE occupancy of one fabric invocation.
	// A=stripe index, B=powered PEs in that stripe.
	EvStripeOcc

	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	names := [numKinds]string{
		"fetch", "issue", "writeback", "commit", "squash",
		"trace-inject", "trace-denied", "trace-eval-start",
		"trace-eval-end", "trace-commit", "trace-squash", "fifo-occ",
		"map-start", "map-end", "hot", "cfg-store", "cfg-ready",
		"cfg-evict", "reconfig", "fabric-eval", "fabric-exit",
		"fabric-viol", "cpi-sample", "stripe-occ",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return "unknown"
}

// Denial reasons carried by EvTraceDenied.
const (
	// DeniedFIFO: the configuration's input FIFOs were full.
	DeniedFIFO int64 = iota
	// DeniedBlockOnce: the trace must run once on the host after a squash.
	DeniedBlockOnce
	// DeniedNotReady: the cached configuration has not crossed the ready
	// threshold (or the mode never offloads).
	DeniedNotReady
)

// Mapping-session outcomes carried by EvMapEnd.
const (
	// MapDone: a configuration was produced.
	MapDone int64 = iota
	// MapAborted: the session died to a squash or fetch divergence.
	MapAborted
	// MapFailed: the trace is structurally unmappable.
	MapFailed
)

// Event is one recorded probe sample. All fields are plain scalars so a
// recording is a single slice append.
type Event struct {
	// Cycle is the simulated cycle of the event.
	Cycle uint64
	// Seq is the instruction sequence number or invocation id (see Kind).
	Seq uint64
	// PC is the program counter the event refers to (-1 when absent).
	PC int
	// A and B are kind-specific arguments.
	A, B int64
	// Kind identifies the probe point.
	Kind Kind
}

// Metric names registered by New. Exporters and tests reference these
// instead of repeating string literals.
const (
	// MetricInvocLatency is the per-invocation fabric latency histogram.
	MetricInvocLatency = "invoc_latency"
	// MetricInvocII is the per-configuration initiation-interval histogram.
	MetricInvocII = "invoc_ii"
	// MetricTraceLen is the mapped-trace length histogram.
	MetricTraceLen = "trace_len"
	// MetricStripeOcc is the per-stripe PE occupancy histogram (one sample
	// per occupied stripe per invocation).
	MetricStripeOcc = "stripe_occupancy"
	// MetricSquashPrefix prefixes the per-SquashKind invocation squash
	// counters: squash_branch_exit, squash_mem_order, squash_external.
	MetricSquashPrefix = "squash_"
	// MetricOffloadDenied counts EvTraceDenied occurrences.
	MetricOffloadDenied = "offload_denied"
	// MetricEventsDropped counts events discarded by the MaxEvents cap.
	MetricEventsDropped = "events_dropped"
	// MetricFIFOOcc is the live in-flight invocation gauge: the most recent
	// FIFO occupancy, for mid-run scraping via the telemetry aggregator.
	MetricFIFOOcc = "fifo_occupancy"
)

// Probe records events and metrics for one simulation. The zero value is
// not used directly; construct with New. A nil *Probe is the disabled
// tracer: every method is safe to call and does nothing.
type Probe struct {
	maxEvents   int
	metricsOnly bool
	events      []Event
	reg         *Registry
	clock       func() uint64
	disasm      func(pc int) string
}

// New returns an enabled probe. maxEvents caps the event log (0 means
// unlimited); events beyond the cap are dropped deterministically
// (first-in wins) and counted under MetricEventsDropped.
func New(maxEvents int) *Probe {
	r := NewRegistry()
	r.RegisterHistogram(MetricInvocLatency, powersOf2Buckets(1, 512))
	r.RegisterHistogram(MetricInvocII, powersOf2Buckets(1, 512))
	r.RegisterHistogram(MetricTraceLen, []float64{4, 8, 12, 16, 20, 24, 28, 32, 40, 48})
	r.RegisterHistogram(MetricStripeOcc, []float64{1, 2, 3, 4, 6, 8, 10, 12})
	return &Probe{maxEvents: maxEvents, reg: r}
}

// NewMetricsOnly returns a probe that feeds the metrics registry but keeps
// no event log: every record is discarded (without counting toward
// MetricEventsDropped, which tracks cap overflow on a recording probe).
// This is the shape the live telemetry plane attaches when no trace export
// was requested — counters, gauges and histograms stay scrapeable without
// the event stream's memory footprint.
func NewMetricsOnly() *Probe {
	p := New(0)
	p.metricsOnly = true
	return p
}

// powersOf2Buckets returns le-bounds lo, 2lo, ..., hi.
func powersOf2Buckets(lo, hi float64) []float64 {
	var b []float64
	for v := lo; v <= hi; v *= 2 {
		b = append(b, v)
	}
	return b
}

// SetClock installs the simulated-cycle source used by probe points that
// have no cycle of their own (tcache, cfgcache). core.System.SetProbe wires
// it to the pipeline's cycle counter.
func (p *Probe) SetClock(clock func() uint64) {
	if p == nil {
		return
	}
	p.clock = clock
}

// SetDisasm installs the pc -> assembly-text mapping the exporters use for
// event labels.
func (p *Probe) SetDisasm(disasm func(pc int) string) {
	if p == nil {
		return
	}
	p.disasm = disasm
}

// Metrics returns the probe's registry (nil for a nil probe).
func (p *Probe) Metrics() *Registry {
	if p == nil {
		return nil
	}
	return p.reg
}

// Events returns the recorded events in simulation order. The slice is the
// probe's own backing store; callers must not mutate it.
func (p *Probe) Events() []Event {
	if p == nil {
		return nil
	}
	return p.events
}

// now reads the installed clock (0 without one).
func (p *Probe) now() uint64 {
	if p.clock == nil {
		return 0
	}
	return p.clock()
}

// record appends one event, honouring the cap.
func (p *Probe) record(e Event) {
	if p.metricsOnly {
		return
	}
	if p.maxEvents > 0 && len(p.events) >= p.maxEvents {
		p.reg.Counter(MetricEventsDropped, 1)
		return
	}
	p.events = append(p.events, e)
}

// ------------------------------------------------- pipeline probe points --

// Fetch records a host instruction entering the front end.
func (p *Probe) Fetch(cycle, seq uint64, pc int) {
	if p == nil {
		return
	}
	p.record(Event{Cycle: cycle, Seq: seq, PC: pc, Kind: EvFetch})
}

// Issue records a host instruction issuing to FU pool fu, unit.
func (p *Probe) Issue(cycle, seq uint64, pc int, fu, unit int64) {
	if p == nil {
		return
	}
	p.record(Event{Cycle: cycle, Seq: seq, PC: pc, A: fu, B: unit, Kind: EvIssue})
}

// Writeback records a completed instruction.
func (p *Probe) Writeback(cycle, seq uint64, pc int) {
	if p == nil {
		return
	}
	p.record(Event{Cycle: cycle, Seq: seq, PC: pc, Kind: EvWriteback})
}

// Commit records a committed instruction.
func (p *Probe) Commit(cycle, seq uint64, pc int) {
	if p == nil {
		return
	}
	p.record(Event{Cycle: cycle, Seq: seq, PC: pc, Kind: EvCommit})
}

// PipelineSquash records a flush whose oldest squashed instruction is seq.
func (p *Probe) PipelineSquash(cycle, seqBoundary uint64) {
	if p == nil {
		return
	}
	p.record(Event{Cycle: cycle, Seq: seqBoundary, PC: -1, Kind: EvSquash})
}

// ----------------------------------------------- framework probe points --

// TraceInject records invocation id entering the pipeline.
func (p *Probe) TraceInject(cycle, id uint64, startPC, exitPC, numInsts int) {
	if p == nil {
		return
	}
	p.record(Event{Cycle: cycle, Seq: id, PC: startPC, A: int64(exitPC), B: int64(numInsts), Kind: EvTraceInject})
}

// TraceDenied records a ready trace skipped for reason (Denied* constants).
func (p *Probe) TraceDenied(cycle uint64, pc int, reason int64) {
	if p == nil {
		return
	}
	p.reg.Counter(MetricOffloadDenied, 1)
	p.record(Event{Cycle: cycle, PC: pc, A: reason, Kind: EvTraceDenied})
}

// TraceEvalStart records invocation id starting fabric evaluation after
// startupDelay cycles of reconfiguration.
func (p *Probe) TraceEvalStart(cycle, id uint64, pc int, startupDelay int64) {
	if p == nil {
		return
	}
	p.record(Event{Cycle: cycle, Seq: id, PC: pc, A: startupDelay, Kind: EvTraceEvalStart})
}

// TraceEvalEnd records invocation id finishing evaluation. latency is the
// invocation's total cycles, ops its retired instruction count, and ii the
// initiation interval since the configuration's previous evaluation (-1
// when this is the first). Latency and II feed the registry histograms.
func (p *Probe) TraceEvalEnd(cycle, id uint64, pc int, latency, ops, ii int64) {
	if p == nil {
		return
	}
	p.reg.Observe(MetricInvocLatency, float64(latency))
	if ii >= 0 {
		p.reg.Observe(MetricInvocII, float64(ii))
	}
	p.record(Event{Cycle: cycle, Seq: id, PC: pc, A: latency, B: ops, Kind: EvTraceEvalEnd})
}

// TraceCommit records invocation id committing ops instructions atomically.
func (p *Probe) TraceCommit(cycle, id uint64, pc int, ops int64) {
	if p == nil {
		return
	}
	p.record(Event{Cycle: cycle, Seq: id, PC: pc, A: ops, Kind: EvTraceCommit})
}

// TraceSquash records invocation id squashed for kind (an ooo.SquashKind
// value) whose String form is kindName; the name keys the squash-reason
// counter so the breakdown lands in journal metrics.
func (p *Probe) TraceSquash(cycle, id uint64, pc int, kind int64, kindName string) {
	if p == nil {
		return
	}
	p.reg.Counter(squashCounterName(kindName), 1)
	p.record(Event{Cycle: cycle, Seq: id, PC: pc, A: kind, Kind: EvTraceSquash})
}

// squashCounterName converts a SquashKind string ("branch-exit") into its
// counter key ("squash_branch_exit").
func squashCounterName(kindName string) string {
	b := []byte(MetricSquashPrefix + kindName)
	for i, c := range b {
		if c == '-' {
			b[i] = '_'
		}
	}
	return string(b)
}

// FIFOOccupancy records the new total of in-flight invocations, both as an
// event (for the exporters' counter track) and as the MetricFIFOOcc gauge
// (for live scraping mid-run).
func (p *Probe) FIFOOccupancy(cycle uint64, occupancy int) {
	if p == nil {
		return
	}
	p.reg.Gauge(MetricFIFOOcc, float64(occupancy))
	p.record(Event{Cycle: cycle, PC: -1, A: int64(occupancy), Kind: EvFIFOOcc})
}

// MapStart records a mapping session opening at the anchor pc.
func (p *Probe) MapStart(cycle uint64, anchorPC int, dirs uint8) {
	if p == nil {
		return
	}
	p.record(Event{Cycle: cycle, PC: anchorPC, A: int64(dirs), Kind: EvMapStart})
}

// MapEnd records a mapping session closing with outcome (Map* constants)
// and, when done, the mapped trace length.
func (p *Probe) MapEnd(cycle uint64, anchorPC int, outcome int64, traceLen int) {
	if p == nil {
		return
	}
	p.record(Event{Cycle: cycle, PC: anchorPC, A: outcome, B: int64(traceLen), Kind: EvMapEnd})
}

// --------------------------------------- detection / cache probe points --

// TCacheHot records a trace flipping hot in the T-Cache.
func (p *Probe) TCacheHot(anchorPC int, dirs uint8) {
	if p == nil {
		return
	}
	p.record(Event{Cycle: p.now(), PC: anchorPC, A: int64(dirs), Kind: EvHot})
}

// CfgStored records a configuration entering the config cache; traceLen
// feeds the trace-length histogram.
func (p *Probe) CfgStored(startPC int, dirs uint8, traceLen int) {
	if p == nil {
		return
	}
	p.reg.Observe(MetricTraceLen, float64(traceLen))
	p.record(Event{Cycle: p.now(), PC: startPC, A: int64(dirs), B: int64(traceLen), Kind: EvCfgStore})
}

// CfgReady records a cached configuration crossing the ready threshold.
func (p *Probe) CfgReady(anchorPC int, dirs uint8) {
	if p == nil {
		return
	}
	p.record(Event{Cycle: p.now(), PC: anchorPC, A: int64(dirs), Kind: EvCfgReady})
}

// CfgEvicted records a configuration leaving the config cache.
func (p *Probe) CfgEvicted(anchorPC int, dirs uint8) {
	if p == nil {
		return
	}
	p.record(Event{Cycle: p.now(), PC: anchorPC, A: int64(dirs), Kind: EvCfgEvict})
}

// Reconfig records fabric fabricIdx being reprogrammed with penalty cycles.
func (p *Probe) Reconfig(fabricIdx int, penalty int) {
	if p == nil {
		return
	}
	p.record(Event{Cycle: p.now(), PC: -1, A: int64(fabricIdx), B: int64(penalty), Kind: EvReconfig})
}

// ------------------------------------------------- fabric probe points --

// FabricEval records one invocation evaluated by a fabric instance.
// aborted reports whether the invocation left the recorded path or hit a
// memory violation.
func (p *Probe) FabricEval(cycle uint64, startPC int, latency, ops int64, aborted bool) {
	if p == nil {
		return
	}
	seq := uint64(0)
	if aborted {
		seq = 1
	}
	p.record(Event{Cycle: cycle, Seq: seq, PC: startPC, A: latency, B: ops, Kind: EvFabricEval})
}

// FabricExit records a branch leaving the recorded path mid-invocation.
func (p *Probe) FabricExit(cycle uint64, branchPC, actualExitPC int) {
	if p == nil {
		return
	}
	p.record(Event{Cycle: cycle, PC: branchPC, A: int64(actualExitPC), Kind: EvFabricExit})
}

// FabricViolation records an intra-invocation memory-order violation.
func (p *Probe) FabricViolation(cycle uint64, loadPC int) {
	if p == nil {
		return
	}
	p.record(Event{Cycle: cycle, PC: loadPC, Kind: EvFabricViol})
}

// StripeOccupancy records how many PEs one stripe powers during an
// invocation (one sample per occupied stripe) in the stripe-occupancy
// histogram, and an EvStripeOcc event with the invocation's cycle and the
// stripe index, which the Chrome exporter renders as a per-stripe counter
// track.
func (p *Probe) StripeOccupancy(cycle uint64, stripe, pes int64) {
	if p == nil {
		return
	}
	p.reg.Observe(MetricStripeOcc, float64(pes))
	p.record(Event{Cycle: cycle, PC: -1, A: stripe, B: pes, Kind: EvStripeOcc})
}

// --------------------------------------------- cycle-accounting samples --

// CPISample records that delta cycles were charged to the cpistack cause
// since the previous sample. The core framework flushes one sample per
// nonzero cause every sampling period (and once at end of run), all
// sharing the same cycle stamp.
func (p *Probe) CPISample(cycle uint64, cause, delta int64) {
	if p == nil {
		return
	}
	p.record(Event{Cycle: cycle, PC: -1, A: cause, B: delta, Kind: EvCPISample})
}
