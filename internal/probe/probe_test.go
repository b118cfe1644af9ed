package probe

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestNilProbeZeroAlloc is the zero-overhead-when-nil guarantee: every
// recording method on a nil probe must return without allocating. The
// simulate path calls these behind `if probe != nil` guards too, but the
// methods themselves must stay safe and free for unguarded call sites
// (tcache, cfgcache, fabric hot paths).
func TestNilProbeZeroAlloc(t *testing.T) {
	var p *Probe
	allocs := testing.AllocsPerRun(100, func() {
		p.Fetch(1, 2, 3)
		p.Issue(1, 2, 3, 0, 1)
		p.Writeback(1, 2, 3)
		p.Commit(1, 2, 3)
		p.PipelineSquash(1, 2)
		p.TraceInject(1, 2, 3, 4, 5)
		p.TraceDenied(1, 2, DeniedFIFO)
		p.TraceEvalStart(1, 2, 3, 4)
		p.TraceEvalEnd(1, 2, 3, 4, 5, 6)
		p.TraceCommit(1, 2, 3, 4)
		p.TraceSquash(1, 2, 3, 0, "branch-exit")
		p.FIFOOccupancy(1, 2)
		p.MapStart(1, 2, 3)
		p.MapEnd(1, 2, MapDone, 4)
		p.TCacheHot(1, 2)
		p.CfgStored(1, 2, 3)
		p.CfgReady(1, 2)
		p.CfgEvicted(1, 2)
		p.Reconfig(1, 2)
		p.FabricEval(1, 2, 3, 4, false)
		p.FabricExit(1, 2, 3)
		p.FabricViolation(1, 2)
		p.StripeOccupancy(1, 2, 3)
		p.SetClock(nil)
		p.SetDisasm(nil)
		_ = p.Events()
		_ = p.Metrics()
		_ = p.Dropped()
	})
	if allocs != 0 {
		t.Fatalf("nil probe allocated %v times per run, want 0", allocs)
	}
}

func TestRecordingAndMetrics(t *testing.T) {
	p := New(0)
	p.Fetch(10, 1, 100)
	p.TraceEvalEnd(20, 1, 100, 8, 30, 16)
	p.TraceEvalEnd(25, 2, 100, 4, 30, -1) // first eval: no II sample
	p.TraceSquash(30, 2, 100, 0, "branch-exit")
	p.TraceSquash(31, 3, 100, 1, "mem-order")
	p.CfgStored(100, 3, 24)

	evs := p.Events()
	if len(evs) != 6 {
		t.Fatalf("recorded %d events, want 6", len(evs))
	}
	if evs[0].Kind != EvFetch || evs[0].Cycle != 10 || evs[0].Seq != 1 || evs[0].PC != 100 {
		t.Fatalf("fetch event = %+v", evs[0])
	}

	reg := p.Metrics()
	if got := reg.Histogram(MetricInvocLatency).Count; got != 2 {
		t.Fatalf("latency samples = %d, want 2", got)
	}
	if got := reg.Histogram(MetricInvocII).Count; got != 1 {
		t.Fatalf("II samples = %d, want 1 (negative II must be skipped)", got)
	}
	if got := reg.Histogram(MetricTraceLen).Count; got != 1 {
		t.Fatalf("trace-len samples = %d, want 1", got)
	}
	if got := reg.CounterValue("squash_branch_exit"); got != 1 {
		t.Fatalf("squash_branch_exit = %v, want 1", got)
	}
	if got := reg.CounterValue("squash_mem_order"); got != 1 {
		t.Fatalf("squash_mem_order = %v, want 1", got)
	}
}

func TestEventCap(t *testing.T) {
	p := New(3)
	for i := 0; i < 10; i++ {
		p.Fetch(uint64(i), uint64(i), i)
	}
	if len(p.Events()) != 3 {
		t.Fatalf("kept %d events, want 3", len(p.Events()))
	}
	if p.Dropped() != 7 {
		t.Fatalf("Dropped = %d, want 7", p.Dropped())
	}
	// First-in wins: the kept events are the earliest.
	if p.Events()[2].Cycle != 2 {
		t.Fatalf("cap kept wrong events: %+v", p.Events())
	}
}

func TestMetricsOnlyProbe(t *testing.T) {
	p := NewMetricsOnly()
	for i := 0; i < 10; i++ {
		p.Fetch(uint64(i), uint64(i), i)
	}
	p.TraceEvalEnd(100, 1, 0, 17, 8, -1)
	p.FIFOOccupancy(100, 2)
	if len(p.Events()) != 0 {
		t.Fatalf("metrics-only probe kept %d events, want 0", len(p.Events()))
	}
	if p.Dropped() != 0 {
		t.Fatalf("metrics-only probe counted %d dropped events, want 0 (discard is not overflow)", p.Dropped())
	}
	if h := p.Metrics().Histogram(MetricInvocLatency); h == nil || h.Count != 1 || h.Sum != 17 {
		t.Fatalf("metrics-only probe lost histogram samples: %+v", h)
	}
	if got := p.Metrics().GaugeValue(MetricFIFOOcc); got != 2 {
		t.Fatalf("fifo occupancy gauge = %v, want 2", got)
	}
}

func TestKindString(t *testing.T) {
	if EvFetch.String() != "fetch" || EvFabricViol.String() != "fabric-viol" {
		t.Fatalf("Kind.String broken: %q %q", EvFetch, EvFabricViol)
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("out-of-range Kind must print unknown")
	}
}

func TestChromeTraceShape(t *testing.T) {
	p := New(0)
	p.Fetch(5, 1, 7)
	p.Issue(6, 1, 7, 0, 0)
	p.Writeback(7, 1, 7)
	p.Commit(8, 1, 7)
	p.TraceInject(10, 1, 7, 9, 12)
	p.TraceEvalStart(11, 1, 7, 0)
	p.TraceEvalEnd(15, 1, 7, 4, 12, -1)
	p.TraceCommit(16, 1, 7, 12)
	p.PipelineSquash(20, 2)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []TraceRun{p.TraceRun("test")}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev["ph"].(string)]++
	}
	if phases["M"] == 0 || phases["X"] != 2 || phases["i"] != 1 {
		t.Fatalf("event phases = %v, want metadata, 2 slices, 1 instant", phases)
	}
}

func TestPipeViewRoundTrip(t *testing.T) {
	p := New(0)
	p.Fetch(5, 1, 7)
	p.Issue(6, 1, 7, 0, 0)
	p.Writeback(7, 1, 7)
	p.Commit(8, 1, 7)
	p.Fetch(6, 2, 8) // squashed: no commit
	p.TraceInject(10, 1, 7, 9, 12)
	p.TraceEvalStart(11, 1, 7, 2)
	p.TraceEvalEnd(15, 1, 7, 4, 12, -1)
	p.TraceSquash(16, 1, 7, 0, "branch-exit")

	var buf bytes.Buffer
	if err := WritePipeView(&buf, []TraceRun{p.TraceRun("rt")}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "#run\trt\nKanata\t0004\n") {
		t.Fatalf("missing header: %q", buf.String()[:40])
	}
	runs, err := ParsePipeView(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Name != "rt" {
		t.Fatalf("parsed %+v", runs)
	}
	insts := runs[0].Insts
	if len(insts) != 3 { // 2 instructions + 1 invocation
		t.Fatalf("parsed %d records, want 3", len(insts))
	}
	first := insts[0]
	if !first.Done || first.Flushed || first.Retired != 8 {
		t.Fatalf("inst 0 = %+v, want commit at 8", first)
	}
	if got := []string{first.Stages[0].Name, first.Stages[1].Name, first.Stages[2].Name}; got[0] != StageFetch || got[1] != StageIssue || got[2] != StageWriteback {
		t.Fatalf("inst 0 stages = %v", got)
	}
	squashed := insts[1]
	if !squashed.Done || !squashed.Flushed {
		t.Fatalf("inst 1 = %+v, want flush", squashed)
	}
	invoc := insts[2]
	if invoc.TID != 1 || !invoc.Flushed || len(invoc.Stages) != 3 {
		t.Fatalf("invocation = %+v, want tid 1, flush, 3 stages", invoc)
	}
}

func TestParsePipeViewRejectsGarbage(t *testing.T) {
	cases := []string{
		"S\t0\t0\tF\n",                           // line before header
		"Kanata\t0003\nC=\t0\n",                  // wrong version
		"Kanata\t0004\nS\t0\t0\tF\n",             // stage for undeclared id
		"Kanata\t0004\nI\t0\t1\t0\nI\t0\t2\t0\n", // duplicate id
		"Kanata\t0004\nZ\t0\n",                   // unknown record
	}
	for _, in := range cases {
		if _, err := ParsePipeView(strings.NewReader(in)); err == nil {
			t.Errorf("ParsePipeView(%q) accepted invalid input", in)
		}
	}
}

func TestAssignLanesNoOverlap(t *testing.T) {
	spans := [][2]uint64{{0, 10}, {1, 5}, {2, 3}, {5, 8}, {10, 12}, {3, 4}}
	lanes := AssignLanes(len(spans), func(i int) (uint64, uint64) { return spans[i][0], spans[i][1] })
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if lanes[i] != lanes[j] {
				continue
			}
			if spans[i][0] < spans[j][1] && spans[j][0] < spans[i][1] {
				t.Fatalf("intervals %v and %v overlap on lane %d", spans[i], spans[j], lanes[i])
			}
		}
	}
}
