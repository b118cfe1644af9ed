package jobs

import (
	"strings"
	"testing"
)

// TestResolveBounds pins the two size bounds a spec may set. A trace is at
// most as long as the fabric has processing elements (192), one per
// instruction, so a longer cap could never map, and a cap near 2^62 would
// overflow the trace walk's 4×TraceLen step limit to zero and silently
// form no trace. A spec may ask for at most as many fabrics as the
// configuration cache has entries (16), so one submission cannot make the
// simulator build, and scan on every offload, millions of fabrics that
// could never all hold a configuration.
func TestResolveBounds(t *testing.T) {
	for _, tc := range []struct {
		traceLen, fabrics int
		wantLen, wantFabs int    // resolved TraceLen and NumFabrics when accepted
		err               string // substring of the error when rejected
	}{
		{traceLen: 0, wantLen: 32, wantFabs: 1},
		{traceLen: 2, wantLen: 2, wantFabs: 1},
		{traceLen: 32, wantLen: 32, wantFabs: 1},
		{traceLen: 192, wantLen: 192, wantFabs: 1},
		{traceLen: 193, err: "tracelen 193 exceeds the fabric's 192 processing elements"},
		{traceLen: 1 << 61, err: "tracelen 2305843009213693952 exceeds"},
		{traceLen: 1 << 62, err: "tracelen 4611686018427387904 exceeds"},
		{traceLen: 1, err: "tracelen 1 is below the minimum trace length of 2"},
		{traceLen: -1, err: "tracelen -1 is negative"},
		{fabrics: 0, wantLen: 32, wantFabs: 1},
		{fabrics: 1, wantLen: 32, wantFabs: 1},
		{fabrics: 16, wantLen: 32, wantFabs: 16},
		{fabrics: 17, err: "fabrics 17 exceeds the configuration cache's 16 entries"},
		{fabrics: 1_000_000_000, err: "fabrics 1000000000 exceeds"},
		{fabrics: -1, err: "fabrics -1 is negative"},
	} {
		_, params, err := Spec{Bench: "PF", TraceLen: tc.traceLen, Fabrics: tc.fabrics}.Resolve()
		switch {
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("tracelen %d fabrics %d: err = %v, want one containing %q", tc.traceLen, tc.fabrics, err, tc.err)
		case tc.err == "" && err != nil:
			t.Errorf("tracelen %d fabrics %d: rejected: %v", tc.traceLen, tc.fabrics, err)
		case tc.err == "" && (params.TraceLen != tc.wantLen || params.NumFabrics != tc.wantFabs):
			t.Errorf("tracelen %d fabrics %d: TraceLen %d, NumFabrics %d, want %d and %d",
				tc.traceLen, tc.fabrics, params.TraceLen, params.NumFabrics, tc.wantLen, tc.wantFabs)
		}
	}
}

// FuzzSpecResolve: Resolve never panics, whatever the bench, mode and
// policy strings and the integer overrides, and a spec it accepts resolves
// to something the simulator can run: at least one workload, a trace
// length from 2 to the fabric's processing-element count, 1 to
// CfgCache.Entries fabrics and non-negative sampling geometry.
func FuzzSpecResolve(f *testing.F) {
	f.Add("PF", "", "", 0, 0, 0, 0, 0)
	f.Add("BP, NW", "accel-nospec", "sampled", 192, 16, 1000, 200, 50)
	f.Add("all", "baseline", "ff", 2, 1, 1, 0, 0)
	f.Add("PF", "accel-spec", "full", 1<<61, 0, 0, 0, 0)
	f.Add("PF", "mapping", "", 1<<62, 0, 0, 0, 0)
	f.Add("PF,", "warp", "warp", -1, 17, -1, -1, -1)
	f.Fuzz(func(t *testing.T, bench, mode, policy string, traceLen, fabrics, ffInterval, detailWindow, warmup int) {
		s := Spec{Bench: bench, Mode: mode, TraceLen: traceLen, Fabrics: fabrics, SimPolicy: policy,
			FFInterval: ffInterval, DetailWindow: detailWindow, Warmup: warmup}
		ws, params, err := s.Resolve()
		if err != nil {
			return
		}
		if len(ws) == 0 {
			t.Errorf("%+v: accepted with no workloads", s)
		}
		if pes := params.Geometry.Stripes * params.Geometry.PEsPerStripe(); params.TraceLen < 2 || params.TraceLen > pes {
			t.Errorf("%+v: accepted with TraceLen %d, outside 2 to %d", s, params.TraceLen, pes)
		}
		if params.NumFabrics < 1 || params.NumFabrics > params.CfgCache.Entries {
			t.Errorf("%+v: accepted with %d fabrics, outside 1 to %d", s, params.NumFabrics, params.CfgCache.Entries)
		}
		if ffInterval < 0 || detailWindow < 0 || warmup < 0 {
			t.Errorf("%+v: accepted with negative sampling geometry", s)
		}
	})
}
