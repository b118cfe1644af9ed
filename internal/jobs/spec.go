package jobs

import (
	"fmt"
	"strings"

	"dynaspam/internal/core"
	"dynaspam/internal/workloads"
)

// Spec is a job submission: which benchmarks to simulate and under what
// configuration. It is the JSON body of POST /jobs and the unit persisted
// to the state directory, so adding a field here extends both the wire
// format and the on-disk format (both tolerate absent fields).
type Spec struct {
	// Bench selects workloads: a single abbreviation ("BP"), a
	// comma-separated list ("BP,PF"), or "all".
	Bench string `json:"bench"`
	// Mode is the architecture mode: baseline | mapping | accel-nospec |
	// accel-spec. Empty means accel-spec.
	Mode string `json:"mode,omitempty"`
	// TraceLen overrides the trace length cap when positive. A trace
	// spans at least two instructions, so 1 is rejected, and each of its
	// instructions takes one of the fabric's processing elements (192 by
	// default), so a cap above that count is rejected too: so long a
	// trace could never map.
	TraceLen int `json:"tracelen,omitempty"`
	// Fabrics overrides the physical fabric count when positive. It may
	// not exceed the configuration cache's entry count: a fabric holds one
	// cached configuration, so more fabrics than entries could never all
	// be used, and each one costs memory and a slot every offload scans.
	Fabrics int `json:"fabrics,omitempty"`
	// SimPolicy selects the simulation fidelity: full | ff | sampled.
	// Empty means full detail. The policy is part of the result-cache key,
	// so cells computed at different fidelities never mix.
	SimPolicy string `json:"sim_policy,omitempty"`
	// FFInterval/DetailWindow/Warmup override the sampling geometry (in
	// instructions) when positive; zero keeps the defaults. Only meaningful
	// with SimPolicy "sampled" (FFInterval also applies to "ff").
	FFInterval   int `json:"ff_interval,omitempty"`
	DetailWindow int `json:"detail_window,omitempty"`
	Warmup       int `json:"warmup,omitempty"`
}

// Resolve checks the spec and resolves it to the workloads its bench
// selector names and the simulator parameters its overrides set on the
// defaults. A job resolves its spec once, at submission or at recovery, and
// keeps the result; the CLI's sweep flags resolve through it too, so the
// CLI and POST /jobs accept and reject the same configurations. The checks
// run in a fixed order (bench, mode, tracelen, fabrics, sim policy,
// sampling geometry), and the first failure is the error.
func (s Spec) Resolve() ([]*workloads.Workload, core.Params, error) {
	var ws []*workloads.Workload
	switch {
	case s.Bench == "":
		return nil, core.Params{}, fmt.Errorf("jobs: spec has no bench")
	case strings.EqualFold(s.Bench, "all"):
		ws = workloads.All()
	default:
		for _, ab := range strings.Split(s.Bench, ",") {
			w, err := workloads.ByAbbrev(strings.TrimSpace(ab))
			if err != nil {
				return nil, core.Params{}, err
			}
			ws = append(ws, w)
		}
	}

	params := core.DefaultParams()
	mode, ok := core.ParseMode(s.Mode)
	if !ok {
		return nil, core.Params{}, fmt.Errorf("jobs: unknown mode %q", s.Mode)
	}
	params.Mode = mode
	pes := params.Geometry.Stripes * params.Geometry.PEsPerStripe()
	switch {
	case s.TraceLen < 0:
		return nil, core.Params{}, fmt.Errorf("jobs: tracelen %d is negative", s.TraceLen)
	case s.TraceLen == 1:
		return nil, core.Params{}, fmt.Errorf("jobs: tracelen 1 is below the minimum trace length of 2")
	case s.TraceLen > pes:
		return nil, core.Params{}, fmt.Errorf("jobs: tracelen %d exceeds the fabric's %d processing elements", s.TraceLen, pes)
	case s.TraceLen > 0:
		params.TraceLen = s.TraceLen
	}
	switch {
	case s.Fabrics < 0:
		return nil, core.Params{}, fmt.Errorf("jobs: fabrics %d is negative", s.Fabrics)
	case s.Fabrics > params.CfgCache.Entries:
		return nil, core.Params{}, fmt.Errorf("jobs: fabrics %d exceeds the configuration cache's %d entries", s.Fabrics, params.CfgCache.Entries)
	case s.Fabrics > 0:
		params.NumFabrics = s.Fabrics
	}
	simMode, ok := core.ParseSimMode(s.SimPolicy)
	if !ok {
		return nil, core.Params{}, fmt.Errorf("jobs: unknown sim policy %q", s.SimPolicy)
	}
	if s.FFInterval < 0 || s.DetailWindow < 0 || s.Warmup < 0 {
		return nil, core.Params{}, fmt.Errorf("jobs: negative sampling geometry (ff_interval=%d detail_window=%d warmup=%d)",
			s.FFInterval, s.DetailWindow, s.Warmup)
	}
	params.Sim = core.SimPolicy{
		Mode:         simMode,
		FFInterval:   uint64(s.FFInterval),
		DetailWindow: uint64(s.DetailWindow),
		Warmup:       uint64(s.Warmup),
	}
	return ws, params, nil
}
