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
	// spans at least two instructions, so 1 is rejected.
	TraceLen int `json:"tracelen,omitempty"`
	// Fabrics overrides the physical fabric count when positive.
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

// simPolicyName returns the spec's fidelity name with the default spelled
// out, for logs, span labels, and API views.
func (s Spec) simPolicyName() string {
	if s.SimPolicy == "" {
		return "full"
	}
	return s.SimPolicy
}

// ParseMode maps a mode name to its core.Mode. The names match the CLI's
// -mode flag and the JSON spec's "mode" field.
func ParseMode(name string) (core.Mode, bool) {
	switch name {
	case "baseline":
		return core.ModeBaseline, true
	case "mapping":
		return core.ModeMappingOnly, true
	case "accel-nospec":
		return core.ModeAccelNoSpec, true
	case "accel-spec":
		return core.ModeAccel, true
	}
	return 0, false
}

// Workloads resolves the spec's bench selector to concrete workloads.
func (s Spec) Workloads() ([]*workloads.Workload, error) {
	if s.Bench == "" {
		return nil, fmt.Errorf("jobs: spec has no bench")
	}
	if strings.EqualFold(s.Bench, "all") {
		return workloads.All(), nil
	}
	var ws []*workloads.Workload
	for _, ab := range strings.Split(s.Bench, ",") {
		w, err := workloads.ByAbbrev(strings.TrimSpace(ab))
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// Params resolves the spec's configuration overrides onto the default
// simulator parameters.
func (s Spec) Params() (core.Params, error) {
	params := core.DefaultParams()
	modeName := s.Mode
	if modeName == "" {
		modeName = "accel-spec"
	}
	mode, ok := ParseMode(modeName)
	if !ok {
		return params, fmt.Errorf("jobs: unknown mode %q", s.Mode)
	}
	params.Mode = mode
	if s.TraceLen < 0 {
		return params, fmt.Errorf("jobs: tracelen %d is negative", s.TraceLen)
	}
	if s.TraceLen == 1 {
		return params, fmt.Errorf("jobs: tracelen 1 is below the minimum trace length of 2")
	}
	if s.TraceLen > 0 {
		params.TraceLen = s.TraceLen
	}
	if s.Fabrics < 0 {
		return params, fmt.Errorf("jobs: fabrics %d is negative", s.Fabrics)
	}
	if s.Fabrics > 0 {
		params.NumFabrics = s.Fabrics
	}
	simMode, ok := core.ParseSimMode(s.SimPolicy)
	if !ok {
		return params, fmt.Errorf("jobs: unknown sim policy %q", s.SimPolicy)
	}
	params.Sim.Mode = simMode
	if s.FFInterval < 0 || s.DetailWindow < 0 || s.Warmup < 0 {
		return params, fmt.Errorf("jobs: negative sampling geometry (ff_interval=%d detail_window=%d warmup=%d)",
			s.FFInterval, s.DetailWindow, s.Warmup)
	}
	params.Sim.FFInterval = uint64(s.FFInterval)
	params.Sim.DetailWindow = uint64(s.DetailWindow)
	params.Sim.Warmup = uint64(s.Warmup)
	return params, nil
}

// Validate checks that the spec resolves to at least one workload and a
// legal configuration, without running anything. Submit rejects invalid
// specs up front so a queued job can only fail for simulation reasons.
func (s Spec) Validate() error {
	if _, err := s.Workloads(); err != nil {
		return err
	}
	_, err := s.Params()
	return err
}
