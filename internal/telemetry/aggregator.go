package telemetry

import (
	"sync"

	"dynaspam/internal/probe"
)

// Aggregator folds per-cell probe.Registry exports into one
// concurrency-safe view for the /metrics endpoint.
//
// Ownership rules (the whole design hinges on these):
//
//   - A probe.Registry stays single-owner: only the worker goroutine
//     running its simulation cell ever touches it, exactly as the probe
//     contract demands. The aggregator never sees a live registry.
//   - The hand-off unit is probe.Export — an immutable deep copy taken by
//     the worker *after* its cell stopped mutating the registry. Merging
//     an export can therefore run concurrently with every other worker.
//   - Merge semantics per metric kind: counters and histogram
//     counts/sums add (totals across cells); gauges are levels, so the
//     most recently merged value wins (live occupancy, not a sum).
//   - Histograms merge bucket-by-bucket only when bounds match exactly;
//     a shape mismatch (two cells registering the same name with
//     different bounds) still merges Count/Sum but drops the odd buckets
//     and increments BoundsMismatches, which /metrics exposes so the
//     misconfiguration is visible rather than silent.
//
// Values aggregated here feed a live scrape endpoint, not a results
// artifact: float addition across a nondeterministic merge order may
// differ in the last ulp between runs. Deterministic numbers come from
// the journal path, which is per-cell and ordered.
type Aggregator struct {
	mu       sync.Mutex
	counters map[string]float64
	gauges   map[string]float64
	hists    map[string]*probe.Histogram
	cells    int
	mismatch int
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{
		counters: make(map[string]float64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*probe.Histogram),
	}
}

// Merge folds one cell's registry export into the aggregate. Safe to call
// from any goroutine.
func (a *Aggregator) Merge(ex probe.Export) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cells++
	for name, v := range ex.Counters {
		a.counters[name] += v
	}
	for name, v := range ex.Gauges {
		a.gauges[name] = v
	}
	//lint:allow mapiter per-key histogram merge; the mismatch tally is a commutative int add
	for name, h := range ex.Hists {
		a.mergeHistLocked(name, h)
	}
}

// mergeHistLocked folds one exported histogram in; the caller holds mu.
func (a *Aggregator) mergeHistLocked(name string, h probe.Histogram) {
	cur, ok := a.hists[name]
	if !ok {
		a.hists[name] = &probe.Histogram{
			Bounds:       append([]float64(nil), h.Bounds...),
			BucketCounts: append([]uint64(nil), h.BucketCounts...),
			Count:        h.Count,
			Sum:          h.Sum,
		}
		return
	}
	cur.Count += h.Count
	cur.Sum += h.Sum
	if !sameBounds(cur.Bounds, h.Bounds) {
		a.mismatch++
		return
	}
	for i, c := range h.BucketCounts {
		cur.BucketCounts[i] += c
	}
}

// Cells returns how many exports have been merged.
func (a *Aggregator) Cells() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cells
}

// BoundsMismatches returns how many histogram merges had to drop buckets
// because of a shape mismatch.
func (a *Aggregator) BoundsMismatches() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.mismatch
}

// EventsDropped returns the merged probe.MetricEventsDropped counter: how
// many trace events finished cells discarded because of their MaxEvents
// cap. It is surfaced as its own first-class /metrics family
// (dynaspam_probe_events_dropped_total) so truncated traces are visible
// even to dashboards that ignore the dynaspam_sim_* namespace.
func (a *Aggregator) EventsDropped() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.counters[probe.MetricEventsDropped]
}

// Export deep-copies the aggregate, exactly like probe.Registry.Export:
// the caller may read it without holding any lock.
func (a *Aggregator) Export() probe.Export {
	a.mu.Lock()
	defer a.mu.Unlock()
	ex := probe.Export{
		Counters: make(map[string]float64, len(a.counters)),
		Gauges:   make(map[string]float64, len(a.gauges)),
		Hists:    make(map[string]probe.Histogram, len(a.hists)),
	}
	for name, v := range a.counters {
		ex.Counters[name] = v
	}
	for name, v := range a.gauges {
		ex.Gauges[name] = v
	}
	for name, h := range a.hists {
		ex.Hists[name] = probe.Histogram{
			Bounds:       append([]float64(nil), h.Bounds...),
			BucketCounts: append([]uint64(nil), h.BucketCounts...),
			Count:        h.Count,
			Sum:          h.Sum,
		}
	}
	return ex
}

// sameBounds reports whether two bucket-bound slices are identical. Bounds
// are registered constants, never computed, so exact comparison is the
// right test.
func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		//lint:allow floateq bucket bounds are registered literals compared for identity, not computed values
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
