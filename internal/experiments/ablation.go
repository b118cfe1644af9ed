package experiments

import (
	"context"
	"fmt"

	"dynaspam/internal/fabric"
	"dynaspam/internal/mapper"
	"dynaspam/internal/runner"
	"dynaspam/internal/workloads"
)

// AblationRow is one workload's naive-vs-resource-aware mapping comparison
// (§2.2, Figure 2): how many of the workload's real hot trace shapes each
// mapper can place at all, and how many datapath slots the placements cost.
type AblationRow struct {
	Workload   string
	Traces     int
	NaiveOK    int
	AwareOK    int
	NaiveSlots int
	AwareSlots int
}

// AblationSweep maps every hot trace shape each workload produces with both
// the naive program-order mapper and the resource-aware mapper (paper §2.2,
// Figure 2), at the given trace length: one cell per workload (trace
// extraction dominates, so cells are per-workload rather than per-trace).
func AblationSweep(ctx context.Context, ws []*workloads.Workload, traceLen int, opts runner.Options) ([]AblationRow, error) {
	g := fabric.DefaultGeometry()
	var jobs []runner.Job[AblationRow]
	for _, w := range ws {
		w := w
		jobs = append(jobs, runner.Job[AblationRow]{
			Label: fmt.Sprintf("%s/len=%d", w.Abbrev, traceLen),
			Run: func(ctx context.Context) (AblationRow, error) {
				row := AblationRow{Workload: w.Abbrev}
				for _, tr := range SampleTraces(w, traceLen) {
					row.Traces++
					if cfg, err := mapper.MapNaive(tr, g, 0, len(tr)); err == nil {
						row.NaiveOK++
						row.NaiveSlots += cfg.DatapathSlots
					}
					if cfg, err := mapper.MapStatic(tr, g, 0, len(tr)); err == nil {
						row.AwareOK++
						row.AwareSlots += cfg.DatapathSlots
					}
				}
				return row, nil
			},
		})
	}
	return runner.Run(ctx, named(opts, "ablation"), jobs)
}
