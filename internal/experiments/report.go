package experiments

import (
	"fmt"

	"dynaspam/internal/energy"
	"dynaspam/internal/stats"
)

// The Report functions render each sweep's rows as the paper-style table
// that `dynaspam figures` prints and the figure benchmarks log. Headings
// stay with the caller; a table's summary line (Figure 8's GEOMEAN row,
// Figure 9's geomean reduction) belongs to the table.

// Fig7Report renders Figure 7: each workload's dynamic instruction
// placement at each trace length.
func Fig7Report(rows []Fig7Row) string {
	tb := stats.NewTable("Bench", "Len", "Host", "Mapping", "Fabric")
	for _, r := range rows {
		tb.AddRow(r.Workload, fmt.Sprint(r.TraceLen),
			stats.Pct(r.HostPct), stats.Pct(r.MappedPct), stats.Pct(r.FabricPct))
	}
	return tb.String()
}

// Table5Report renders Table 5: mapped and offloaded traces, then the
// average configuration lifetime at 1, 2 and 4 fabrics. The rows must
// come from a sweep over exactly those fabric counts.
func Table5Report(rows []Table5Row) string {
	tb := stats.NewTable("Bench", "Mapped", "Offloaded", "Life(1)", "Life(2)", "Life(4)")
	for _, r := range rows {
		tb.AddRow(r.Workload, fmt.Sprint(r.Mapped), fmt.Sprint(r.Offloaded),
			fmt.Sprintf("%.1f", r.Lifetime[0]), fmt.Sprintf("%.1f", r.Lifetime[1]),
			fmt.Sprintf("%.1f", r.Lifetime[2]))
	}
	return tb.String()
}

// Fig8Report renders Figure 8: each workload's three speedups over the
// host pipeline, closed by their GEOMEAN row.
func Fig8Report(rows []Fig8Row) (string, error) {
	tb := stats.NewTable("Bench", "Mapping", "Accel w/o spec", "Accel w/ spec")
	for _, r := range rows {
		tb.AddRowf(r.Workload, r.MappingOnly, r.AccelNoSpec, r.AccelSpec)
	}
	m, n, s, err := GeomeanSpeedups(rows)
	if err != nil {
		return "", err
	}
	tb.AddRowf("GEOMEAN", m, n, s)
	return tb.String(), nil
}

// Fig9Report renders Figure 9: per-component energy in nJ (baseline ->
// DynaSpAM) and each workload's total reduction, closed by the geomean
// reduction line.
func Fig9Report(rows []Fig9Row) (string, error) {
	tb := stats.NewTable("Bench", "Fetch", "Rename", "InstSched", "Exec", "Datapath", "Memory", "Fabric", "Reduction")
	for _, r := range rows {
		cell := func(c energy.Component) string {
			return fmt.Sprintf("%.0f->%.0f", r.Baseline[c]/1000, r.DynaSpAM[c]/1000)
		}
		tb.AddRow(r.Workload, cell(energy.Fetch), cell(energy.Rename), cell(energy.InstSchedule),
			cell(energy.Execution), cell(energy.Datapath), cell(energy.Memory), cell(energy.Fabric),
			stats.Pct(r.Reduction))
	}
	red, err := GeomeanEnergyReduction(rows)
	if err != nil {
		return "", err
	}
	return tb.String() + fmt.Sprintf("Geomean energy reduction: %s\n", stats.Pct(red)), nil
}

// AblationReport renders the §2.2 ablation: how many trace shapes each
// mapper places and the datapath slots the placements cost.
func AblationReport(rows []AblationRow) string {
	tb := stats.NewTable("Bench", "Traces", "Naive ok", "Aware ok", "Naive slots", "Aware slots")
	for _, r := range rows {
		tb.AddRow(r.Workload, fmt.Sprint(r.Traces),
			fmt.Sprint(r.NaiveOK), fmt.Sprint(r.AwareOK),
			fmt.Sprint(r.NaiveSlots), fmt.Sprint(r.AwareSlots))
	}
	return tb.String()
}
