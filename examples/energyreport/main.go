// Energyreport: run part of the benchmark suite in baseline and accelerated
// modes and report the per-component energy comparison plus the fabric's
// silicon cost — the Figure 9 / Table 6 view of DynaSpAM.
//
//	go run ./examples/energyreport
package main

import (
	"context"
	"fmt"
	"log"

	"dynaspam/internal/area"
	"dynaspam/internal/energy"
	"dynaspam/internal/experiments"
	"dynaspam/internal/fabric"
	"dynaspam/internal/runner"
	"dynaspam/internal/stats"
	"dynaspam/internal/workloads"
)

func main() {
	var ws []*workloads.Workload
	for _, ab := range []string{"HS", "PF", "SRAD"} {
		w, err := workloads.ByAbbrev(ab)
		if err != nil {
			log.Fatal(err)
		}
		ws = append(ws, w)
	}

	rows, err := experiments.Fig9Sweep(context.Background(), ws, runner.Options{})
	if err != nil {
		log.Fatal(err)
	}

	for _, r := range rows {
		fmt.Printf("%s: total %.0f pJ -> %.0f pJ (%s saved)\n",
			r.Workload, r.Baseline.Total(), r.DynaSpAM.Total(), stats.Pct(r.Reduction))
		tb := stats.NewTable("Component", "Baseline", "DynaSpAM", "Delta")
		for c := energy.Component(0); c < energy.NumComponents; c++ {
			delta := r.DynaSpAM[c] - r.Baseline[c]
			tb.AddRowf(c.String(), r.Baseline[c], r.DynaSpAM[c], delta)
		}
		fmt.Print(tb.String())
		fmt.Println()
	}
	red, err := experiments.GeomeanEnergyReduction(rows)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("geomean energy reduction: %s\n\n", stats.Pct(red))

	fmt.Println("silicon cost of the fabric (Table 6):")
	fmt.Print(area.Report(fabric.DefaultGeometry()))
}
