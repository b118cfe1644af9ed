package main

// The claim rule, the report, and end-to-end runs (`make perf-ab`).

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// abRun is one perfbench run's summary.
type abRun struct {
	Digest    string
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// e2eMetric is one BENCHMARK.json end_to_end entry.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // largest tolerated fractional loss
}

// Verdicts of one metric.
const (
	verdictClaimed    = "claimed"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// abRow is one metric's comparison.
type abRow struct {
	Metric       e2eMetric
	Base, Change quartiles
	// Wins and Losses count the pairs where the change is strictly
	// better and strictly worse.
	Wins, Losses, Pairs int
	// Gap is the change's median minus the parent's, signed so that a
	// positive gap is an improvement.
	Gap     float64
	Verdict string
}

// quartiles summarizes one side's values.
type quartiles struct{ Q1, Median, Q3 float64 }

func summarize(xs []float64) quartiles {
	return quartiles{quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (perfbench's convention), or NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// minClaimPairs is the fewest pairs a claim may rest on.
const minClaimPairs = 10

// judge compares paired values of one metric. A pair is a win when the
// change is strictly better. The change claims the metric when claims
// holds for its wins and median gap; it regresses when its median is worse
// than the parent's by more than the metric's bound (a fraction of the
// parent's median). Anything else is unresolved.
func judge(m e2eMetric, base, change []float64) abRow {
	r := abRow{Metric: m, Base: summarize(base), Change: summarize(change), Pairs: len(base)}
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	for i := range base {
		switch d := sign * (change[i] - base[i]); {
		case d > 0:
			r.Wins++
		case d < 0:
			r.Losses++
		}
	}
	r.Gap = sign * (r.Change.Median - r.Base.Median)
	switch {
	case -r.Gap > m.Bound*math.Abs(r.Base.Median):
		r.Verdict = verdictRegressed
	case claims(r.Wins, r.Pairs, r.Gap, r.Base):
		r.Verdict = verdictClaimed
	default:
		r.Verdict = verdictUnresolved
	}
	return r
}

// claims is the claim rule: over at least minClaimPairs pairs, a side won
// at least nine in ten, and gap, the margin by which its median beats the
// other side's, exceeds the other side's interquartile range.
func claims(wins, pairs int, gap float64, other quartiles) bool {
	return pairs >= minClaimPairs && 10*wins >= 9*pairs && gap > other.Q3-other.Q1
}

// readRuns parses one side's runs: every JSON summary line, with the
// digest from the "digest" line before it. Other lines are ignored.
func readRuns(data []byte) ([]abRun, error) {
	var runs []abRun
	digest := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "digest "):
			digest = strings.Fields(line)[1]
		case strings.HasPrefix(line, "{"):
			var run abRun
			if err := json.Unmarshal([]byte(line), &run); err != nil {
				return nil, fmt.Errorf("run %d: %v", len(runs)+1, err)
			}
			run.Digest, digest = digest, ""
			runs = append(runs, run)
		}
	}
	return runs, nil
}

// abCompare judges every end-to-end metric both sides report and lists
// what makes the comparison itself invalid: unequal run counts, a run
// that is not correct or had failed operations, and digests that differ
// (the two sides did not simulate the same thing).
func abCompare(metrics []e2eMetric, base, change []abRun) (rows []abRow, problems []note) {
	invalid := func(format string, args ...any) {
		problems = append(problems, note{noteInvalid, fmt.Sprintf(format, args...)})
	}
	if len(base) == 0 || len(base) != len(change) {
		invalid("need the same nonzero number of runs per side, have %d parent and %d change", len(base), len(change))
		return nil, problems
	}
	var digests []string
	for _, side := range []struct {
		name string
		runs []abRun
	}{{"parent", base}, {"change", change}} {
		for i, run := range side.runs {
			if !run.Correct || run.Failed > 0 {
				invalid("%s run %d: correct=%v, %d of %d operations failed", side.name, i+1, run.Correct, run.Failed, run.Attempted)
			}
			if run.Digest == "" {
				invalid("%s run %d: no digest line", side.name, i+1)
			} else if !slices.Contains(digests, run.Digest) {
				digests = append(digests, run.Digest)
			}
		}
	}
	if len(digests) > 1 {
		invalid("runs disagree on the digest: %s", strings.Join(digests, ", "))
	}
	for _, m := range metrics {
		b, c := values(base, m.Name), values(change, m.Name)
		if b == nil || c == nil {
			continue // not a metric of this workload
		}
		rows = append(rows, judge(m, b, c))
	}
	return rows, problems
}

// values returns every run's value of metric name, or nil if any run
// lacks it.
func values(runs []abRun, name string) []float64 {
	out := make([]float64, len(runs))
	for i, run := range runs {
		v, ok := run.Metrics[name]
		if !ok {
			return nil
		}
		out[i] = v.Value
	}
	return out
}

// printReport writes the comparison table, then the notes. The name and
// quartile columns widen past an end-to-end metric's widths for the longer
// benchmark names and ns/op readings.
func printReport(w io.Writer, rows []abRow, notes []note) {
	nameW, baseW, changeW := 18, 28, 28
	for _, r := range rows {
		nameW = max(nameW, len(r.Metric.Name)+1)
		baseW = max(baseW, len(r.Base.String())+1)
		changeW = max(changeW, len(r.Change.String())+1)
	}
	fmt.Fprintf(w, "%-*s %-8s %-*s %-*s %6s %18s %10s  %s\n", nameW, "metric", "unit",
		baseW, "parent median [q1 q3]", changeW, "change median [q1 q3]", "wins", "gap", "parent IQR", "verdict")
	for _, r := range rows {
		rel := 100 * r.Gap / math.Abs(r.Base.Median)
		fmt.Fprintf(w, "%-*s %-8s %-*s %-*s %6s %18s %10.4g  %s\n",
			nameW, r.Metric.Name, r.Metric.Unit, baseW, r.Base.String(), changeW, r.Change.String(),
			fmt.Sprintf("%d/%d", r.Wins, r.Pairs), fmt.Sprintf("%+.4g (%+.1f%%)", r.Gap, rel),
			r.Base.Q3-r.Base.Q1, r.Verdict)
	}
	for _, n := range notes {
		fmt.Fprintf(w, "%-8s %s\n", n.kind, n.text)
	}
}

func (q quartiles) String() string {
	return fmt.Sprintf("%.4g [%.4g %.4g]", q.Median, q.Q1, q.Q3)
}

// compareRuns judges end-to-end runs, data[0] the parent's and data[1]
// the change's (read from files), against the metrics in benchmarkPath.
func compareRuns(benchmarkPath string, files []string, data [2][]byte) (rows []abRow, notes []note, err error) {
	raw, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return nil, nil, err
	}
	var bench struct {
		EndToEnd []e2eMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		return nil, nil, fmt.Errorf("%s: %v", benchmarkPath, err)
	}
	var sides [2][]abRun
	for i := range sides {
		if sides[i], err = readRuns(data[i]); err != nil {
			return nil, nil, fmt.Errorf("%s: %v", files[i], err)
		}
	}
	rows, notes = abCompare(bench.EndToEnd, sides[0], sides[1])
	return rows, notes, nil
}
