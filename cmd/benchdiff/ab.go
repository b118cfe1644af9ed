package main

// The -ab mode: compare alternating parent/change runs of one end-to-end
// benchmark workload (`make perf-ab`). Each input file holds one side's
// runs in order, as the digest line and the JSON summary line that
// perfbench/run.sh prints last; run i of one side is paired with run i of
// the other.

import (
	"bufio"
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
	Wins, Pairs  int
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
// change is strictly better. The change claims the metric when, over at
// least minClaimPairs pairs, it wins at least nine in ten and its median
// beats the parent's by more than the parent's interquartile range; it
// regresses when its median is worse than the parent's by more than the
// metric's bound (a fraction of the parent's median). Anything else is
// unresolved.
func judge(m e2eMetric, base, change []float64) abRow {
	r := abRow{Metric: m, Base: summarize(base), Change: summarize(change), Pairs: len(base)}
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	for i := range base {
		if sign*(change[i]-base[i]) > 0 {
			r.Wins++
		}
	}
	r.Gap = sign * (r.Change.Median - r.Base.Median)
	switch {
	case -r.Gap > m.Bound*math.Abs(r.Base.Median):
		r.Verdict = verdictRegressed
	case r.Pairs >= minClaimPairs && 10*r.Wins >= 9*r.Pairs && r.Gap > r.Base.Q3-r.Base.Q1:
		r.Verdict = verdictClaimed
	default:
		r.Verdict = verdictUnresolved
	}
	return r
}

// readRuns parses one side's runs: every JSON summary line, with the
// digest from the "digest" line before it. Other lines are ignored.
func readRuns(r io.Reader) ([]abRun, error) {
	var runs []abRun
	digest := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
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
	return runs, sc.Err()
}

// abCompare judges every end-to-end metric both sides report and lists
// what makes the comparison itself invalid: unequal run counts, a run
// that is not correct or had failed operations, and digests that differ
// (the two sides did not simulate the same thing).
func abCompare(metrics []e2eMetric, base, change []abRun) (rows []abRow, problems []string) {
	if len(base) == 0 || len(base) != len(change) {
		return nil, []string{fmt.Sprintf("need the same nonzero number of runs per side, have %d parent and %d change", len(base), len(change))}
	}
	var digests []string
	for _, side := range []struct {
		name string
		runs []abRun
	}{{"parent", base}, {"change", change}} {
		for i, run := range side.runs {
			if !run.Correct || run.Failed > 0 {
				problems = append(problems, fmt.Sprintf("%s run %d: correct=%v, %d of %d operations failed", side.name, i+1, run.Correct, run.Failed, run.Attempted))
			}
			if run.Digest == "" {
				problems = append(problems, fmt.Sprintf("%s run %d: no digest line", side.name, i+1))
			} else if !slices.Contains(digests, run.Digest) {
				digests = append(digests, run.Digest)
			}
		}
	}
	if len(digests) > 1 {
		problems = append(problems, "runs disagree on the digest: "+strings.Join(digests, ", "))
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

// printAB writes the comparison table and the problems.
func printAB(w io.Writer, rows []abRow, problems []string) {
	fmt.Fprintf(w, "%-18s %-8s %-28s %-28s %6s %18s %10s  %s\n",
		"metric", "unit", "parent median [q1 q3]", "change median [q1 q3]", "wins", "gap", "parent IQR", "verdict")
	for _, r := range rows {
		rel := 100 * r.Gap / math.Abs(r.Base.Median)
		fmt.Fprintf(w, "%-18s %-8s %-28s %-28s %6s %18s %10.4g  %s\n",
			r.Metric.Name, r.Metric.Unit, r.Base.String(), r.Change.String(),
			fmt.Sprintf("%d/%d", r.Wins, r.Pairs), fmt.Sprintf("%+.4g (%+.1f%%)", r.Gap, rel),
			r.Base.Q3-r.Base.Q1, r.Verdict)
	}
	for _, p := range problems {
		fmt.Fprintln(w, "INVALID ", p)
	}
}

func (q quartiles) String() string {
	return fmt.Sprintf("%.4g [%.4g %.4g]", q.Median, q.Q1, q.Q3)
}

// runAB is the -ab entry point: args are the parent's and the change's
// run files. failed reports a regression or an invalid comparison.
func runAB(w io.Writer, benchmarkPath string, args []string) (failed bool, err error) {
	if len(args) != 2 {
		return false, fmt.Errorf("-ab needs two files: the parent's runs and the change's runs")
	}
	data, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	var bench struct {
		EndToEnd []e2eMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		return false, fmt.Errorf("%s: %v", benchmarkPath, err)
	}
	var sides [2][]abRun
	for i, path := range args {
		f, err := os.Open(path)
		if err != nil {
			return false, err
		}
		sides[i], err = readRuns(f)
		f.Close()
		if err != nil {
			return false, fmt.Errorf("%s: %v", path, err)
		}
	}
	rows, problems := abCompare(bench.EndToEnd, sides[0], sides[1])
	printAB(w, rows, problems)
	failed = len(problems) > 0
	for _, r := range rows {
		failed = failed || r.Verdict == verdictRegressed
	}
	return failed, nil
}
