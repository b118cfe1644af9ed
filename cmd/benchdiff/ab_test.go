package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var (
	higher = e2eMetric{Name: "sim_minsts_per_s", Unit: "Minst/s", Better: "higher", Bound: 0.25}
	lower  = e2eMetric{Name: "alloc_mb_per_pass", Unit: "MB", Better: "lower", Bound: 0.05}
)

// TestJudgeVerdicts pins the verdict rules on fixed pairs: a claim needs
// ten pairs or more, at least 9 wins in 10 and a median gap wider than the
// parent's IQR; a regression is a median worse than the parent's by more
// than the bound.
func TestJudgeVerdicts(t *testing.T) {
	base := []float64{10, 11, 12, 13, 14, 10, 11, 12, 13, 14} // median 12, IQR 2
	add := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	cases := []struct {
		name    string
		m       e2eMetric
		base    []float64
		change  []float64
		wins    int
		verdict string
	}{
		{"every pair, gap above IQR", higher, base, add(base, 3), 10, verdictClaimed},
		{"every pair, gap equal to IQR", higher, base, add(base, 2), 10, verdictUnresolved},
		{"9 of 10 pairs", higher, base, append(add(base[:9], 3), base[9]), 9, verdictClaimed},
		{"8 of 10 pairs", higher, base, append(add(base[:8], 3), base[8:]...), 8, verdictUnresolved},
		{"worse within bound", higher, base, add(base, -3), 0, verdictUnresolved},
		{"worse beyond bound", higher, base, add(base, -3.01), 0, verdictRegressed},
		{"lower is better, claimed", lower, base, add(base, -3), 10, verdictClaimed},
		{"lower is better, within bound", lower, base, add(base, 0.6), 0, verdictUnresolved},
		{"lower is better, beyond bound", lower, base, add(base, 0.61), 0, verdictRegressed},
		{"ties are not wins", higher, base, base, 0, verdictUnresolved},
		{"too few pairs", higher, base[:9], add(base[:9], 3), 9, verdictUnresolved},
		{"too few pairs, worse beyond bound", higher, base[:4], add(base[:4], -5), 0, verdictRegressed},
	}
	for _, c := range cases {
		r := judge(c.m, c.base, c.change)
		if r.Wins != c.wins || r.Verdict != c.verdict {
			t.Errorf("%s: wins %d/%d verdict %s, want %d %s", c.name, r.Wins, r.Pairs, r.Verdict, c.wins, c.verdict)
		}
	}
	if r := judge(higher, base, add(base, 3)); r.Base.Median != 12 || r.Base.Q1 != 11 || r.Base.Q3 != 13 || r.Gap != 3 {
		t.Errorf("summary = %+v, want parent median 12 [11 13] and gap +3", r)
	}
}

// runLines renders one perfbench run as run.sh prints its last lines.
func runLines(digest string, correct bool, failed int, sim, alloc float64) string {
	return fmt.Sprintf("setup_s 1.0 s\ndigest %s (exact simulated results; must be one value across all passes and runs)\n"+
		`{"attempted":10,"correct":%v,"failed":%d,"metrics":{"alloc_mb_per_pass":{"unit":"MB","value":%g},"sim_minsts_per_s":{"unit":"Minst/s","value":%g}}}`+"\n",
		digest, correct, failed, alloc, sim)
}

// TestRunABFailures drives the -ab entry point on fixed run files: a clean
// claim passes; a regression, a failed or incorrect run, differing digests
// and unequal run counts each fail and say why.
func TestRunABFailures(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[
		{"name":"setup_s","unit":"s","better":"lower","bound":0.25},
		{"name":"sim_minsts_per_s","unit":"Minst/s","better":"higher","bound":0.25},
		{"name":"alloc_mb_per_pass","unit":"MB","better":"lower","bound":0.05}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	side := func(name string, runs ...string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(strings.Join(runs, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var base, faster, slower []string
	for i := range 10 {
		x := float64(10 + i%4)
		base = append(base, runLines("abc", true, 0, x, 100))
		faster = append(faster, runLines("abc", true, 0, x+5, 100.1))
		slower = append(slower, runLines("abc", true, 0, x/2, 100))
	}
	failedRun := append([]string{runLines("abc", true, 2, 15, 100)}, faster[1:]...)
	wrongRun := append([]string{runLines("abc", false, 0, 15, 100)}, faster[1:]...)
	otherDigest := append([]string{runLines("def", true, 0, 15, 100)}, faster[1:]...)
	cases := []struct {
		name   string
		change []string
		failed bool
		want   []string
	}{
		{"claim", faster, false, []string{"sim_minsts_per_s", "10/10", "claimed", "alloc_mb_per_pass", "unresolved"}},
		{"regression", slower, true, []string{"regressed"}},
		{"failed operations", failedRun, true, []string{"INVALID  change run 1: correct=true, 2 of 10 operations failed"}},
		{"incorrect run", wrongRun, true, []string{"INVALID  change run 1: correct=false"}},
		{"digests differ", otherDigest, true, []string{"INVALID  runs disagree on the digest: abc, def"}},
		{"unequal pairs", faster[:9], true, []string{"INVALID  need the same nonzero number of runs per side, have 10 parent and 9 change"}},
	}
	basePath := side("base.runs", base...)
	for _, c := range cases {
		var out bytes.Buffer
		failed, err := run(&out, dir, []string{basePath, side(c.name+".runs", c.change...)})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if failed != c.failed {
			t.Errorf("%s: failed = %v, want %v\n%s", c.name, failed, c.failed, out.String())
		}
		for _, w := range c.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: output lacks %q:\n%s", c.name, w, out.String())
			}
		}
		if strings.Contains(out.String(), "setup_s") {
			t.Errorf("%s: judged setup_s, which no run reports:\n%s", c.name, out.String())
		}
	}
}
