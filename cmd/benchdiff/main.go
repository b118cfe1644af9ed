// Command benchdiff judges a change against its parent from alternating
// runs of both:
//
//	go run ./cmd/benchdiff parent.runs change.runs
//
// Run it from the repository root. Each file holds one side's runs in
// order; run i of one side is paired with run i of the other.
//
// End-to-end runs (`make perf-ab`) are the digest and JSON summary lines
// perfbench/run.sh prints last. Each BENCHMARK.json end_to_end metric gets
// both sides' medians and quartiles, the pairs the change won, the median
// gap against the parent's interquartile range and a verdict: claimed,
// regressed or unresolved. A run that is not correct or had failed
// operations, unequal run counts and differing digests make the comparison
// invalid.
//
// `go test -bench -benchmem` output (`make bench-compare`) gets the same
// table for ns/op, where a benchmark's i-th result line is its run i. ns/op
// has no bound: a benchmark regresses only when the parent would claim a
// gain over the change (ten pairs or more, the change slower in nine of
// ten, by a median gap wider than the parent's IQR), so a slowdown inside
// the host's own spread passes. allocs/op is exact, so any change run above
// its BENCH_4.json count fails. A benchmark BENCH_4.json lists that the
// change did not run, or one with fewer than ten pairs, makes the
// comparison invalid; one the parent did not run is listed as new.
//
// It exits 1 on a regression or an invalid comparison and 2 when it cannot
// read its inputs.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff parent.runs change.runs")
		os.Exit(2)
	}
	failed, err := run(os.Stdout, ".", os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

// run compares the parent's runs in files[0] with the change's in
// files[1], judging against BENCHMARK.json and BENCH_4.json in root.
// failed reports a regression or an invalid comparison.
func run(w io.Writer, root string, files []string) (failed bool, err error) {
	var data [2][]byte
	var bench [2]map[string][]result
	for i, path := range files {
		if data[i], err = os.ReadFile(path); err != nil {
			return false, err
		}
		if bench[i], err = parseBench(data[i]); err != nil {
			return false, fmt.Errorf("%s: %v", path, err)
		}
	}
	var rows []abRow
	var notes []note
	if len(bench[0]) == 0 && len(bench[1]) == 0 {
		rows, notes, err = compareRuns(filepath.Join(root, "BENCHMARK.json"), files, data)
	} else {
		rows, notes, err = compareBench(filepath.Join(root, "BENCH_4.json"), bench[0], bench[1])
	}
	if err != nil {
		return false, err
	}
	printReport(w, rows, notes)
	for _, r := range rows {
		failed = failed || r.Verdict == verdictRegressed
	}
	for _, n := range notes {
		failed = failed || n.kind != noteNew
	}
	return failed, nil
}

// A note is a finding outside the table. An invalid comparison or a failed
// allocation check fails the comparison; a new benchmark does not.
type note struct{ kind, text string }

// Kinds of note.
const (
	noteInvalid = "INVALID"
	noteFail    = "FAIL"
	noteNew     = "NEW"
)

// result is one `go test -bench` result line's ns/op and allocs/op
// (-1 when the line has none, as without -benchmem).
type result struct {
	ns     float64
	allocs int64
}

// benchLine matches one `go test -bench` result line: the benchmark name
// (with the trailing -GOMAXPROCS token), the iteration count, then
// value/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// parseBench returns each benchmark's results in the order they appear.
// Other units (B/op, custom ReportMetric units) are ignored, and the -N
// GOMAXPROCS suffix is stripped so names are stable across machines.
func parseBench(data []byte) (map[string][]result, error) {
	out := make(map[string][]result)
	for _, line := range strings.Split(string(data), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		fields := strings.Fields(m[2])
		res := result{ns: math.NaN(), allocs: -1}
		for i := 1; i < len(fields); i += 2 {
			val, unit := fields[i-1], fields[i]
			var err error
			switch unit {
			case "ns/op":
				res.ns, err = strconv.ParseFloat(val, 64)
			case "allocs/op":
				res.allocs, err = strconv.ParseInt(val, 10, 64)
			}
			if err != nil {
				return nil, fmt.Errorf("bad %s %q in %q", unit, val, line)
			}
		}
		if !math.IsNaN(res.ns) {
			name := stripProcs(m[1])
			out[name] = append(out[name], res)
		}
	}
	return out, nil
}

// stripProcs removes the trailing -GOMAXPROCS token go test appends to
// benchmark names (Benchmark/sub-8 -> Benchmark/sub).
func stripProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// compareBench judges `go test -bench` runs against the allocation limits
// in limitsPath (BENCH_4.json): a row per benchmark with enough pairs, and
// a note per benchmark over its limit, listed but not run by the change,
// short of pairs, or run only by the change.
func compareBench(limitsPath string, base, change map[string][]result) (rows []abRow, notes []note, err error) {
	data, err := os.ReadFile(limitsPath)
	if err != nil {
		return nil, nil, err
	}
	var limits struct {
		Benchmarks map[string]struct {
			AllocsPerOp int64 `json:"allocs_per_op"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &limits); err != nil {
		return nil, nil, fmt.Errorf("%s: %v", limitsPath, err)
	}
	var names []string
	for name := range change {
		names = append(names, name)
	}
	for name := range limits.Benchmarks {
		if _, ok := change[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		b, c := base[name], change[name]
		if limit, ok := limits.Benchmarks[name]; ok {
			if len(c) == 0 {
				notes = append(notes, note{noteInvalid, name + ": listed in BENCH_4.json but absent from the change's runs"})
				continue
			}
			for i, r := range c {
				if r.allocs < 0 {
					notes = append(notes, note{noteInvalid, fmt.Sprintf("%s: change run %d has no allocs/op (go test -benchmem)", name, i+1)})
					break
				}
				if r.allocs > limit.AllocsPerOp {
					notes = append(notes, note{noteFail, fmt.Sprintf("%s: change run %d made %d allocs/op, BENCH_4.json allows %d",
						name, i+1, r.allocs, limit.AllocsPerOp)})
					break
				}
			}
		}
		switch {
		case len(b) == 0:
			notes = append(notes, note{noteNew, name + ": the parent's runs lack it, so its ns/op is not compared"})
		case len(b) != len(c) || len(c) < minClaimPairs:
			notes = append(notes, note{noteInvalid, fmt.Sprintf("%s: need the same number of runs per side, at least %d, have %d parent and %d change",
				name, minClaimPairs, len(b), len(c))})
		default:
			rows = append(rows, judgeNs(name, nsPerOp(b), nsPerOp(c)))
		}
	}
	return rows, notes, nil
}

// nsPerOp returns the ns/op of each run.
func nsPerOp(rs []result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.ns
	}
	return out
}

// judgeNs judges one benchmark's paired ns/op. It has no regression bound
// (an infinite one, for judge): the change regresses when the parent
// would claim a gain over it, and claims a gain itself as judge says.
func judgeNs(name string, base, change []float64) abRow {
	r := judge(e2eMetric{Name: name, Unit: "ns/op", Better: "lower", Bound: math.Inf(1)}, base, change)
	if claims(r.Losses, r.Pairs, -r.Gap, r.Base) {
		r.Verdict = verdictRegressed
	}
	return r
}
