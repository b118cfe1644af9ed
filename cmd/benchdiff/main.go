// Command benchdiff is the repo's benchmark regression gate. It parses the
// text output of `go test -bench` (from a file argument or stdin), compares
// ns/op and allocs/op per benchmark against a committed JSON baseline, and
// exits non-zero when a benchmark regresses: ns/op by more than the
// tolerance (10% by default), or allocs/op by any amount — steady-state
// allocation counts are exact, so they get no slack.
//
// Record a new baseline (after an intentional perf change, with the numbers
// reviewed):
//
//	go test -run '^$' -bench ... -benchmem . | go run ./cmd/benchdiff -update
//
// Gate against the committed baseline (CI's bench-gate step):
//
//	go test -run '^$' -bench ... -benchmem . | go run ./cmd/benchdiff
//
// Benchmarks present in the run but absent from the baseline are reported
// as new and do not fail the gate; refresh the baseline to start tracking
// them. Benchmarks in the baseline but missing from the run fail the gate —
// a silently vanished benchmark must not pass as "no regression".
//
// With -ab it instead compares alternating parent/change runs of one
// end-to-end benchmark workload (`make perf-ab`, see ab.go):
//
//	go run ./cmd/benchdiff -ab parent.runs change.runs
//
// Run from the repository root: for each BENCHMARK.json end_to_end metric
// it prints both sides' medians and quartiles, the pairs the change won,
// the median gap against the parent's interquartile range, and a verdict
// (claimed, regressed or unresolved). It exits 1 on a regression, on a run
// that is not correct or had failed operations, and when the runs'
// digests differ.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark's measured numbers.
type result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// baseline is the committed BENCH_*.json schema. PreOpt is an informational
// historical record (the numbers before the PR that introduced this gate);
// it is never compared against, but -update carries it forward so the
// improvement evidence is not lost on baseline refreshes.
type baseline struct {
	Benchmarks map[string]result `json:"benchmarks"`
	PreOpt     map[string]result `json:"pre_optimization,omitempty"`
}

// benchLine matches one `go test -bench` result line: the benchmark name
// (with the trailing -GOMAXPROCS token), the iteration count, then
// value/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

func main() {
	basePath := flag.String("baseline", "BENCH_4.json", "baseline JSON file to compare against (or write with -update)")
	update := flag.Bool("update", false, "write the parsed results to the baseline file instead of comparing")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional ns/op growth before failing")
	ab := flag.Bool("ab", false, "judge paired end-to-end runs against BENCHMARK.json: args are the parent's and the change's run files")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: benchdiff [-baseline file] [-update] [-tolerance frac] [bench-output.txt]\n       benchdiff -ab parent.runs change.runs\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *ab {
		failed, err := runAB(os.Stdout, "BENCHMARK.json", flag.Args())
		if err != nil {
			fatal(err)
		}
		if failed {
			os.Exit(1)
		}
		return
	}

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	got, err := parseBench(in)
	if err != nil {
		fatal(err)
	}
	if len(got) == 0 {
		fatal(fmt.Errorf("no benchmark result lines in input"))
	}

	if *update {
		if err := writeBaseline(*basePath, got); err != nil {
			fatal(err)
		}
		fmt.Printf("benchdiff: wrote %d benchmark(s) to %s\n", len(got), *basePath)
		return
	}

	base, err := readBaseline(*basePath)
	if err != nil {
		fatal(err)
	}
	failures := compare(os.Stdout, base.Benchmarks, got, *tolerance)
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d regression(s) vs %s\n", failures, *basePath)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

// parseBench extracts ns/op and allocs/op per benchmark from `go test
// -bench` text output. Other metrics (B/op, custom ReportMetric units) are
// ignored. The `-N` GOMAXPROCS suffix is stripped so names are stable
// across machines.
func parseBench(r io.Reader) (map[string]result, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	out := make(map[string]result)
	for _, line := range strings.Split(string(data), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := stripProcs(m[1])
		fields := strings.Fields(m[2])
		var res result
		seenNs := false
		for i := 1; i < len(fields); i += 2 {
			val, unit := fields[i-1], fields[i]
			switch unit {
			case "ns/op":
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("bad ns/op %q in %q", val, line)
				}
				res.NsPerOp = v
				seenNs = true
			case "allocs/op":
				v, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad allocs/op %q in %q", val, line)
				}
				res.AllocsPerOp = v
			}
		}
		if seenNs {
			out[name] = res
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

func readBaseline(path string) (*baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks recorded", path)
	}
	return &b, nil
}

func writeBaseline(path string, got map[string]result) error {
	out := baseline{Benchmarks: got}
	if prev, err := readBaseline(path); err == nil {
		out.PreOpt = prev.PreOpt
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compare prints a per-benchmark verdict and returns the number of failing
// benchmarks. Baselines are keyed maps; names are sorted so the report is
// deterministic.
func compare(w io.Writer, base, got map[string]result, tolerance float64) int {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	failures := 0
	for _, name := range names {
		want := base[name]
		cur, ok := got[name]
		if !ok {
			fmt.Fprintf(w, "MISSING  %-40s recorded in baseline but absent from this run\n", name)
			failures++
			continue
		}
		nsLimit := want.NsPerOp * (1 + tolerance)
		switch {
		case cur.AllocsPerOp > want.AllocsPerOp:
			fmt.Fprintf(w, "FAIL     %-40s allocs/op %d -> %d (any growth fails)\n",
				name, want.AllocsPerOp, cur.AllocsPerOp)
			failures++
		case cur.NsPerOp > nsLimit:
			fmt.Fprintf(w, "FAIL     %-40s ns/op %.1f -> %.1f (%+.1f%%, tolerance %.0f%%)\n",
				name, want.NsPerOp, cur.NsPerOp, 100*(cur.NsPerOp/want.NsPerOp-1), 100*tolerance)
			failures++
		default:
			fmt.Fprintf(w, "ok       %-40s ns/op %.1f -> %.1f (%+.1f%%), allocs/op %d -> %d\n",
				name, want.NsPerOp, cur.NsPerOp, 100*(cur.NsPerOp/want.NsPerOp-1),
				want.AllocsPerOp, cur.AllocsPerOp)
		}
	}
	newNames := make([]string, 0)
	for name := range got {
		if _, ok := base[name]; !ok {
			newNames = append(newNames, name)
		}
	}
	sort.Strings(newNames)
	for _, name := range newNames {
		fmt.Fprintf(w, "NEW      %-40s ns/op %.1f, allocs/op %d (not in baseline; -update to track)\n",
			name, got[name].NsPerOp, got[name].AllocsPerOp)
	}
	return failures
}
