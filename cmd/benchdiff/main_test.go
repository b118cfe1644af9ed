package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestParseBenchPairsByOccurrence: the i-th result line of a benchmark in
// `go test -bench` output is its run i, whatever lines come between; the
// -GOMAXPROCS suffix goes, other units are ignored, and a line without
// allocs/op (no -benchmem) reads -1.
func TestParseBenchPairsByOccurrence(t *testing.T) {
	out := `goos: linux
pkg: dynaspam
BenchmarkCPUStep-2                 	  759337	      1548 ns/op	       0 B/op	       0 allocs/op
BenchmarkBaselinePipeline-2        	      44	  23724221 ns/op	     34227 cycles/run	 1661244 B/op	    1708 allocs/op
PASS
goos: linux
BenchmarkTraceOverhead/disabled-2  	      66	  16708140 ns/op	 1789314 B/op	    2225 allocs/op
BenchmarkCPUStep-2                 	  740001	      1602 ns/op
--- BENCH: BenchmarkFig8Speedup-2
BenchmarkBaselinePipeline-2        	      45	  22300000 ns/op	     34227 cycles/run	 1661244 B/op	    1709 allocs/op
ok  	dynaspam	17.1s
`
	got, err := parseBench([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]result{
		"BenchmarkCPUStep":                {{1548, 0}, {1602, -1}},
		"BenchmarkBaselinePipeline":       {{23724221, 1708}, {22300000, 1709}},
		"BenchmarkTraceOverhead/disabled": {{16708140, 2225}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseBench = %v, want %v", got, want)
	}
	if _, err := parseBench([]byte("BenchmarkX-2 10 1.2.3 ns/op\n")); err == nil {
		t.Error("a malformed ns/op parsed")
	}
}

// gateBench is one benchmark's runs on one side.
type gateBench struct {
	name   string
	ns     []float64
	allocs int64
}

// aaRuns builds an A/A-shaped pair of sides: each benchmark's 20
// readings, evenly spaced over a range, are dealt out in pairs, the change
// drawing the slower reading in every other pair. The ranges are shaped on
// 20 runs of one unchanged test binary (2 vCPU, go1.24.0), each of the
// first ten of which failed the ns/op ceilings the gate used to check:
// FabricInvoke spans the 433–524 ns/op measured then, SpanOverhead and
// CPUStep run up to the 32,356 and 1,562 measured then, and the pipeline
// benchmarks spread ±10% around the medians measured then (22.3, 16.6 and
// 12.6 ms).
func aaRuns() (base, change []gateBench) {
	ranges := []struct {
		name   string
		lo, hi float64
		allocs int64
	}{
		{"BenchmarkFabricInvoke", 433, 524, 0},
		{"BenchmarkSpanOverhead", 24500, 32356, 58},
		{"BenchmarkCPUStep", 1240, 1562, 0},
		{"BenchmarkBaselinePipeline", 20.07e6, 24.53e6, 1708},
		{"BenchmarkTraceOverhead/disabled", 14.94e6, 18.26e6, 2225},
		{"BenchmarkSampledPipeline", 11.34e6, 13.86e6, 4748},
	}
	for _, r := range ranges {
		b, c := gateBench{name: r.name, allocs: r.allocs}, gateBench{name: r.name, allocs: r.allocs}
		step := (r.hi - r.lo) / 19
		for i := range 10 {
			lo, hi := r.lo+float64(2*i)*step, r.lo+float64(2*i+1)*step
			if i%2 == 1 {
				lo, hi = hi, lo
			}
			b.ns, c.ns = append(b.ns, lo), append(c.ns, hi)
		}
		base, change = append(base, b), append(change, c)
	}
	return base, change
}

// gateFiles writes each side as `go test -bench -benchmem` output, one
// block per run, plus a BENCH_4.json listing limits, and returns the
// directory and the two files.
func gateFiles(t *testing.T, limits map[string]int64, base, change []gateBench) (dir, basePath, changePath string) {
	t.Helper()
	dir = t.TempDir()
	var entries []string
	for name, n := range limits {
		entries = append(entries, fmt.Sprintf("%q: {\"allocs_per_op\": %d}", name, n))
	}
	write := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	write("BENCH_4.json", `{"benchmarks": {`+strings.Join(entries, ",\n")+"}}\n")
	render := func(side []gateBench) string {
		var sb strings.Builder
		for i := 0; ; i++ {
			more := false
			for _, b := range side {
				if i < len(b.ns) {
					more = true
					fmt.Fprintf(&sb, "%s-2\t%8d\t%12.1f ns/op\t%8d B/op\t%6d allocs/op\n", b.name, 100, b.ns[i], 64*b.allocs, b.allocs)
				}
			}
			if !more {
				return sb.String()
			}
			sb.WriteString("PASS\nok  \tdynaspam\t17.1s\n")
		}
	}
	return dir, write("base.runs", render(base)), write("change.runs", render(change))
}

// limitsOf lists every benchmark of side at its own allocs/op.
func limitsOf(side []gateBench) map[string]int64 {
	m := make(map[string]int64)
	for _, b := range side {
		m[b.name] = b.allocs
	}
	return m
}

// scaled returns side with every ns/op reading multiplied by f.
func scaled(side []gateBench, f float64) []gateBench {
	out := make([]gateBench, len(side))
	for i, b := range side {
		out[i] = gateBench{name: b.name, allocs: b.allocs}
		for _, v := range b.ns {
			out[i].ns = append(out[i].ns, f*v)
		}
	}
	return out
}

// TestRunGate drives the entry point on `go test` runs: A/A-shaped runs
// pass; the same runs with the change twice as slow fail on every
// benchmark; an allocs/op above BENCH_4.json, a listed benchmark the change
// lacks and too few pairs each fail and say why; a benchmark only the
// change ran is listed as new and does not fail.
func TestRunGate(t *testing.T) {
	base, change := aaRuns()
	limits := limitsOf(base)
	overAllocs := append([]gateBench(nil), change...)
	overAllocs[0].allocs++
	withNew := append(append([]gateBench(nil), change...), gateBench{name: "BenchmarkNew", ns: base[0].ns, allocs: 3})
	shortRuns := func(side []gateBench) []gateBench {
		out := append([]gateBench(nil), side...)
		out[1].ns = out[1].ns[:9]
		return out
	}
	cases := []struct {
		name         string
		base, change []gateBench
		failed       bool
		regressed    int
		want         []string
	}{
		{"A/A", base, change, false, 0, []string{"BenchmarkFabricInvoke", "5/10", "unresolved"}},
		{"change twice as slow", base, scaled(change, 2), true, len(base), []string{"BenchmarkSampledPipeline", "0/10"}},
		{"change faster", base, scaled(change, 0.5), false, 0, []string{"10/10", "claimed"}},
		{"allocs above BENCH_4.json", base, overAllocs, true, 0,
			[]string{"FAIL     BenchmarkFabricInvoke: change run 1 made 1 allocs/op, BENCH_4.json allows 0"}},
		{"listed benchmark missing", base, change[1:], true, 0,
			[]string{"INVALID  BenchmarkFabricInvoke: listed in BENCH_4.json but absent from the change's runs"}},
		{"new benchmark", base, withNew, false, 0,
			[]string{"NEW      BenchmarkNew: the parent's runs lack it, so its ns/op is not compared"}},
		{"too few pairs", shortRuns(base), shortRuns(change), true, 0,
			[]string{"INVALID  BenchmarkSpanOverhead: need the same number of runs per side, at least 10, have 9 parent and 9 change"}},
	}
	for _, c := range cases {
		dir, basePath, changePath := gateFiles(t, limits, c.base, c.change)
		var out bytes.Buffer
		failed, err := run(&out, dir, []string{basePath, changePath})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if failed != c.failed {
			t.Errorf("%s: failed = %v, want %v\n%s", c.name, failed, c.failed, out.String())
		}
		if got := strings.Count(out.String(), verdictRegressed); got != c.regressed {
			t.Errorf("%s: %d benchmarks regressed, want %d:\n%s", c.name, got, c.regressed, out.String())
		}
		for _, w := range c.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: output lacks %q:\n%s", c.name, w, out.String())
			}
		}
	}
}
