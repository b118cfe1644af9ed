package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynaspam/internal/workloads"
)

// runCLI invokes run with captured stdio.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

// TestBadCPUProfilePathFailsFast locks the fail-fast contract: a broken
// -cpuprofile path must exit non-zero through a structured ERROR record
// before any simulation runs, not after a finished sweep.
func TestBadCPUProfilePathFailsFast(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "cpu.prof")
	code, stdout, stderr := runCLI("-bench", "PF", "-cpuprofile", bad)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "level=ERROR") || !strings.Contains(stderr, "cpuprofile") {
		t.Errorf("stderr lacks structured cpuprofile error: %s", stderr)
	}
	if !strings.Contains(stderr, "run_id=") {
		t.Errorf("error record lacks run correlation ID: %s", stderr)
	}
	if strings.Contains(stderr, "sweep start") || stdout != "" {
		t.Errorf("simulation ran despite bad profile path\nstdout: %s\nstderr: %s", stdout, stderr)
	}
}

// TestBadMemProfilePathFailsFast: the heap profile file must open before
// the sweep, so a typo'd path cannot discard a long run's profile.
func TestBadMemProfilePathFailsFast(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "mem.prof")
	code, stdout, stderr := runCLI("-bench", "PF", "-memprofile", bad)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "level=ERROR") || !strings.Contains(stderr, "memprofile") {
		t.Errorf("stderr lacks structured memprofile error: %s", stderr)
	}
	if strings.Contains(stderr, "sweep start") || stdout != "" {
		t.Errorf("simulation ran despite bad profile path")
	}
}

func TestProfilesWrittenOnSuccess(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	code, _, stderr := runCLI("-bench", "PF", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit code = %d\nstderr: %s", code, stderr)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestUnknownModeIsUsageError pins that the sweep flags resolve through
// jobs.Spec like a POST /jobs body: a value the API rejects is a usage
// error (exit 2) with the API's message, never a simulator panic, and a
// zero trace length or fabric count keeps the default.
func TestUnknownModeIsUsageError(t *testing.T) {
	for _, tc := range []struct {
		flags  []string
		code   int
		stderr string
	}{
		{[]string{"-mode", "warp"}, 2, "unknown mode"},
		{[]string{"-tracelen", "-1"}, 2, "tracelen -1"},
		{[]string{"-tracelen", "1"}, 2, "tracelen 1"},
		{[]string{"-tracelen", "193"}, 2, "tracelen 193 exceeds the fabric's 192 processing elements"},
		{[]string{"-fabrics", "-2"}, 2, "fabrics -2"},
		{[]string{"-fabrics", "17"}, 2, "fabrics 17 exceeds"},
		{[]string{"-sim-policy", "warp"}, 2, "unknown sim policy"},
		{[]string{"-warmup", "-1"}, 2, "negative sampling geometry"},
		{[]string{"-tracelen", "0"}, 0, ""},
		{[]string{"-fabrics", "0"}, 0, ""},
	} {
		code, _, stderr := runCLI(append([]string{"-bench", "PF"}, tc.flags...)...)
		if code != tc.code {
			t.Errorf("%v: exit code = %d, want %d\nstderr: %s", tc.flags, code, tc.code, stderr)
		}
		if tc.stderr != "" && !strings.Contains(stderr, tc.stderr) {
			t.Errorf("%v: stderr lacks %q: %s", tc.flags, tc.stderr, stderr)
		}
	}
}

// TestListShowsEveryBenchmark: -list prints every benchmark -bench
// accepts, the scaled and extra workloads included.
func TestListShowsEveryBenchmark(t *testing.T) {
	code, stdout, stderr := runCLI("-list")
	if code != 0 {
		t.Fatalf("exit code = %d\nstderr: %s", code, stderr)
	}
	rows := make(map[string]bool)
	for _, line := range strings.Split(stdout, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			rows[f[0]] = true
		}
	}
	for _, w := range workloads.Extended() {
		if !rows[w.Abbrev] {
			t.Errorf("-list omits %s, which -bench accepts:\n%s", w.Abbrev, stdout)
		}
	}
}

func TestLintMetricsSubcommand(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.prom")
	os.WriteFile(good, []byte("# TYPE m counter\nm 1\n"), 0o644)
	bad := filepath.Join(dir, "bad.prom")
	os.WriteFile(bad, []byte("orphan 1\n"), 0o644)

	code, stdout, _ := runCLI("lint-metrics", good)
	if code != 0 || !strings.Contains(stdout, "ok") {
		t.Errorf("lint-metrics on valid page = %d %q", code, stdout)
	}
	code, _, stderr := runCLI("lint-metrics", bad)
	if code != 1 || !strings.Contains(stderr, "lint-metrics") {
		t.Errorf("lint-metrics on invalid page = %d %q", code, stderr)
	}
	if code, _, _ := runCLI("lint-metrics", filepath.Join(dir, "missing.prom")); code != 1 {
		t.Errorf("lint-metrics on missing file = %d, want 1", code)
	}
}

func TestLintTraceSubcommand(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	os.WriteFile(good, []byte(`{"traceEvents":[`+"\n"+
		`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"p"}}`+"\n"+
		"]}\n"), 0o644)
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"traceEvents": 7}`), 0o644)

	code, stdout, _ := runCLI("lint-trace", good)
	if code != 0 || !strings.Contains(stdout, "ok") {
		t.Errorf("lint-trace on valid trace = %d %q", code, stdout)
	}
	code, _, stderr := runCLI("lint-trace", bad)
	if code != 1 || !strings.Contains(stderr, "lint-trace") {
		t.Errorf("lint-trace on invalid trace = %d %q", code, stderr)
	}
	if code, _, _ := runCLI("lint-trace", filepath.Join(dir, "missing.json")); code != 1 {
		t.Errorf("lint-trace on missing file = %d, want 1", code)
	}
}
