package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestTracedumpMatchesGolden locks the dump of NW's first two trace shapes to a
// golden file: the sampled traces, the mapper's placements, and the
// renderer are all deterministic, so the bytes must not drift. Regenerate
// with DYNASPAM_UPDATE_GOLDEN=1 after an intentional mapper or renderer
// change.
func TestTracedumpMatchesGolden(t *testing.T) {
	var out, errb bytes.Buffer
	if code := runTracedump([]string{"-bench", "NW", "-n", "2", "-validate"}, &out, &errb); code != 0 {
		t.Fatalf("tracedump exited %d: %s", code, errb.String())
	}
	golden := filepath.Join("testdata", "nw_dump.txt")
	if os.Getenv("DYNASPAM_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated (%d bytes)", out.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("dump diverged from golden (%d vs %d bytes); run with DYNASPAM_UPDATE_GOLDEN=1 if intentional",
			out.Len(), len(want))
	}
}

// TestTracedumpDeterministic double-runs the same dump and requires identical
// bytes — the property the golden file (and trace-smoke's cmp) relies on.
func TestTracedumpDeterministic(t *testing.T) {
	dump := func() []byte {
		var out, errb bytes.Buffer
		if code := runTracedump([]string{"-bench", "BFS", "-n", "0", "-validate", "-naive"}, &out, &errb); code != 0 {
			t.Fatalf("tracedump exited %d: %s", code, errb.String())
		}
		return out.Bytes()
	}
	a, b := dump(), dump()
	if !bytes.Equal(a, b) {
		t.Errorf("two identical invocations produced different bytes (%d vs %d)", len(a), len(b))
	}
}

// TestTracedumpFlagErrors pins the exit codes of the failure paths.
func TestTracedumpFlagErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := runTracedump([]string{"-bench", "NOPE"}, &out, &errb); code != 2 {
		t.Errorf("unknown benchmark: exit %d, want 2", code)
	}
	if code := runTracedump([]string{"-definitely-not-a-flag"}, &out, &errb); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}
