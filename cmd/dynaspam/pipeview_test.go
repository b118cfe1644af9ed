package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestPipeviewSubcommand renders a fresh -pipeview export: -validate
// accepts it, two default renders are byte-identical, and the usage and
// missing-file failures keep their exit codes.
func TestPipeviewSubcommand(t *testing.T) {
	dir := t.TempDir()
	kanata := filepath.Join(dir, "pf.kanata")
	if code, _, stderr := runCLI("-bench", "PF", "-pipeview", kanata); code != 0 {
		t.Fatalf("export exited %d: %s", code, stderr)
	}

	code, stdout, stderr := runCLI("pipeview", "-validate", kanata)
	if code != 0 || !strings.HasPrefix(stdout, "valid: 1 run(s)") {
		t.Errorf("pipeview -validate = %d %q (stderr %q)", code, stdout, stderr)
	}

	code, first, stderr := runCLI("pipeview", kanata)
	if code != 0 || !strings.Contains(first, "== PF/accel-spec ==") {
		t.Fatalf("pipeview = %d (stderr %q):\n%s", code, stderr, first)
	}
	if _, again, _ := runCLI("pipeview", kanata); again != first {
		t.Errorf("two renders of the same file differ (%d vs %d bytes)", len(first), len(again))
	}

	if code, _, _ := runCLI("pipeview"); code != 2 {
		t.Errorf("pipeview without a file: exit %d, want 2", code)
	}
	if code, _, _ := runCLI("pipeview", filepath.Join(dir, "missing.kanata")); code != 1 {
		t.Errorf("pipeview on a missing file: exit %d, want 1", code)
	}
}
