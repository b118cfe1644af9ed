package main

import (
	"testing"

	"dynaspam/internal/area"
	"dynaspam/internal/fabric"
)

// TestFiguresSubcommand runs the one figure that needs no simulation
// (Table 6, the area model) and pins the unknown-figure usage error.
func TestFiguresSubcommand(t *testing.T) {
	code, stdout, stderr := runCLI("figures", "-fig", "t6")
	if code != 0 {
		t.Fatalf("figures -fig t6 exited %d: %s", code, stderr)
	}
	if want := "=== Table 6: area ===\n" + area.Report(fabric.DefaultGeometry()); stdout != want {
		t.Errorf("figures -fig t6 printed:\n%s\nwant:\n%s", stdout, want)
	}
	if code, _, _ := runCLI("figures", "-fig", "99"); code != 2 {
		t.Errorf("unknown figure: exit %d, want 2", code)
	}
}
