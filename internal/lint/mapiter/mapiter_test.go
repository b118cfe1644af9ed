package mapiter_test

import (
	"testing"

	"dynaspam/internal/lint/linttest"
	"dynaspam/internal/lint/mapiter"
)

func TestFixtures(t *testing.T) {
	linttest.Run(t, mapiter.Analyzer, "dynaspam/internal/core")
}

func TestScope(t *testing.T) {
	a := mapiter.Analyzer
	for path, want := range map[string]bool{
		"dynaspam/internal/tcache":       true,
		"dynaspam/internal/runner":       true, // journal lines must be ordered
		"dynaspam/cmd/dynaspam":          true, // figures are result-bearing output
		"dynaspam/internal/lint/mapiter": false,
		"fmt":                            false,
	} {
		if got := a.Applies(path); got != want {
			t.Errorf("Applies(%q) = %v, want %v", path, got, want)
		}
	}
}
