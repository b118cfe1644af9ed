package jobs

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestOperationsManualCoversEveryEndpoint diffs the endpoints the serve
// binary actually mounts — the telemetry plane's own handlers plus the
// jobs API — against OPERATIONS.md, in both directions: every mux pattern
// must appear in the manual verbatim inside backticks, and every pattern
// a row of the "Endpoint reference" tables names must be mounted. So
// adding an endpoint without documenting it fails CI, and so does
// deleting one while its row stays.
func TestOperationsManualCoversEveryEndpoint(t *testing.T) {
	p, srv := newTestPlane(t, "", 1)
	p.Mount(srv)

	doc, err := os.ReadFile(filepath.Join("..", "..", "OPERATIONS.md"))
	if err != nil {
		t.Fatalf("OPERATIONS.md must exist at the repo root: %v", err)
	}
	text := string(doc)

	patterns := srv.Patterns()
	if len(patterns) < 10 {
		t.Fatalf("suspiciously few mux patterns (%d): %v", len(patterns), patterns)
	}
	for _, pat := range patterns {
		if !strings.Contains(text, "`"+pat+"`") {
			t.Errorf("OPERATIONS.md does not document mounted endpoint `%s`", pat)
		}
	}

	_, ref, ok := strings.Cut(text, "\n## Endpoint reference")
	if !ok {
		t.Fatal(`OPERATIONS.md has no "## Endpoint reference" section`)
	}
	ref, _, _ = strings.Cut(ref, "\n## ")
	rows := regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(ref, -1)
	if len(rows) < len(patterns) {
		t.Errorf("the Endpoint reference tables have %d rows, fewer than the %d mounted patterns", len(rows), len(patterns))
	}
	for _, m := range rows {
		if !slices.Contains(patterns, m[1]) {
			t.Errorf("OPERATIONS.md documents endpoint `%s`, which the server does not mount", m[1])
		}
	}
}
