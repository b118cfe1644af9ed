package jobs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOperationsManualCoversEveryEndpoint diffs the endpoints the serve
// binary actually mounts — the telemetry plane's own handlers plus the
// jobs API — against OPERATIONS.md. Every mux pattern must appear in the
// manual verbatim inside backticks, so adding an endpoint without
// documenting it fails CI.
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
}
