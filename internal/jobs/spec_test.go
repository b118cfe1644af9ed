package jobs

import (
	"strings"
	"testing"
)

// TestResolveBoundsFabrics pins the fabric-count bound: a spec may ask for
// at most as many fabrics as the configuration cache has entries (16), so
// one submission cannot make the simulator build, and scan on every
// offload, millions of fabrics that could never all hold a configuration.
func TestResolveBoundsFabrics(t *testing.T) {
	for _, tc := range []struct {
		fabrics int
		want    int    // resolved NumFabrics when accepted
		err     string // substring of the error when rejected
	}{
		{fabrics: 0, want: 1},
		{fabrics: 1, want: 1},
		{fabrics: 16, want: 16},
		{fabrics: 17, err: "fabrics 17 exceeds the configuration cache's 16 entries"},
		{fabrics: 1_000_000_000, err: "fabrics 1000000000 exceeds"},
		{fabrics: -1, err: "fabrics -1 is negative"},
	} {
		_, params, err := Spec{Bench: "PF", Fabrics: tc.fabrics}.Resolve()
		switch {
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("fabrics %d: err = %v, want one containing %q", tc.fabrics, err, tc.err)
		case tc.err == "" && err != nil:
			t.Errorf("fabrics %d: rejected: %v", tc.fabrics, err)
		case tc.err == "" && params.NumFabrics != tc.want:
			t.Errorf("fabrics %d: NumFabrics = %d, want %d", tc.fabrics, params.NumFabrics, tc.want)
		}
	}
}
