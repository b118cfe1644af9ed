// Scaled workload variants for the simulation-fidelity experiments: the
// base kernels stay at the paper's laptop scale (and their goldens stay
// bit-identical), while the ×100/×1000 variants give sampled simulation a
// production-sized instruction stream to skip through.
package workloads

import "fmt"

// sprintfAbbrev derives the short code of a scaled variant, e.g. "BFSX100".
func sprintfAbbrev(base string, scale int64) string {
	if scale == 1 {
		return base
	}
	return fmt.Sprintf("%sX%d", base, scale)
}

// sprintfScaled derives the display name of a scaled variant.
func sprintfScaled(name string, scale int64) string {
	if scale == 1 {
		return name
	}
	return fmt.Sprintf("%s (%d× input)", name, scale)
}
