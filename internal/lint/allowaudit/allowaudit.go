// Package allowaudit keeps the //lint:allow escape hatch honest.
//
// Every suppression in the tree was added because an analyzer fired and a
// human judged the code correct anyway. Both halves of that bargain decay:
// the code moves and the directive stops matching anything (silently
// disabling the analyzer for whatever lands on that line next), or the
// ten-word justification was never written. Two rules:
//
//  1. A well-formed directive whose analyzer produced no diagnostic on the
//     covered lines during this run is an error — delete it, or fix the
//     drift that stopped it matching.
//
//  2. A reason under 10 characters is an error: "perf" convinces nobody
//     reading the code three PRs later.
//
// allowaudit is a Final analyzer: the driver runs it after every other
// analyzer has finished with the package, handing it the package's
// suppression table with its usage marks.
package allowaudit

import (
	"dynaspam/internal/lint/analysis"
	"dynaspam/internal/lint/scope"
)

// MinReasonLen is the shortest acceptable //lint:allow justification.
const MinReasonLen = 10

// Analyzer is the allowaudit pass.
var Analyzer = &analysis.Analyzer{
	Name:  "allowaudit",
	Doc:   "//lint:allow directives must still suppress a live diagnostic and carry a real justification",
	Match: scope.InModule,
	Final: true,
	Run:   run,
}

func run(pass *analysis.Pass) error {
	if pass.Supp == nil {
		return nil // not running under the suite driver: nothing to audit
	}
	for _, d := range pass.Supp.Directives() {
		// Malformed directives are the driver's report, not ours.
		if d.Analyzer == "" || d.Reason == "" || !pass.Known[d.Analyzer] {
			continue
		}
		if len(d.Reason) < MinReasonLen {
			pass.Reportf(d.Pos,
				"//lint:allow %s reason %q is too short; justify the suppression in at least %d characters",
				d.Analyzer, d.Reason, MinReasonLen)
		}
	}
	for _, d := range pass.Supp.Unused(pass.Known) {
		pass.Reportf(d.Pos,
			"//lint:allow %s no longer suppresses anything; the diagnostic it excused is gone — remove the directive",
			d.Analyzer)
	}
	return nil
}
