// Package scope centralizes which dynaspam packages each dynalint analyzer
// applies to, so the per-analyzer Match functions and the documentation
// cannot drift apart.
package scope

import "strings"

// Module is the module path of this repository.
const Module = "dynaspam"

// Internal reports whether path is any package under dynaspam/internal/.
func Internal(path string) bool {
	return path == Module+"/internal" || strings.HasPrefix(path, Module+"/internal/")
}

// Lint reports whether path is part of the linter itself, which is exempt
// from the simulator invariants (the go/analysis idiom is package-level
// Analyzer vars, and the driver legitimately shells out and sorts output).
func Lint(path string) bool {
	return path == Module+"/internal/lint" || strings.HasPrefix(path, Module+"/internal/lint/")
}

// Runner reports whether path is the parallel sweep engine, whose
// progress/ETA display is allowlisted for wall-clock reads.
func Runner(path string) bool {
	return path == Module+"/internal/runner"
}

// Telemetry reports whether path is the live telemetry plane, which (like
// the runner) measures the host process — scrape timestamps, sweep ETAs,
// GC pauses — never the simulated machine, and is therefore allowlisted
// for wall-clock reads.
func Telemetry(path string) bool {
	return path == Module+"/internal/telemetry"
}

// Jobs reports whether path is the multi-tenant sweep job plane.
func Jobs(path string) bool {
	return path == Module+"/internal/jobs"
}

// Spans reports whether path is the wall-clock span tracer. Like the
// runner and telemetry it times the host process (job lifecycles), never
// the simulated machine, so it is allowlisted for wall-clock reads; the
// jobs plane stays clock-free by injecting its clock through this package.
func Spans(path string) bool {
	return path == Module+"/internal/spans"
}

// Cpistack reports whether path is the cycle-accounting taxonomy package.
// Its cause names are a public contract (journal keys, metric labels,
// counter-track series all key on them), so its exported API must stay
// documented, and its Stack type is shared across the sweep workers, so it
// joins the lock-order scope.
func Cpistack(path string) bool {
	return path == Module+"/internal/cpistack"
}

// InModule reports whether path is any package of this module, including
// the linter itself.
func InModule(path string) bool {
	return path == Module || strings.HasPrefix(path, Module+"/")
}

// LockChecked reports whether path carries the static lock-graph
// invariants: the concurrent service planes (telemetry, jobs) whose
// tracker/aggregator/queue mutex structure invites ordering cycles.
func LockChecked(path string) bool {
	return Telemetry(path) || Jobs(path) || Spans(path) || Cpistack(path)
}

// Documented reports whether path's exported API must carry doc comments
// (doccheck): the operational service layer plus the linter itself.
func Documented(path string) bool {
	return Runner(path) || Telemetry(path) || Jobs(path) || Spans(path) || Cpistack(path) || Lint(path)
}

// Checked reports whether path carries the general determinism invariants:
// everything under internal/ except the linter itself.
func Checked(path string) bool {
	return Internal(path) && !Lint(path)
}

// Ordered reports whether path produces ordered, user-visible output
// (journal lines, figures, stats dumps): the whole module except the
// linter. Commands are included because they format results.
func Ordered(path string) bool {
	return (path == Module || strings.HasPrefix(path, Module+"/")) && !Lint(path)
}
