// Package lint assembles the dynalint suite: the custom analyzers that
// mechanically enforce dynaspam's determinism and isolation invariants,
// and the driver that runs them over `go list` patterns.
//
// The invariants (one analyzer each; see the package docs for rationale):
//
//   - mutableglobal: no package-level mutable state in simulator packages
//   - mapiter: no map iteration feeding order-dependent paths
//   - wallclock: no time.Now/unseeded math/rand in measured packages
//   - floateq: no ==/!= on floats
//   - lockorder: no mutex acquisition cycles or self-deadlocks
//   - doccheck: exported identifiers in operational packages documented
//   - allowaudit: //lint:allow escape hatches must stay live and justified
//
// Findings are suppressed line-by-line with `//lint:allow <analyzer>
// <reason>`; a directive without a reason, naming an unknown analyzer, or
// whose diagnostic no longer fires, is itself a finding.
//
// Per package the driver runs the regular analyzers, then the Final ones
// (allowaudit), which see the package's suppression usage.
package lint

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dynaspam/internal/lint/allowaudit"
	"dynaspam/internal/lint/analysis"
	"dynaspam/internal/lint/doccheck"
	"dynaspam/internal/lint/floateq"
	"dynaspam/internal/lint/load"
	"dynaspam/internal/lint/lockorder"
	"dynaspam/internal/lint/mapiter"
	"dynaspam/internal/lint/mutableglobal"
	"dynaspam/internal/lint/wallclock"
)

// Analyzers returns the dynalint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		mutableglobal.Analyzer,
		mapiter.Analyzer,
		wallclock.Analyzer,
		floateq.Analyzer,
		lockorder.Analyzer,
		doccheck.Analyzer,
		allowaudit.Analyzer,
	}
}

// A Finding is one reported diagnostic with its source analyzer.
type Finding struct {
	Position string `json:"position"` // file:line:col
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Analyzer string `json:"analyzer"`
	pos      int    // for stable sorting: token.Pos offset
}

// Run loads patterns (relative to dir, "" meaning the current directory),
// runs every in-scope analyzer over every matched package, prints findings
// to w, and returns them. A non-empty return means the tree violates an
// invariant.
func Run(w io.Writer, dir string, patterns []string) ([]Finding, error) {
	pkgs, err := load.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	// Findings carry paths relative to dir (CI annotations and humans both
	// want repo-relative names, not the loader's absolute ones).
	base := dir
	if base == "" {
		base, _ = os.Getwd()
	}
	relative := func(name string) string {
		if base == "" {
			return name
		}
		if rel, err := filepath.Rel(base, name); err == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
		return name
	}
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}

	// Per package, regular analyzers then Final ones, so the latter
	// observe which //lint:allow directives actually suppressed something.
	var findings []Finding
	for _, pkg := range pkgs {
		supp := analysis.NewSuppressions(pkg.Fset, pkg.Files)
		for _, d := range supp.Invalid(known) {
			p := pkg.Fset.Position(d.Pos)
			file := relative(p.Filename)
			findings = append(findings, Finding{
				Position: fmt.Sprintf("%s:%d:%d", file, p.Line, p.Column),
				File:     file,
				Line:     p.Line,
				Col:      p.Column,
				Message:  fmt.Sprintf("malformed directive: want %q with a known analyzer and a non-empty reason", analysis.AllowPrefix+"<analyzer> <reason>"),
				Analyzer: "directive",
				pos:      int(d.Pos),
			})
		}
		for _, final := range []bool{false, true} {
			for _, a := range Analyzers() {
				if a.Final != final || !a.Applies(pkg.ImportPath) {
					continue
				}
				pass := &analysis.Pass{
					Analyzer:  a,
					Fset:      pkg.Fset,
					Files:     pkg.Files,
					Pkg:       pkg.Types,
					TypesInfo: pkg.Info,
				}
				if final {
					pass.Supp, pass.Known = supp, known
				}
				name := a.Name
				pass.Report = func(d analysis.Diagnostic) {
					if supp.Allows(name, d.Pos) {
						return
					}
					p := pkg.Fset.Position(d.Pos)
					file := relative(p.Filename)
					findings = append(findings, Finding{
						Position: fmt.Sprintf("%s:%d:%d", file, p.Line, p.Column),
						File:     file,
						Line:     p.Line,
						Col:      p.Column,
						Message:  d.Message,
						Analyzer: name,
						pos:      int(d.Pos),
					})
				}
				if err := a.Run(pass); err != nil {
					return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.ImportPath, err)
				}
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].pos != findings[j].pos {
			return findings[i].pos < findings[j].pos
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	for _, f := range findings {
		fmt.Fprintf(w, "%s: %s [%s]\n", f.Position, f.Message, f.Analyzer)
	}
	return findings, nil
}
