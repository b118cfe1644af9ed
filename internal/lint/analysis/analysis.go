// Package analysis is a minimal, dependency-free subset of the
// golang.org/x/tools/go/analysis API: an Analyzer wraps a Run function that
// inspects one type-checked package and reports Diagnostics.
//
// The real x/tools module cannot be vendored here (the build environment is
// offline and the repo policy is stdlib-only; see README "Dependency
// policy"), so this package mirrors the upstream shapes — Analyzer, Pass,
// Diagnostic — closely enough that the dynalint analyzers can be ported to
// the real framework by swapping the import path if that policy ever
// changes.
//
// Two extensions beyond the upstream surface:
//
//   - Analyzer.Match scopes an analyzer to a subset of import paths, since
//     dynaspam's invariants are per-package (e.g. wallclock reads are fine
//     in the runner's progress meter but not in the simulator core).
//
//   - Suppressions implements the repo-wide annotation escape hatch: a
//     comment of the form
//
//     //lint:allow <analyzer> <reason>
//
//     on the flagged line, or on a line directly above it, suppresses that
//     analyzer's diagnostics for that line. The reason is mandatory; a
//     bare directive is itself reported by the driver.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// directives. It must be a valid Go identifier.
	Name string

	// Doc is a one-paragraph description of the invariant enforced.
	Doc string

	// Match reports whether the analyzer applies to the package with the
	// given import path. A nil Match applies to every package.
	Match func(importPath string) bool

	// Final marks an analyzer that must run after every other analyzer has
	// finished with the package, with Pass.Supp populated; allowaudit uses
	// this to see which //lint:allow directives went unused.
	Final bool

	// Run inspects one package and reports findings via pass.Report.
	Run func(pass *Pass) error
}

// Applies reports whether the analyzer is in scope for importPath.
func (a *Analyzer) Applies(importPath string) bool {
	return a.Match == nil || a.Match(importPath)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Supp holds the package's //lint:allow directives with their usage
	// marks, and Known the names of the suite's analyzers; the driver
	// populates both only for Final analyzers.
	Supp  *Suppressions
	Known map[string]bool

	// Report is called for each finding. The driver installs it.
	Report func(Diagnostic)
}

// Reportf constructs a Diagnostic at pos and passes it to Report.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// AllowPrefix is the directive comment marker, kept exported so docs, the
// driver and tests agree on the exact spelling.
const AllowPrefix = "//lint:allow "

// Callee resolves a call expression to the declared function or method it
// invokes, or nil for interface calls, calls of function values, builtins,
// and conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			return nil // dynamic dispatch: concrete target unknown
		}
	}
	return fn
}

// A Directive is one parsed //lint:allow comment.
type Directive struct {
	Pos      token.Pos // position of the comment
	Analyzer string    // analyzer name being allowed
	Reason   string    // justification; empty is invalid
	used     bool      // set when the directive suppresses a diagnostic
}

// Suppressions indexes the //lint:allow directives of one package.
type Suppressions struct {
	fset *token.FileSet
	// byKey maps file/line/analyzer to the directive covering that line.
	byKey map[suppKey]*Directive
	all   []*Directive
}

type suppKey struct {
	file     string
	line     int
	analyzer string
}

// NewSuppressions scans the comments of files for //lint:allow directives.
// A directive covers its own source line and the following line, so it can
// sit either at the end of the offending line or on its own line above it.
func NewSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	s := &Suppressions{fset: fset, byKey: make(map[suppKey]*Directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, strings.TrimSuffix(AllowPrefix, " ")) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, strings.TrimSuffix(AllowPrefix, " "))
				rest = strings.TrimSpace(rest)
				name, reason, _ := strings.Cut(rest, " ")
				d := &Directive{Pos: c.Pos(), Analyzer: name, Reason: strings.TrimSpace(reason)}
				s.all = append(s.all, d)
				pos := fset.Position(c.Pos())
				for _, line := range []int{pos.Line, pos.Line + 1} {
					s.byKey[suppKey{pos.Filename, line, name}] = d
				}
			}
		}
	}
	return s
}

// Allows reports whether a diagnostic from the named analyzer at pos is
// suppressed by a directive with a non-empty reason, marking the directive
// used. allowaudit later reports the directives no diagnostic touched.
func (s *Suppressions) Allows(analyzer string, pos token.Pos) bool {
	p := s.fset.Position(pos)
	d := s.byKey[suppKey{p.Filename, p.Line, analyzer}]
	if d == nil || d.Reason == "" {
		return false
	}
	d.used = true
	return true
}

// Unused returns well-formed directives (those Invalid would not report)
// whose analyzer never produced a diagnostic on the covered lines, sorted
// by position. Only meaningful after every non-final analyzer has run on
// the package.
func (s *Suppressions) Unused(known map[string]bool) []*Directive {
	var out []*Directive
	for _, d := range s.all {
		if d.used || d.Analyzer == "" || d.Reason == "" || !known[d.Analyzer] {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// Directives returns every parsed directive in position order, for audits
// that inspect reasons themselves.
func (s *Suppressions) Directives() []*Directive {
	out := append([]*Directive(nil), s.all...)
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// Invalid returns directives that are malformed (empty analyzer name or
// missing reason) or that name an analyzer outside known. The driver turns
// these into findings so the escape hatch cannot silently rot.
func (s *Suppressions) Invalid(known map[string]bool) []*Directive {
	var bad []*Directive
	for _, d := range s.all {
		if d.Analyzer == "" || d.Reason == "" || !known[d.Analyzer] {
			bad = append(bad, d)
		}
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i].Pos < bad[j].Pos })
	return bad
}
