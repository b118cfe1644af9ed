// Package linttest is the fixture harness for the dynalint analyzers,
// mirroring golang.org/x/tools/go/analysis/analysistest (unavailable
// offline): fixtures live under testdata/src/<importpath>/, expected
// findings are `// want "regexp"` comments on the offending line, and the
// harness fails the test on any mismatch in either direction.
//
// Fixtures are type-checked with the stdlib source importer, so they may
// import standard library packages. The fixture's directory path below
// testdata/src is used verbatim as its import path, which is how scoped
// analyzers (Analyzer.Match) are exercised: a fixture under
// testdata/src/dynaspam/internal/ooo is linted as the real ooo package
// would be, and one under .../internal/runner proves the allowlist holds.
// The //lint:allow escape hatch is honored exactly as in the real driver.
package linttest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dynaspam/internal/lint/analysis"
	"dynaspam/internal/lint/load"
)

// Run lints each fixture package under testdata/src with one analyzer and
// compares the diagnostics against its // want comments.
func Run(t *testing.T, a *analysis.Analyzer, importPaths ...string) {
	t.Helper()
	for _, path := range importPaths {
		runSuiteOne(t, []*analysis.Analyzer{a}, path)
	}
}

// RunSuite lints each fixture package with a whole analyzer suite, exactly
// as the real driver does: regular analyzers, then Final ones with the
// package's suppression usage. Diagnostics from
// every analyzer are matched against the fixture's // want comments;
// allowaudit fixtures need this, since a directive only counts as used
// once the suppressed analyzer has actually run.
func RunSuite(t *testing.T, suite []*analysis.Analyzer, importPaths ...string) {
	t.Helper()
	for _, path := range importPaths {
		runSuiteOne(t, suite, path)
	}
}

func runSuiteOne(t *testing.T, suite []*analysis.Analyzer, importPath string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", filepath.FromSlash(importPath))
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("%s: no fixture files in %s", importPath, dir)
	}
	sort.Strings(names)

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", importPath, err)
		}
		files = append(files, f)
	}
	info := load.NewInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		t.Fatalf("%s: type-checking fixture: %v", importPath, err)
	}

	known := make(map[string]bool)
	for _, a := range suite {
		known[a.Name] = true
	}
	supp := analysis.NewSuppressions(fset, files)
	var diags []analysis.Diagnostic
	for _, final := range []bool{false, true} {
		for _, a := range suite {
			if a.Final != final || !a.Applies(importPath) {
				continue
			}
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     files,
				Pkg:       tpkg,
				TypesInfo: info,
				Report: func(d analysis.Diagnostic) {
					if !supp.Allows(a.Name, d.Pos) {
						diags = append(diags, d)
					}
				},
			}
			if final {
				pass.Supp, pass.Known = supp, known
			}
			if err := a.Run(pass); err != nil {
				t.Fatalf("%s: %s: %v", importPath, a.Name, err)
			}
		}
	}

	wants := collectWants(t, fset, files)
	for _, d := range diags {
		p := fset.Position(d.Pos)
		key := wantKey{p.Filename, p.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.rx.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s: %s", importPath, p, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: %s:%d: no diagnostic matched want %q", importPath, key.file, key.line, w.rx)
			}
		}
	}
}

type wantKey struct {
	file string
	line int
}

type want struct {
	rx      *regexp.Regexp
	matched bool
}

// collectWants parses `// want "rx" ["rx" ...]` comments, keyed by the
// line they sit on. The block form `/* want "rx" */` is also accepted, for
// lines whose line-comment slot is taken by a //lint:allow directive under
// test or where a trailing line comment would itself count as godoc.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[wantKey][]*want {
	t.Helper()
	wants := make(map[wantKey][]*want)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					rest, ok = strings.CutPrefix(c.Text, "/* want ")
					if !ok {
						continue
					}
					rest = strings.TrimSuffix(strings.TrimSpace(rest), "*/")
				}
				p := fset.Position(c.Pos())
				for rest = strings.TrimSpace(rest); rest != ""; rest = strings.TrimSpace(rest) {
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s: malformed want comment %q", p, c.Text)
					}
					rest = rest[len(q):]
					s, _ := strconv.Unquote(q)
					rx, err := regexp.Compile(s)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", p, s, err)
					}
					key := wantKey{p.Filename, p.Line}
					wants[key] = append(wants[key], &want{rx: rx})
				}
			}
		}
	}
	return wants
}
