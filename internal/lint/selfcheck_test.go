package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestRepoIsClean runs the full dynalint suite over the repository itself:
// every invariant finding on the tree must have been fixed or annotated.
// This is the test that fails if someone re-globalizes a simulator counter
// (the PR 1 LRU-clock bug class) or adds an unsorted map dump.
func TestRepoIsClean(t *testing.T) {
	var buf bytes.Buffer
	findings, err := Run(&buf, "", []string{"dynaspam/..."})
	if err != nil {
		t.Fatalf("dynalint failed to run: %v", err)
	}
	if len(findings) > 0 {
		t.Errorf("dynalint found %d invariant violation(s) on the repo:\n%s",
			len(findings), buf.String())
	}
}

// TestSuiteMetadata pins the suite's shape: seven analyzers, unique names,
// documented, and all scoped (a nil Match would silently lint the world).
func TestSuiteMetadata(t *testing.T) {
	as := Analyzers()
	if len(as) != 7 {
		t.Fatalf("suite has %d analyzers, want 7", len(as))
	}
	seen := make(map[string]bool)
	for _, a := range as {
		if a.Name == "" || strings.ContainsAny(a.Name, " \t") {
			t.Errorf("analyzer %q: name must be a bare identifier", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
		if a.Match == nil {
			t.Errorf("analyzer %q has nil Match; every dynaspam invariant is package-scoped", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has nil Run", a.Name)
		}
		if a.Applies("fmt") {
			t.Errorf("analyzer %q applies to the standard library", a.Name)
		}
	}
}

// TestDocsNameEverySuiteAnalyzer diffs the suite against its two write-ups:
// the bullets of README's "Static invariants" section and the rows of
// ARCHITECTURE's analyzer table must each name exactly the analyzers
// Analyzers() returns, so adding, renaming or deleting one without its
// docs fails CI.
func TestDocsNameEverySuiteAnalyzer(t *testing.T) {
	var suite []string
	for _, a := range Analyzers() {
		suite = append(suite, a.Name)
	}
	for _, doc := range []struct {
		file, start, end string
		entry            *regexp.Regexp
	}{
		{"README.md", "## Static invariants", "\n## ", regexp.MustCompile(`(?m)^\* \*\*(\w+)\*\*`)},
		{"ARCHITECTURE.md", "| Analyzer | Invariant enforced |", "\n\n", regexp.MustCompile("(?m)^\\| `(\\w+)` \\|")},
	} {
		b, err := os.ReadFile(filepath.Join("..", "..", doc.file))
		if err != nil {
			t.Fatalf("%s must exist at the repo root: %v", doc.file, err)
		}
		_, section, ok := strings.Cut(string(b), doc.start)
		if !ok {
			t.Errorf("%s has no %q", doc.file, doc.start)
			continue
		}
		section, _, _ = strings.Cut(section, doc.end)
		var named []string
		for _, m := range doc.entry.FindAllStringSubmatch(section, -1) {
			named = append(named, m[1])
		}
		for _, name := range suite {
			if !slices.Contains(named, name) {
				t.Errorf("%s does not describe analyzer %s", doc.file, name)
			}
		}
		for _, name := range named {
			if !slices.Contains(suite, name) {
				t.Errorf("%s describes analyzer %s, which the suite lacks", doc.file, name)
			}
		}
	}
}
