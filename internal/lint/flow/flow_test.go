package flow_test

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dynaspam/internal/lint/flow"
	"dynaspam/internal/lint/load"
)

var update = flag.Bool("update", false, "rewrite golden CFG dumps")

// parseFixture parses testdata/funcs.go and type-checks it, returning the
// file and fileset for the CFG tests.
func parseFixture(t *testing.T) (*ast.File, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filepath.Join("testdata", "funcs.go"), nil, 0)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	var conf types.Config // the fixture imports nothing, so no importer needed
	if _, err := conf.Check("fixture", fset, []*ast.File{file}, nil); err != nil {
		t.Fatalf("type-check fixture: %v", err)
	}
	return file, fset
}

// TestGoldenDumps locks the CFG shape of representative functions — loops,
// defer, early return, select, range, switch with fallthrough, labeled
// break — against golden text dumps. Run with -update to regenerate.
func TestGoldenDumps(t *testing.T) {
	file, fset := parseFixture(t)
	for _, fn := range flow.Functions(file) {
		if fn.Body == nil || len(fn.Body.List) == 0 {
			continue // empty helper stubs produce trivial graphs
		}
		fn := fn
		t.Run(fn.Name, func(t *testing.T) {
			got := flow.Dump(flow.New(fn.Name, fn.Node), fset)
			golden := filepath.Join("testdata", "golden", fn.Name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("CFG dump mismatch for %s:\n--- got ---\n%s--- want ---\n%s", fn.Name, got, want)
			}
		})
	}
}

// TestLoaderRace runs the package loader from several goroutines at once;
// under -race this proves Load's caching and process execution are safe
// for the concurrent analyzers the driver may grow.
func TestLoaderRace(t *testing.T) {
	if testing.Short() {
		t.Skip("loader race test shells out to go list; skipped in -short")
	}
	dir, err := moduleRoot()
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = load.Load(dir, "dynaspam/internal/lint/flow")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent load %d: %v", i, err)
		}
	}
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}

// TestDumpStable double-checks determinism: two dumps of the same function
// are byte-identical (guards against map iteration sneaking into Dump).
func TestDumpStable(t *testing.T) {
	file, fset := parseFixture(t)
	for _, fn := range flow.Functions(file) {
		a := flow.Dump(flow.New(fn.Name, fn.Node), fset)
		b := flow.Dump(flow.New(fn.Name, fn.Node), fset)
		if a != b {
			t.Errorf("dump of %s not deterministic", fn.Name)
		}
		if !strings.HasPrefix(a, "func "+fn.Name+"\n") {
			t.Errorf("dump of %s missing header", fn.Name)
		}
	}
}
