package lint

import (
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dynaspam/internal/lint/load"
)

// unusedAllowed lists the exported identifiers under internal/ that no
// non-test code refers to but that stay, each with its reason. Keys are
// the names TestNoUnusedExports prints.
var unusedAllowed = map[string]string{
	// Other packages' tests need these, and an export_test.go file serves
	// only its own package's tests.
	"(*dynaspam/internal/interp.State).Run":            "the reference interpreter that core's and ooo's tests check the simulator against",
	"(*dynaspam/internal/interp.State).Step":           "the reference interpreter; BenchmarkFabricInvokeOnPath sets up through it",
	"(*dynaspam/internal/interp.State).ReadReg":        "the reference interpreter's registers, which ooo's tests compare",
	"(*dynaspam/internal/interp.State).ReadFP":         "the reference interpreter's FP registers, which ooo's tests compare",
	"(*dynaspam/internal/ooo.CPU).Run":                 "runs the root package's CPU-step benchmarks",
	"(*dynaspam/internal/probe.Probe).Events":          "the recorded event stream that experiments' and the root package's tests inspect",
	"dynaspam/internal/runner.NewJournal":              "a journal over an in-memory writer for jobs' and experiments' tests",
	"(*dynaspam/internal/telemetry.Server).Handler":    "the HTTP handler that jobs' tests serve through httptest",
	"(*dynaspam/internal/telemetry.Server).Patterns":   "the routed patterns that jobs' OPERATIONS.md test diffs against",
	"(*dynaspam/internal/program.Program).Disassemble": "the listing core's trace-key test prints on a mismatch",
	"(*dynaspam/internal/tcache.TCache).ResetWindow":   "clears the promotion window for core's trace-formation tests",
	"(*dynaspam/internal/mapper.Session).Len":          "the session length core's allocation test asserts",
	// The flat, reuse-blind policy of EXPERIMENTS.md's §4.2 ablation.
	"dynaspam/internal/mapper.FlatPolicy": "the comparison policy of BenchmarkAblationPriorityPolicy (§4.2 ablation)",
	// fig8_cells.golden and sampled_cells.golden render ooo.Stats with
	// %+v, so deleting the field changes both goldens' text.
	"dynaspam/internal/ooo.Stats.MappedInstructions": "rendered by the cell goldens (%+v of ooo.Stats); never written",
}

// builderOps prefixes program.Builder's methods: one helper per ISA op, so
// that a program can use any op even when no workload does yet.
const builderOps = "(*dynaspam/internal/program.Builder)."

// TestNoUnusedExports type-checks every non-test package of the module and
// of perfbench and fails on each exported function, method or struct field
// declared in a non-test file under internal/ that no non-test code refers
// to, unless unusedAllowed names it or it is a program.Builder op helper.
// A method counts as used when its type implements an interface that has
// the method (container/heap calling a heap's Push, fmt calling String).
// Deleting what nothing reads keeps simulator state and API that only
// tests pay for from accumulating; a test that needs such a helper keeps
// it in its own _test.go file. internal/lint/linttest, the analyzers' test
// harness, is skipped.
func TestNoUnusedExports(t *testing.T) {
	pkgs, err := load.Load("", "dynaspam/...")
	if err != nil {
		t.Fatalf("loading the module: %v", err)
	}
	bench, err := load.Load(filepath.Join("..", "..", "perfbench"), "./...")
	if err != nil {
		t.Fatalf("loading perfbench: %v", err)
	}
	all := append(pkgs, bench...)

	// A package appears once checked from source and again, for every
	// importer, from export data, so objects are matched by name.
	owners := fieldOwners(all)
	key := func(obj types.Object) string {
		switch obj := obj.(type) {
		case *types.Func:
			return obj.Origin().FullName()
		case *types.Var:
			return owners[obj.Origin()]
		}
		return ""
	}

	used := make(map[string]bool)
	for _, p := range all {
		for _, obj := range p.Info.Uses {
			if k := key(obj); k != "" {
				used[k] = true
			}
		}
	}
	for _, m := range interfaceMethods(all) {
		used[m] = true
	}

	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	allowed := make(map[string]bool)
	for _, p := range pkgs {
		if !strings.HasPrefix(p.ImportPath, "dynaspam/internal/") || p.ImportPath == "dynaspam/internal/lint/linttest" {
			continue
		}
		for id, obj := range p.Info.Defs {
			if obj == nil || !id.IsExported() {
				continue
			}
			switch obj := obj.(type) {
			case *types.Func:
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					continue
				}
			case *types.Var:
				if !obj.IsField() {
					continue
				}
			default:
				continue
			}
			k := key(obj)
			if k == "" || used[k] || strings.HasPrefix(k, builderOps) {
				continue
			}
			if _, ok := unusedAllowed[k]; ok {
				allowed[k] = true
				continue
			}
			pos := p.Fset.Position(obj.Pos())
			if rel, err := filepath.Rel(root, pos.Filename); err == nil {
				pos.Filename = rel
			}
			unused = append(unused, pos.String()+": "+k)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("nothing outside tests refers to %s; delete it, or move it into its package's _test.go files", u)
	}
	for k, reason := range unusedAllowed {
		if !allowed[k] {
			t.Errorf("allowlist entry %s is stale: it is used outside tests or no longer declared", k)
		}
		if reason == "" {
			t.Errorf("allowlist entry %s gives no reason", k)
		}
	}
}

// fieldOwners names every struct field of every named type in the loaded
// packages and in everything they import: the field's package path, type
// name and field name, with the field path for a nested anonymous struct.
func fieldOwners(pkgs []*load.Package) map[*types.Var]string {
	owners := make(map[*types.Var]string)
	var addStruct func(prefix string, st *types.Struct)
	addStruct = func(prefix string, st *types.Struct) {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			name := prefix + "." + f.Name()
			owners[f] = name
			if inner, ok := f.Type().(*types.Struct); ok {
				addStruct(name, inner)
			}
		}
	}
	seen := make(map[*types.Package]bool)
	var addPkg func(tp *types.Package)
	addPkg = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				addStruct(tp.Path()+"."+name, st)
			}
		}
		for _, imp := range tp.Imports() {
			addPkg(imp)
		}
	}
	for _, p := range pkgs {
		addPkg(p.Types)
		// Types declared inside functions are only reachable from their
		// own package, whose source objects carry them.
		for _, obj := range p.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && tn.Parent() != tn.Pkg().Scope() {
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					addStruct(p.ImportPath+"."+tn.Name()+"@"+p.Fset.Position(tn.Pos()).String(), st)
				}
			}
		}
	}
	return owners
}

// interfaceMethods returns, by key, every concrete method that satisfies a
// method of an interface the loaded packages can reach: one declared in
// their scopes or their imports' scopes, or written as a type literal.
func interfaceMethods(pkgs []*load.Package) []string {
	var ifaces []*types.Interface
	var named []*types.Named
	seen := make(map[*types.Package]bool)
	var addPkg func(tp *types.Package, local bool)
	addPkg = func(tp *types.Package, local bool) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			} else if n, ok := tn.Type().(*types.Named); ok && local {
				named = append(named, n)
			}
		}
		for _, imp := range tp.Imports() {
			addPkg(imp, false)
		}
	}
	for _, p := range pkgs {
		addPkg(p.Types, true)
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
		for _, obj := range p.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && tn.Parent() != tn.Pkg().Scope() {
				if n, ok := tn.Type().(*types.Named); ok {
					named = append(named, n)
				}
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	var out []string
	for _, n := range named {
		if n.NumMethods() == 0 {
			continue
		}
		ptr := types.NewPointer(n)
		for _, it := range ifaces {
			if it.NumMethods() == 0 || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, n.Obj().Pkg(), it.Method(i).Name()); obj != nil {
					if fn, ok := obj.(*types.Func); ok {
						out = append(out, fn.Origin().FullName())
					}
				}
			}
		}
	}
	return out
}
