// Package syncjournal checks the crash-safety contract of runner
// journals: a buffered journal write must be flushed before the function
// returns, on every path.
//
// PR 6's resume machinery replays the per-cell journal after a crash;
// that only works if completed cells actually reached the disk. A journal
// has two modes: after SetSync(true) every Write flushes itself (the
// checkpoint mode the job store uses), while a plain journal buffers and
// loses unflushed entries on a crash. The rule: for a journal constructed
// in the function being checked, every Write or WriteRecord not dominated
// by a SetSync(true) call must be followed by Flush or Close on every path to
// return — a deferred Flush/Close also satisfies it, since defers run on
// every path.
//
// Journal constructors are table-driven: runner.NewJournal, OpenJournal
// and OpenJournalAppend are built in, and any function can opt in with a
// //lint:journal line in its doc comment. Journals that escape the
// function (returned, stored, passed on) are someone else's to flush, so
// the analyzer stays silent about them.
package syncjournal

import (
	"go/ast"
	"go/types"

	"dynaspam/internal/lint/analysis"
	"dynaspam/internal/lint/flow"
	"dynaspam/internal/lint/scope"
)

// Analyzer is the syncjournal pass.
var Analyzer = &analysis.Analyzer{
	Name:    "syncjournal",
	Doc:     "buffered journal writes must be flushed on every path before returning",
	Match:   scope.Ordered,
	Collect: collect,
	Run:     run,
}

// builtinCtors seeds the journal-constructor table for runs whose patterns
// do not load internal/runner.
var builtinCtors = map[string]bool{
	"dynaspam/internal/runner.NewJournal":        true,
	"dynaspam/internal/runner.OpenJournal":       true,
	"dynaspam/internal/runner.OpenJournalAppend": true,
}

func collect(pass *analysis.Pass) error {
	analysis.CollectMarked(pass, "//lint:journal", "journal")
	return nil
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, fn := range flow.Functions(f) {
			if fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

// isCtor reports whether call constructs a journal.
func isCtor(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	key := analysis.FuncKey(fn)
	return builtinCtors[key] || pass.Facts.Has("journal", key)
}

func checkFunc(pass *analysis.Pass, fn flow.Func) {
	// Journals constructed at this function's level: j := NewJournal(...)
	// or j, err := OpenJournal(...).
	type tracked struct {
		obj types.Object
		def *ast.AssignStmt
	}
	var journals []tracked
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != fn.Node {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isCtor(pass, call) {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj != nil {
			journals = append(journals, tracked{obj, as})
		}
		return true
	})
	if len(journals) == 0 {
		return
	}
	cfg := flow.New(fn.Name, fn.Node)
	for _, j := range journals {
		if flow.Escapes(fn.Body, j.obj, pass.TypesInfo, nil) {
			continue // returned/stored/passed on: the new owner flushes
		}
		checkJournal(pass, cfg, fn, j.obj, j.def)
	}
}

// checkJournal verifies every buffered Write on one tracked journal.
func checkJournal(pass *analysis.Pass, cfg *flow.CFG, fn flow.Func, obj types.Object, def *ast.AssignStmt) {
	// A deferred Flush/Close runs on every path; writes are then safe.
	for _, d := range cfg.Defers {
		if methodOn(pass, d, obj, "Flush") || methodOn(pass, d, obj, "Close") {
			return
		}
	}
	var writes []*ast.CallExpr
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != fn.Node {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && (methodOn(pass, call, obj, "Write") || methodOn(pass, call, obj, "WriteRecord")) {
			writes = append(writes, call)
		}
		return true
	})
	isSync := func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		return ok && methodOn(pass, call, obj, "SetSync") &&
			len(call.Args) == 1 && isTrue(pass, call.Args[0])
	}
	discharges := func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		return ok && (methodOn(pass, call, obj, "Flush") || methodOn(pass, call, obj, "Close"))
	}
	for _, w := range writes {
		// Dominated by SetSync(true)? Then the write flushes itself.
		if !cfg.PathBetweenWithout(def, w, isSync) {
			continue
		}
		if cfg.ReachesExitWithout(w, discharges) {
			pass.Reportf(w.Pos(),
				"buffered journal write can reach return without Flush; a crash would lose this entry (flush it, defer Close, or SetSync(true) first)")
		}
	}
}

// methodOn reports whether call is obj.<name>(...) on the tracked journal
// variable.
func methodOn(pass *analysis.Pass, call *ast.CallExpr, obj types.Object, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && pass.TypesInfo.Uses[id] == obj
}

// isTrue reports whether e is the constant true.
func isTrue(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil && tv.Value.String() == "true"
}
