// Package lockorder builds the static lock graph of the concurrent
// service planes and flags the two deadlock shapes their mutex structure
// invites.
//
// The telemetry plane (Server, Aggregator, Tracker) and the job plane
// (Plane queue, store) each guard state with per-struct sync.Mutex /
// sync.RWMutex fields, and call across those structs while holding locks.
// Two static rules keep that safe:
//
//  1. No self-deadlock: a function must not acquire a mutex a path may
//     already hold — directly, or by calling (transitively) a
//     same-package function that acquires it. Go's sync.Mutex is not
//     reentrant; the historical bug shape is Tracker.SweepStart calling
//     wake() before releasing mu.
//
//  2. No ordering cycles: if some path acquires A then B while another
//     acquires B then A, two goroutines can deadlock. The analyzer
//     accumulates held→acquired edges across the package and reports each
//     cycle once, at its lexically first edge.
//
// Lock identity is (struct type, mutex field): every instance of a struct
// shares one node in the graph, which over-approximates (two distinct
// Plane instances cannot deadlock on each other's mu) but matches how
// these singletons are actually used. Conservative exclusions keep the
// false-positive rate at zero: calls launched with `go` run on another
// goroutine and contribute no edges; deferred calls and unlocks act at
// function exit, so a deferred Unlock leaves the lock held for the rest of
// the body; interface calls have unknown targets and are skipped; closure
// bodies are skipped, since they run at an unknown time.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"dynaspam/internal/lint/analysis"
	"dynaspam/internal/lint/flow"
	"dynaspam/internal/lint/scope"
)

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name:  "lockorder",
	Doc:   "no mutex self-deadlocks or lock-ordering cycles in the concurrent service planes",
	Match: scope.LockChecked,
	Run:   run,
}

// A lockID names one mutex in the package-wide graph: the defining struct
// type and the field holding the mutex.
type lockID struct {
	typ   string
	field string
}

func (l lockID) String() string { return l.typ + "." + l.field }

// lockOp is one syntactic Lock/Unlock/RLock/RUnlock on an identified
// mutex.
type lockOp struct {
	id      lockID
	op      string // "Lock", "Unlock", "RLock", "RUnlock"
	acquire bool   // Lock/RLock
	write   bool   // Lock/Unlock (exclusive) vs RLock/RUnlock (shared)
	pos     token.Pos
}

// edge is one observed ordering: to was acquired while from was held.
type edge struct {
	from, to lockID
	pos      token.Pos
}

// report is one pending diagnostic.
type report struct {
	pos token.Pos
	msg string
}

func run(pass *analysis.Pass) error {
	fns, bodies := packageFuncs(pass)
	mayAcquire := acquireClosure(pass, fns, bodies)

	// Held-set walk of each function's CFG, collecting self-deadlock
	// reports and ordering edges.
	reports := map[string]report{}
	var edges []edge
	edgeSeen := map[edge]bool{}
	addEdge := func(from, to lockID, pos token.Pos) {
		if from == to {
			return
		}
		e := edge{from, to, 0}
		if !edgeSeen[e] {
			edgeSeen[e] = true
			edges = append(edges, edge{from, to, pos})
		}
	}
	for _, fn := range fns {
		cfg := flow.New(fn.Name(), bodies[fn])
		walkHeld(pass, cfg, func(held map[lockID]bool, op *lockOp, call *ast.CallExpr, callee *types.Func) {
			switch {
			case op != nil && op.acquire:
				if held[op.id] && op.write {
					key := fmt.Sprintf("%d:%s", op.pos, op.id)
					reports[key] = report{op.pos, fmt.Sprintf(
						"%s acquires %s while a path already holds it; sync mutexes are not reentrant",
						fn.Name(), op.id)}
				}
				for h := range held {
					addEdge(h, op.id, op.pos)
				}
			case callee != nil:
				for _, id := range sortedIDs(mayAcquire[callee]) {
					if held[id] {
						key := fmt.Sprintf("%d:call:%s", call.Pos(), id)
						reports[key] = report{call.Pos(), fmt.Sprintf(
							"%s calls %s while holding %s, which %s may also acquire; this self-deadlocks",
							fn.Name(), callee.Name(), id, callee.Name())}
					} else {
						for h := range held {
							addEdge(h, id, call.Pos())
						}
					}
				}
			}
		})
	}

	for _, r := range cycleReports(edges) {
		reports["cycle:"+r.msg] = r
	}

	sorted := make([]report, 0, len(reports))
	for _, r := range reports {
		sorted = append(sorted, r)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].pos != sorted[j].pos {
			return sorted[i].pos < sorted[j].pos
		}
		return sorted[i].msg < sorted[j].msg
	})
	for _, r := range sorted {
		pass.Reportf(r.pos, "%s", r.msg)
	}
	return nil
}

// packageFuncs indexes the package's declared functions with bodies.
func packageFuncs(pass *analysis.Pass) ([]*types.Func, map[*types.Func]*ast.FuncDecl) {
	var fns []*types.Func
	bodies := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				fns = append(fns, fn)
				bodies[fn] = fd
			}
		}
	}
	return fns, bodies
}

// acquireClosure computes, per function, every lock it may acquire:
// its direct Lock/RLock sites plus those of same-package callees,
// transitively. Lock operations inside closures and calls launched with
// `go` are excluded — they do not run on the calling goroutine's stack at
// that point.
func acquireClosure(pass *analysis.Pass, fns []*types.Func, bodies map[*types.Func]*ast.FuncDecl) map[*types.Func]map[lockID]bool {
	mayAcquire := map[*types.Func]map[lockID]bool{}
	callees := map[*types.Func][]*types.Func{}
	for _, fn := range fns {
		mayAcquire[fn] = map[lockID]bool{}
		goCalls := map[*ast.CallExpr]bool{}
		ast.Inspect(bodies[fn].Body, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				goCalls[g.Call] = true
			}
			return true
		})
		ast.Inspect(bodies[fn].Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok || goCalls[call] {
				return true
			}
			if op, ok := lockOpOf(pass, call); ok {
				if op.acquire {
					mayAcquire[fn][op.id] = true
				}
				return true
			}
			if callee := analysis.Callee(pass.TypesInfo, call); callee != nil && callee.Pkg() == pass.Pkg {
				callees[fn] = append(callees[fn], callee)
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			for _, callee := range callees[fn] {
				for id := range mayAcquire[callee] {
					if !mayAcquire[fn][id] {
						mayAcquire[fn][id] = true
						changed = true
					}
				}
			}
		}
	}
	return mayAcquire
}

// lockOpOf recognizes a call as mu.Lock()/Unlock()/RLock()/RUnlock() on a
// struct-field mutex and returns its identity. Bare local mutexes have no
// cross-function identity and are skipped.
func lockOpOf(pass *analysis.Pass, call *ast.CallExpr) (*lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return nil, false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || !isSyncMutex(tv.Type) {
		return nil, false
	}
	fieldSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	ownerTV, ok := pass.TypesInfo.Types[fieldSel.X]
	if !ok {
		return nil, false
	}
	owner := ownerTV.Type
	if p, isPtr := owner.(*types.Pointer); isPtr {
		owner = p.Elem()
	}
	named, ok := owner.(*types.Named)
	if !ok {
		return nil, false
	}
	return &lockOp{
		id:      lockID{named.Obj().Name(), fieldSel.Sel.Name},
		op:      op,
		acquire: op == "Lock" || op == "RLock",
		write:   op == "Lock" || op == "Unlock",
		pos:     call.Pos(),
	}, true
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isSyncMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" &&
		(named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex")
}

// walkHeld propagates the may-held lock set through the CFG to a fixpoint,
// then replays each block invoking visit at every lock operation and
// resolvable same-package call with the set held just before it. Deferred
// statements and `go` launches are skipped: neither acts at its flow
// position (a deferred Unlock therefore leaves its lock held to exit,
// which is exactly the semantics the checks need).
func walkHeld(pass *analysis.Pass, cfg *flow.CFG,
	visit func(held map[lockID]bool, op *lockOp, call *ast.CallExpr, callee *types.Func)) {

	in := make([]map[lockID]bool, len(cfg.Blocks))
	for i := range in {
		in[i] = map[lockID]bool{}
	}
	merge := func(dst, src map[lockID]bool) bool {
		changed := false
		for id := range src {
			if !dst[id] {
				dst[id] = true
				changed = true
			}
		}
		return changed
	}
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.Blocks {
			held := map[lockID]bool{}
			merge(held, in[b.Index])
			for _, n := range b.Nodes {
				stepNode(pass, n, held, nil)
			}
			for _, s := range b.Succs {
				if merge(in[s.Index], held) {
					changed = true
				}
			}
		}
	}
	for _, b := range cfg.Blocks {
		held := map[lockID]bool{}
		merge(held, in[b.Index])
		for _, n := range b.Nodes {
			stepNode(pass, n, held, visit)
		}
	}
}

// stepNode applies one statement's lock effects to held in syntactic
// order, calling visit (when non-nil) before each effect.
func stepNode(pass *analysis.Pass, n ast.Node, held map[lockID]bool,
	visit func(held map[lockID]bool, op *lockOp, call *ast.CallExpr, callee *types.Func)) {
	switch n.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if op, ok := lockOpOf(pass, m); ok {
				if visit != nil {
					visit(held, op, nil, nil)
				}
				if op.acquire {
					held[op.id] = true
				} else {
					delete(held, op.id)
				}
				return true
			}
			if callee := analysis.Callee(pass.TypesInfo, m); callee != nil && callee.Pkg() == pass.Pkg {
				if visit != nil {
					visit(held, nil, m, callee)
				}
			}
		}
		return true
	})
}

// sortedIDs returns the set's locks in stable name order.
func sortedIDs(set map[lockID]bool) []lockID {
	out := make([]lockID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// cycleReports finds the simple cycles of the ordering graph and renders
// one report per cycle at its lexically first edge. Self-edges never enter
// the graph (re-acquisition is reported at its site), so every cycle here
// spans at least two locks.
func cycleReports(edges []edge) []report {
	adj := map[lockID][]edge{}
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e)
	}
	for _, es := range adj {
		sort.Slice(es, func(i, j int) bool { return es[i].to.String() < es[j].to.String() })
	}
	var nodes []lockID
	for from := range adj {
		nodes = append(nodes, from)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].String() < nodes[j].String() })

	var out []report
	seenCycle := map[string]bool{}
	for _, start := range nodes {
		var stack []edge
		onStack := map[lockID]bool{}
		var dfs func(from lockID)
		dfs = func(from lockID) {
			onStack[from] = true
			for _, e := range adj[from] {
				if onStack[e.to] {
					var cyc []edge
					for i, se := range stack {
						if se.from == e.to {
							cyc = append(append(cyc, stack[i:]...), e)
							break
						}
					}
					if len(cyc) > 0 {
						out = addCycle(out, cyc, seenCycle)
					}
					continue
				}
				stack = append(stack, e)
				dfs(e.to)
				stack = stack[:len(stack)-1]
			}
			delete(onStack, from)
		}
		dfs(start)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// addCycle canonicalizes a cycle (rotated to its smallest lock name),
// dedupes it, and renders the report at the cycle's first-position edge.
func addCycle(out []report, cyc []edge, seen map[string]bool) []report {
	names := make([]string, len(cyc))
	min := 0
	for i, e := range cyc {
		names[i] = e.from.String()
		if names[i] < names[min] {
			min = i
		}
	}
	rotated := append(append([]string(nil), names[min:]...), names[:min]...)
	key := strings.Join(rotated, "→")
	if seen[key] {
		return out
	}
	seen[key] = true
	first := cyc[0]
	for _, e := range cyc[1:] {
		if e.pos < first.pos {
			first = e
		}
	}
	return append(out, report{first.pos, fmt.Sprintf(
		"lock ordering cycle: %s→%s; goroutines taking these locks in different orders can deadlock",
		key, rotated[0])})
}
