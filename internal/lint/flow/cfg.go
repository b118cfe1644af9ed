// Package flow is the control-flow layer of dynalint: a lightweight,
// stdlib-only control-flow graph over go/ast function bodies, which the
// lockorder analyzer walks to track the locks a path may hold.
//
// Like internal/lint/analysis, it deliberately mirrors the shapes of the
// unavailable x/tools machinery (golang.org/x/tools/go/cfg) closely enough
// that a future migration is a matter of swapping imports, while staying
// small enough to audit: basic blocks hold whole statements in execution
// order, edges follow Go's structured control flow (if/for/range/switch/
// select, labeled break/continue, goto, fallthrough), and a synthetic exit
// block collects every return. Defers are recorded separately in
// registration order — they run between any return and the real exit.
// A path the CFG admits may be dynamically infeasible, so clients treat
// it as a may-analysis.
package flow

import (
	"go/ast"
	"go/token"
)

// A Block is one basic block: a maximal run of statements with a single
// entry at the top. Nodes holds the block's statements (and, for branch
// heads, the init/condition expressions) in execution order.
type Block struct {
	// Index is the block's position in CFG.Blocks; b0 is the entry.
	Index int
	// Comment names the block's structural role ("entry", "if.then",
	// "for.head", ...) for dumps and debugging.
	Comment string
	// Nodes are the block's statements/expressions in execution order.
	Nodes []ast.Node
	// Succs are the blocks control may transfer to next.
	Succs []*Block
}

// A CFG is the control-flow graph of one function body.
type CFG struct {
	// Name labels the graph in dumps ("funcName" or "funcName$1" for
	// literals).
	Name string
	// Blocks holds every block; Blocks[0] is the entry. Blocks with no
	// predecessors other than the entry are unreachable code.
	Blocks []*Block
	// Exit is the synthetic block every return (and the body's final
	// fallthrough) leads to. It holds no nodes.
	Exit *Block
	// Defers lists deferred calls in registration order; they execute
	// between any transfer to Exit and the function actually returning.
	Defers []*ast.CallExpr
}

// builder incrementally constructs a CFG.
type builder struct {
	cfg *CFG
	cur *Block
	// loops/switches currently open, innermost last, for break/continue.
	targets []*target
	// labeled blocks for goto, plus gotos seen before their label.
	labels       map[string]*Block
	pendingGotos map[string][]*Block
	// fallTo, when non-nil, is the next case body a `fallthrough` in the
	// current case transfers to.
	fallTo *Block
}

// target is one enclosing breakable/continuable construct.
type target struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

// New builds the CFG of a function body. fn must be an *ast.FuncDecl or
// *ast.FuncLit; a nil body (declaration without definition) yields a graph
// with only entry and exit.
func New(name string, fn ast.Node) *CFG {
	var body *ast.BlockStmt
	switch f := fn.(type) {
	case *ast.FuncDecl:
		body = f.Body
	case *ast.FuncLit:
		body = f.Body
	default:
		panic("flow: New expects *ast.FuncDecl or *ast.FuncLit")
	}
	b := &builder{
		cfg:          &CFG{Name: name},
		labels:       make(map[string]*Block),
		pendingGotos: make(map[string][]*Block),
	}
	entry := b.newBlock("entry")
	b.cfg.Exit = &Block{Comment: "exit"}
	b.cur = entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.edge(b.cur, b.cfg.Exit)
	// Unresolved gotos (malformed source) fall through to exit so the
	// graph stays connected.
	for _, srcs := range b.pendingGotos {
		for _, s := range srcs {
			b.edge(s, b.cfg.Exit)
		}
	}
	b.cfg.Exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

// newBlock appends a fresh block to the graph.
func (b *builder) newBlock(comment string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Comment: comment}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// edge links from → to, deduplicating repeats.
func (b *builder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// startUnreachable opens a predecessor-less block for statements after an
// unconditional transfer (return, break, goto); such code is dead but must
// still parse into the graph.
func (b *builder) startUnreachable() {
	b.cur = b.newBlock("unreachable")
}

// stmtList builds each statement in order.
func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// stmt dispatches one statement into the graph.
func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		b.cur.Nodes = append(b.cur.Nodes, s.Cond)
		head := b.cur
		join := b.newBlock("if.done")
		then := b.newBlock("if.then")
		b.edge(head, then)
		b.cur = then
		b.stmtList(s.Body.List)
		b.edge(b.cur, join)
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.edge(head, els)
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, join)
		} else {
			b.edge(head, join)
		}
		b.cur = join

	case *ast.ForStmt:
		b.forStmt(s, "")

	case *ast.RangeStmt:
		b.rangeStmt(s, "")

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		if s.Tag != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Tag)
		}
		b.switchBody(s.Body, "", "switch")

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		b.cur.Nodes = append(b.cur.Nodes, s.Assign)
		b.switchBody(s.Body, "", "typeswitch")

	case *ast.SelectStmt:
		b.selectStmt(s, "")

	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.edge(b.cur, b.cfg.Exit)
		b.startUnreachable()

	case *ast.BranchStmt:
		b.branchStmt(s)

	case *ast.LabeledStmt:
		lb := b.newBlock("label." + s.Label.Name)
		b.edge(b.cur, lb)
		b.labels[s.Label.Name] = lb
		for _, src := range b.pendingGotos[s.Label.Name] {
			b.edge(src, lb)
		}
		delete(b.pendingGotos, s.Label.Name)
		b.cur = lb
		switch inner := s.Stmt.(type) {
		case *ast.ForStmt:
			b.forStmt(inner, s.Label.Name)
		case *ast.RangeStmt:
			b.rangeStmt(inner, s.Label.Name)
		case *ast.SwitchStmt:
			if inner.Init != nil {
				b.cur.Nodes = append(b.cur.Nodes, inner.Init)
			}
			if inner.Tag != nil {
				b.cur.Nodes = append(b.cur.Nodes, inner.Tag)
			}
			b.switchBody(inner.Body, s.Label.Name, "switch")
		case *ast.TypeSwitchStmt:
			if inner.Init != nil {
				b.cur.Nodes = append(b.cur.Nodes, inner.Init)
			}
			b.cur.Nodes = append(b.cur.Nodes, inner.Assign)
			b.switchBody(inner.Body, s.Label.Name, "typeswitch")
		case *ast.SelectStmt:
			b.selectStmt(inner, s.Label.Name)
		default:
			b.stmt(s.Stmt)
		}

	case *ast.DeferStmt:
		b.cfg.Defers = append(b.cfg.Defers, s.Call)
		b.cur.Nodes = append(b.cur.Nodes, s)

	default:
		// Straight-line statements: assignments, declarations, expression
		// statements, sends, inc/dec, empty, and go statements, whose call
		// runs on another goroutine rather than at its flow position.
		b.cur.Nodes = append(b.cur.Nodes, s)
	}
}

// forStmt builds a three-part or while-style for loop.
func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.cur.Nodes = append(b.cur.Nodes, s.Init)
	}
	head := b.newBlock("for.head")
	b.edge(b.cur, head)
	join := b.newBlock("for.done")
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
		b.edge(head, join)
	}
	body := b.newBlock("for.body")
	b.edge(head, body)

	var post *Block
	back := head // where continue and the body's end loop back to
	if s.Post != nil {
		post = b.newBlock("for.post")
		post.Nodes = append(post.Nodes, s.Post)
		b.edge(post, head)
		back = post
	}

	b.targets = append(b.targets, &target{label: label, breakTo: join, continueTo: back})
	b.cur = body
	b.stmtList(s.Body.List)
	b.edge(b.cur, back)
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = join
}

// rangeStmt builds a range loop; the head holds the range expression and
// iteration assignment, and the body may execute zero times.
func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock("range.head")
	head.Nodes = append(head.Nodes, s.X)
	b.edge(b.cur, head)
	join := b.newBlock("range.done")
	b.edge(head, join)
	body := b.newBlock("range.body")
	b.edge(head, body)

	b.targets = append(b.targets, &target{label: label, breakTo: join, continueTo: head})
	b.cur = body
	b.stmtList(s.Body.List)
	b.edge(b.cur, head)
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = join
}

// switchBody builds the clauses of a switch or type switch. Each case
// header branches from the current block; fallthrough links a case body to
// the next clause's body.
func (b *builder) switchBody(body *ast.BlockStmt, label, kind string) {
	head := b.cur
	join := b.newBlock(kind + ".done")
	b.targets = append(b.targets, &target{label: label, breakTo: join})

	var clauses []*ast.CaseClause
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		clauses = append(clauses, cc)
		if cc.List == nil {
			hasDefault = true
		}
	}
	// Build every clause's body block first so fallthrough can target the
	// lexically next clause.
	blocks := make([]*Block, len(clauses))
	for i, cc := range clauses {
		name := kind + ".case"
		if cc.List == nil {
			name = kind + ".default"
		}
		blocks[i] = b.newBlock(name)
		for _, e := range cc.List {
			blocks[i].Nodes = append(blocks[i].Nodes, e)
		}
		b.edge(head, blocks[i])
	}
	if !hasDefault {
		b.edge(head, join)
	}
	savedFall := b.fallTo
	for i, cc := range clauses {
		if i+1 < len(blocks) {
			b.fallTo = blocks[i+1]
		} else {
			b.fallTo = nil
		}
		b.cur = blocks[i]
		b.stmtList(cc.Body)
		b.edge(b.cur, join)
	}
	b.fallTo = savedFall
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = join
}

// selectStmt builds a select: each communication clause is a branch from
// the head. A select with no default blocks until a case is ready, which
// for the graph just means every successor is a clause.
func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	join := b.newBlock("select.done")
	b.targets = append(b.targets, &target{label: label, breakTo: join})
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		name := "select.case"
		if cc.Comm == nil {
			name = "select.default"
		}
		blk := b.newBlock(name)
		if cc.Comm != nil {
			blk.Nodes = append(blk.Nodes, cc.Comm)
		}
		b.edge(head, blk)
		b.cur = blk
		b.stmtList(cc.Body)
		b.edge(b.cur, join)
	}
	if len(s.Body.List) == 0 {
		// select{} blocks forever: no successors out of head.
		_ = head
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = join
}

// branchStmt builds break/continue/goto/fallthrough.
func (b *builder) branchStmt(s *ast.BranchStmt) {
	b.cur.Nodes = append(b.cur.Nodes, s)
	switch s.Tok {
	case token.BREAK:
		if t := b.findTarget(s.Label); t != nil {
			b.edge(b.cur, t.breakTo)
		}
		b.startUnreachable()
	case token.CONTINUE:
		if t := b.findContinue(s.Label); t != nil {
			b.edge(b.cur, t.continueTo)
		}
		b.startUnreachable()
	case token.GOTO:
		if s.Label != nil {
			if lb, ok := b.labels[s.Label.Name]; ok {
				b.edge(b.cur, lb)
			} else {
				b.pendingGotos[s.Label.Name] = append(b.pendingGotos[s.Label.Name], b.cur)
			}
		}
		b.startUnreachable()
	case token.FALLTHROUGH:
		if b.fallTo != nil {
			b.edge(b.cur, b.fallTo)
		}
		b.startUnreachable()
	}
}

// findTarget resolves a break's target: the innermost breakable construct,
// or the one with the matching label.
func (b *builder) findTarget(label *ast.Ident) *target {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := b.targets[i]
		if label == nil || t.label == label.Name {
			return t
		}
	}
	return nil
}

// findContinue resolves a continue's target: the innermost loop (targets
// with a continue block), or the labeled one.
func (b *builder) findContinue(label *ast.Ident) *target {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := b.targets[i]
		if t.continueTo == nil {
			continue
		}
		if label == nil || t.label == label.Name {
			return t
		}
	}
	return nil
}
