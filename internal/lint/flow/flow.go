// Package flow builds statement-level control-flow graphs over Go
// function bodies for the hbplint dataflow analyzers (hotalloc,
// shardisolation, locksafety, journalorder).
//
// hbplint depends on nothing outside the standard library, which has
// neither go/ssa nor go/cfg, so it ships its own compact flow layer:
// a CFG builder plus the two path queries the analyzers need — "does
// a barrier cut every path from here to a normal return" (the
// postdominance form of the journal-before-grant rule) and "which
// statements are reachable from here" (alias retention after a
// cross-shard send). Forward dataflow (lock-state tracking) is a small
// worklist over the same blocks.
//
// Panic terminations get their own pseudo-exit: a path that unwinds
// never completes the state transition being checked, so it neither
// needs a journal barrier nor counts as a hot-path allocation site.
package flow

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal sequence of statements with a
// single entry and single exit edge set. Nodes holds the statements in
// source order; control-flow statements (if/for/switch/select) never
// appear in Nodes — the builder splits around them and records only
// their condition-free header position via the Stmts index.
type Block struct {
	Index int
	Nodes []ast.Stmt
	Succs []*Block
	Preds []*Block

	// Panics marks the synthetic panic exit and any block that
	// terminates by panicking.
	Panics bool
}

// Graph is the CFG of one function body.
type Graph struct {
	Entry *Block
	// Exit is the single synthetic normal-return exit. Falling off the
	// end of the body and every return statement lead here.
	Exit *Block
	// PanicExit collects panic terminations (explicit panic(...) calls
	// in tail position). Unwinding paths do not reach Exit.
	PanicExit *Block
	Blocks    []*Block

	points map[ast.Stmt]Point
}

// Point addresses one statement inside the graph: the block holding it
// and its index within Block.Nodes.
type Point struct {
	Block *Block
	Index int
}

// PointOf returns the Point of a statement recorded in the graph. The
// second result is false for statements the builder does not place in
// blocks (control-flow headers, statements inside nested FuncLits).
func (g *Graph) PointOf(s ast.Stmt) (Point, bool) {
	p, ok := g.points[s]
	return p, ok
}

// builder state. Loop/switch context is a stack of jump targets so
// break/continue (labeled or not) resolve to the right edges.
type builder struct {
	g   *Graph
	cur *Block // nil when the current position is unreachable
	ctx []jumpCtx
	// pendingLabel carries a label from its LabeledStmt to the loop or
	// switch it names, consumed by the next takeLabel call.
	pendingLabel string
}

type jumpCtx struct {
	label  string
	brk    *Block // break target (after the construct)
	cont   *Block // continue target (loop post/cond), nil for switch/select
	isLoop bool
}

// New builds the CFG of a function body. The body may be nil (external
// declaration); the graph then has only entry and exit.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{points: map[ast.Stmt]Point{}}
	b := &builder{g: g}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	g.PanicExit = b.newBlock()
	g.PanicExit.Panics = true
	b.cur = g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.jump(g.Exit) // fall off the end = normal return
	return g
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jump ends the current block with an edge to target; the builder
// becomes unreachable until startBlock.
func (b *builder) jump(target *Block) {
	if b.cur != nil {
		edge(b.cur, target)
	}
	b.cur = nil
}

// startBlock begins emitting into blk.
func (b *builder) startBlock(blk *Block) {
	b.cur = blk
}

// emit appends a plain statement to the current block.
func (b *builder) emit(s ast.Stmt) {
	if b.cur == nil {
		return // dead code after return/panic/branch
	}
	b.g.points[s] = Point{Block: b.cur, Index: len(b.cur.Nodes)}
	b.cur.Nodes = append(b.cur.Nodes, s)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if b.cur == nil {
			return
		}
		then := b.newBlock()
		after := b.newBlock()
		elseTo := after
		var elseBlk *Block
		if s.Else != nil {
			elseBlk = b.newBlock()
			elseTo = elseBlk
		}
		edge(b.cur, then)
		edge(b.cur, elseTo)
		b.cur = nil
		b.startBlock(then)
		b.stmtList(s.Body.List)
		b.jump(after)
		if s.Else != nil {
			b.startBlock(elseBlk)
			b.stmt(s.Else)
			b.jump(after)
		}
		b.startBlock(after)

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if b.cur == nil {
			return
		}
		head := b.newBlock() // condition test
		body := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		after := b.newBlock()
		b.jump(head)
		b.startBlock(head)
		edge(head, body)
		if s.Cond != nil {
			edge(head, after) // condition may be false
		}
		b.cur = nil
		b.pushCtx(b.takeLabel(), after, post, true)
		b.startBlock(body)
		b.stmtList(s.Body.List)
		b.jump(post)
		if s.Post != nil {
			b.startBlock(post)
			b.stmt(s.Post)
			b.jump(head)
		}
		b.popCtx()
		b.startBlock(after)

	case *ast.RangeStmt:
		if b.cur == nil {
			return
		}
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.jump(head)
		b.startBlock(head)
		edge(head, body)
		edge(head, after) // range may be empty / exhausted
		b.cur = nil
		b.pushCtx(b.takeLabel(), after, head, true)
		b.startBlock(body)
		b.stmtList(s.Body.List)
		b.jump(head)
		b.popCtx()
		b.startBlock(after)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.switchBody(b.takeLabel(), s.Body, nil)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		// The assign (x := y.(type)) is part of the header.
		b.switchBody(b.takeLabel(), s.Body, nil)

	case *ast.SelectStmt:
		b.switchBody(b.takeLabel(), s.Body, func(c ast.Stmt) ast.Stmt {
			return c.(*ast.CommClause).Comm
		})

	case *ast.LabeledStmt:
		// Bind the label to the construct it names, then lower it. A
		// label may also be a goto target; goto is modeled
		// conservatively (see BranchStmt), so no back-edge is needed.
		next := b.newBlock()
		b.jump(next)
		b.startBlock(next)
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if c := b.findCtx(s.Label, false); c != nil {
				b.jump(c.brk)
			} else {
				b.cur = nil
			}
		case token.CONTINUE:
			if c := b.findCtx(s.Label, true); c != nil {
				b.jump(c.cont)
			} else {
				b.cur = nil
			}
		case token.GOTO:
			// Rare in this codebase; model as an edge to the normal
			// exit. For the barrier query this is the conservative
			// direction: an unmodeled path can only produce a missed
			// barrier (false positive), never hide one.
			b.jump(b.g.Exit)
		case token.FALLTHROUGH:
			// Handled structurally in switchBody via clause order.
			b.cur = nil
		}

	case *ast.ReturnStmt:
		b.emit(s)
		b.jump(b.g.Exit)

	case *ast.ExprStmt:
		b.emit(s)
		if isPanicCall(s.X) {
			if b.cur != nil {
				b.cur.Panics = true
			}
			b.jump(b.g.PanicExit)
		}

	default:
		// Plain statements: assignments, declarations, inc/dec, defer,
		// go, send, empty. All single-entry single-exit.
		b.emit(s)
	}
}

// switchBody lowers switch/type-switch/select clause lists. comm
// extracts the communication statement of a select clause (emitted at
// the top of the clause block so channel-op scanners see it); nil for
// ordinary switches.
func (b *builder) switchBody(label string, body *ast.BlockStmt, comm func(ast.Stmt) ast.Stmt) {
	if b.cur == nil {
		return
	}
	head := b.cur
	after := b.newBlock()
	b.cur = nil
	b.pushCtx(label, after, nil, false)

	clauses := body.List
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock()
		edge(head, blocks[i])
	}
	hasDefault := false
	for _, c := range clauses {
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
		}
	}
	if !hasDefault && comm == nil {
		// A switch without default may fall through to after.
		edge(head, after)
	}
	// A select without default blocks until a case is ready, so there
	// is no head→after edge; every clause still flows to after.
	for i, c := range clauses {
		b.startBlock(blocks[i])
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			list = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				b.stmt(c.Comm)
			}
			list = c.Body
		}
		// fallthrough: if the clause's last statement is fallthrough,
		// chain to the next clause block.
		ft := len(list) > 0 && isFallthrough(list[len(list)-1])
		b.stmtList(list)
		if ft && i+1 < len(clauses) {
			b.jump(blocks[i+1])
		} else {
			b.jump(after)
		}
	}
	b.popCtx()
	b.startBlock(after)
}

func isFallthrough(s ast.Stmt) bool {
	br, ok := s.(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *builder) pushCtx(label string, brk, cont *Block, isLoop bool) {
	b.ctx = append(b.ctx, jumpCtx{label: label, brk: brk, cont: cont, isLoop: isLoop})
}

func (b *builder) popCtx() {
	b.ctx = b.ctx[:len(b.ctx)-1]
}

// findCtx resolves a break/continue target; needLoop restricts to
// loops (continue).
func (b *builder) findCtx(label *ast.Ident, needLoop bool) *jumpCtx {
	for i := len(b.ctx) - 1; i >= 0; i-- {
		c := &b.ctx[i]
		if needLoop && !c.isLoop {
			continue
		}
		if label == nil || c.label == label.Name {
			return c
		}
	}
	return nil
}

// takeLabel consumes the label set by an enclosing LabeledStmt.
func (b *builder) takeLabel() string {
	s := b.pendingLabel
	b.pendingLabel = ""
	return s
}

// isPanicCall reports whether e is a call to the predeclared panic.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// EveryPathHits reports whether every path from just after the
// statement at p to the normal exit passes a statement satisfying
// barrier. Paths that terminate by panicking are exempt: an unwinding
// run never completes the transition being checked. This is the
// postdominance form used by journalorder — barrier(s) is true for
// statements containing a durable journal append.
func (g *Graph) EveryPathHits(p Point, barrier func(ast.Stmt) bool) bool {
	// If a barrier statement follows within the same block, this path
	// is covered before any branching.
	for _, s := range p.Block.Nodes[p.Index+1:] {
		if barrier(s) {
			return true
		}
	}
	seen := map[*Block]bool{p.Block: true}
	var visit func(b *Block) bool
	visit = func(b *Block) bool {
		if b == g.Exit {
			return false // reached a normal return with no barrier
		}
		if b.Panics || b == g.PanicExit {
			// Entering the block is fine; a barrier may still appear
			// before the panic, but the path is exempt either way.
			return true
		}
		if seen[b] {
			return true // a cycle alone never reaches the exit
		}
		seen[b] = true
		for _, s := range b.Nodes {
			if barrier(s) {
				return true
			}
		}
		for _, succ := range b.Succs {
			if !visit(succ) {
				return false
			}
		}
		return true
	}
	for _, succ := range p.Block.Succs {
		if !visit(succ) {
			return false
		}
	}
	return true
}

// ReachableFrom returns every statement on some path strictly after
// the statement at p, including later statements of p's own block.
// Used by shardisolation to find uses of a pointer payload after its
// cross-shard send.
func (g *Graph) ReachableFrom(p Point) []ast.Stmt {
	var out []ast.Stmt
	out = append(out, p.Block.Nodes[p.Index+1:]...)
	seen := map[*Block]bool{}
	var visit func(b *Block)
	visit = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		out = append(out, b.Nodes...)
		for _, succ := range b.Succs {
			visit(succ)
		}
	}
	for _, succ := range p.Block.Succs {
		visit(succ)
	}
	// A loop may lead back to the sending block itself; its earlier
	// statements then also run again after the send.
	if seen[p.Block] {
		out = append(out, p.Block.Nodes[:p.Index+1]...)
	}
	return out
}
