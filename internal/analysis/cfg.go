package analysis

// The shared control-flow layer under the concurrency analyzers. PR 5's
// analyzers were syntax-directed: each walked the AST and pattern-matched
// locally. The concurrency invariants (lockcheck's "no blocking call while
// a mutex is held", "unlock reachable on every return path"; leakcheck's
// "every goroutine has a termination path") are path properties — they
// depend on the order statements execute in and on which statements can
// reach which, not on what any single node looks like. This file gives the
// analyzers an intra-procedural CFG over one function body plus a generic
// forward dataflow solver, all stdlib-only like the loader.
//
// The graph is deliberately lightweight: nodes are statements (and the
// branch conditions that guard them) grouped into basic blocks, edges
// follow if/for/range/switch/select/goto/labeled-branch control flow, and
// `return` (and an unconditional `panic(...)`) edges into a synthetic Exit
// block. Function literals are NOT descended into — a closure body runs at
// some other time under some other lock state, so each literal gets its
// own CFG when an analyzer wants one.

import (
	"go/ast"
	"go/token"
)

// CFGBlock is one basic block: a maximal straight-line run of statements.
// Nodes holds the statements (and guarding condition expressions) in
// execution order; Succs the possible successors.
type CFGBlock struct {
	Nodes []ast.Node
	Succs []*CFGBlock
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry  *CFGBlock
	Exit   *CFGBlock // synthetic; every return/fallthrough-off-the-end edges here
	Blocks []*CFGBlock
	// Defers collects the body's defer statements in syntactic order.
	// Deferred calls run at every function exit, so analyzers that reason
	// about exit paths (unlock-on-return) consult this list alongside Exit.
	Defers []*ast.DeferStmt
}

// BuildCFG constructs the control-flow graph of body. A nil body (an
// external or interface function) yields a graph with only Entry and Exit.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		g:      &CFG{},
		labels: make(map[string]*labelTarget),
	}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	cur := b.g.Entry
	if body != nil {
		cur = b.stmts(cur, body.List)
	}
	// Falling off the end of the body is a return.
	b.edge(cur, b.g.Exit)
	return b.g
}

// labelTarget is the pair of blocks a labeled statement exposes to
// `break label` / `continue label` / `goto label`.
type labelTarget struct {
	start     *CFGBlock // goto target
	brk, cont *CFGBlock // filled in once the labeled loop/switch is seen
	pending   []*CFGBlock
}

type cfgBuilder struct {
	g *CFG
	// break/continue targets of the innermost enclosing loop/switch/select.
	breakTo, continueTo *CFGBlock
	labels              map[string]*labelTarget
	// label pending on the next loop/switch statement.
	curLabel *labelTarget
}

func (b *cfgBuilder) newBlock() *CFGBlock {
	blk := &CFGBlock{}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *CFGBlock) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// stmts threads the statement list through cur, returning the block
// control reaches after the last statement (nil when control cannot fall
// through, e.g. after a return).
func (b *cfgBuilder) stmts(cur *CFGBlock, list []ast.Stmt) *CFGBlock {
	for _, s := range list {
		cur = b.stmt(cur, s)
	}
	return cur
}

func (b *cfgBuilder) stmt(cur *CFGBlock, s ast.Stmt) *CFGBlock {
	if cur == nil {
		// Unreachable code still gets blocks so analyzers can inspect it,
		// but nothing edges into them.
		cur = b.newBlock()
	}
	switch st := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(cur, st.List)

	case *ast.IfStmt:
		if st.Init != nil {
			cur = b.stmt(cur, st.Init)
		}
		cur.Nodes = append(cur.Nodes, st.Cond)
		thenB := b.newBlock()
		b.edge(cur, thenB)
		after := b.newBlock()
		thenEnd := b.stmts(thenB, st.Body.List)
		b.edge(thenEnd, after)
		if st.Else != nil {
			elseB := b.newBlock()
			b.edge(cur, elseB)
			elseEnd := b.stmt(elseB, st.Else)
			b.edge(elseEnd, after)
		} else {
			b.edge(cur, after)
		}
		return after

	case *ast.ForStmt:
		if st.Init != nil {
			cur = b.stmt(cur, st.Init)
		}
		head := b.newBlock()
		b.edge(cur, head)
		after := b.newBlock()
		if st.Cond != nil {
			head.Nodes = append(head.Nodes, st.Cond)
			b.edge(head, after)
		}
		// An infinite `for {}` has no head→after edge: after is reachable
		// only via break, which is how exit-reachability detects loops
		// that cannot terminate.
		post := b.newBlock()
		bodyB := b.newBlock()
		b.edge(head, bodyB)
		b.withLoop(after, post, func() {
			end := b.stmts(bodyB, st.Body.List)
			b.edge(end, post)
		})
		if st.Post != nil {
			postEnd := b.stmt(post, st.Post)
			b.edge(postEnd, head)
		} else {
			b.edge(post, head)
		}
		return after

	case *ast.RangeStmt:
		cur.Nodes = append(cur.Nodes, st.X)
		head := b.newBlock()
		b.edge(cur, head)
		after := b.newBlock()
		b.edge(head, after) // every range may be empty or exhausted
		bodyB := b.newBlock()
		b.edge(head, bodyB)
		// Each iteration assigns the key and value; the body's statements
		// are threaded below, each under the state it runs in.
		for _, e := range []ast.Expr{st.Key, st.Value} {
			if e != nil {
				bodyB.Nodes = append(bodyB.Nodes, e)
			}
		}
		b.withLoop(after, head, func() {
			end := b.stmts(bodyB, st.Body.List)
			b.edge(end, head)
		})
		return after

	case *ast.SwitchStmt:
		if st.Init != nil {
			cur = b.stmt(cur, st.Init)
		}
		if st.Tag != nil {
			cur.Nodes = append(cur.Nodes, st.Tag)
		}
		return b.switchBody(cur, st.Body, false)

	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			cur = b.stmt(cur, st.Init)
		}
		cur.Nodes = append(cur.Nodes, st.Assign)
		return b.switchBody(cur, st.Body, false)

	case *ast.SelectStmt:
		return b.switchBody(cur, st.Body, true)

	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, st)
		b.edge(cur, b.g.Exit)
		return nil

	case *ast.BranchStmt:
		cur.Nodes = append(cur.Nodes, st)
		switch st.Tok {
		case token.BREAK:
			if st.Label != nil {
				if t := b.labels[st.Label.Name]; t != nil {
					if t.brk != nil {
						b.edge(cur, t.brk)
					} else {
						t.pending = append(t.pending, cur)
					}
				}
			} else {
				b.edge(cur, b.breakTo)
			}
		case token.CONTINUE:
			if st.Label != nil {
				if t := b.labels[st.Label.Name]; t != nil && t.cont != nil {
					b.edge(cur, t.cont)
				}
			} else {
				b.edge(cur, b.continueTo)
			}
		case token.GOTO:
			if st.Label != nil {
				t := b.labels[st.Label.Name]
				if t == nil {
					t = &labelTarget{start: b.newBlock()}
					b.labels[st.Label.Name] = t
				}
				b.edge(cur, t.start)
			}
		case token.FALLTHROUGH:
			// Handled by switchBody's case chaining.
			return cur
		}
		return nil

	case *ast.LabeledStmt:
		t := b.labels[st.Label.Name]
		if t == nil {
			t = &labelTarget{start: b.newBlock()}
			b.labels[st.Label.Name] = t
		} else if t.start == nil {
			t.start = b.newBlock()
		}
		b.edge(cur, t.start)
		b.curLabel = t
		end := b.stmt(t.start, st.Stmt)
		b.curLabel = nil
		for _, p := range t.pending {
			if t.brk != nil {
				b.edge(p, t.brk)
			}
		}
		return end

	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, st)
		cur.Nodes = append(cur.Nodes, st)
		return cur

	case *ast.ExprStmt:
		cur.Nodes = append(cur.Nodes, st)
		if isPanicCall(st.X) {
			b.edge(cur, b.g.Exit)
			return nil
		}
		return cur

	default:
		// Assignments, sends, go statements, declarations, inc/dec, empty:
		// straight-line.
		if _, ok := s.(*ast.EmptyStmt); !ok {
			cur.Nodes = append(cur.Nodes, s)
		}
		return cur
	}
}

// switchBody wires a switch/type-switch/select body: head fans out to
// every case; a case falls through to `after` (or, for switch
// fallthrough, into the next case body). A switch with no default also
// edges head→after; a select without default blocks until some case is
// runnable, so it has no head→after edge — and an empty or case-less
// select can never proceed.
func (b *cfgBuilder) switchBody(head *CFGBlock, body *ast.BlockStmt, isSelect bool) *CFGBlock {
	after := b.newBlock()
	label := b.curLabel
	b.curLabel = nil
	if label != nil {
		label.brk = after
	}
	hasDefault := false
	var caseBlocks []*CFGBlock
	var clauses []ast.Stmt
	for _, cs := range body.List {
		cb := b.newBlock()
		b.edge(head, cb)
		caseBlocks = append(caseBlocks, cb)
		clauses = append(clauses, cs)
	}
	for i, cs := range clauses {
		cb := caseBlocks[i]
		var list []ast.Stmt
		switch cl := cs.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, e := range cl.List {
				cb.Nodes = append(cb.Nodes, e)
			}
			list = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				cb = b.stmt(cb, cl.Comm)
			}
			list = cl.Body
		}
		fallsTo := after
		if i+1 < len(caseBlocks) && endsInFallthrough(list) {
			fallsTo = caseBlocks[i+1]
		}
		b.withSwitch(after, func() {
			end := b.stmts(cb, list)
			b.edge(end, fallsTo)
		})
	}
	if !hasDefault && !isSelect {
		b.edge(head, after)
	}
	if isSelect && len(clauses) == 0 {
		// select{} blocks forever: after stays unreachable.
		_ = after
	}
	return after
}

func endsInFallthrough(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	br, ok := list[len(list)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *cfgBuilder) withLoop(brk, cont *CFGBlock, fn func()) {
	label := b.curLabel
	b.curLabel = nil
	if label != nil {
		label.brk, label.cont = brk, cont
	}
	oldB, oldC := b.breakTo, b.continueTo
	b.breakTo, b.continueTo = brk, cont
	fn()
	b.breakTo, b.continueTo = oldB, oldC
}

func (b *cfgBuilder) withSwitch(brk *CFGBlock, fn func()) {
	oldB := b.breakTo
	b.breakTo = brk
	fn()
	b.breakTo = oldB
}

func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// ReachesExit reports whether the synthetic Exit block is reachable from
// Entry — false for a function whose every path loops forever (the shape
// leakcheck hunts for in goroutine bodies).
func (g *CFG) ReachesExit() bool {
	seen := make(map[*CFGBlock]bool)
	var walk func(*CFGBlock) bool
	walk = func(blk *CFGBlock) bool {
		if blk == g.Exit {
			return true
		}
		if seen[blk] {
			return false
		}
		seen[blk] = true
		for _, s := range blk.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	return walk(g.Entry)
}

// ForwardFlow solves a forward dataflow problem over g to a fixpoint and
// returns each block's in-state. transfer folds one node into a state
// (and must not mutate its input); merge joins two predecessor
// out-states; equal detects convergence. The entry state seeds Entry;
// blocks never reached keep the zero in-state and are absent from the
// result map. Analyzers re-run transfer inside a block to recover
// per-node states.
func ForwardFlow[S any](g *CFG, entry S, transfer func(n ast.Node, in S) S, merge func(a, b S) S, equal func(a, b S) bool) map[*CFGBlock]S {
	in := make(map[*CFGBlock]S, len(g.Blocks))
	in[g.Entry] = entry
	work := []*CFGBlock{g.Entry}
	queued := map[*CFGBlock]bool{g.Entry: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		state := in[blk]
		for _, n := range blk.Nodes {
			state = transfer(n, state)
		}
		for _, succ := range blk.Succs {
			old, ok := in[succ]
			next := state
			if ok {
				next = merge(old, state)
			}
			if !ok || !equal(old, next) {
				in[succ] = next
				if !queued[succ] {
					queued[succ] = true
					work = append(work, succ)
				}
			}
		}
	}
	return in
}
