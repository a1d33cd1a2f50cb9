package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// cfg.go is the flow-sensitive layer: an intraprocedural control-flow
// graph of basic blocks built directly over the AST (no SSA, no
// go/packages), plus a "must pass before exit" (post-dominance style)
// query used to prove that an obligation (a WaitGroup join) is
// discharged on every path from a program point to function return.
//
// Granularity: a block owns a sequence of ast.Node entries — leaf
// statements plus the *header parts* of control statements (an if's
// init and condition, a range's binding, a switch tag). Bodies of
// control statements live in their own blocks; bodies of function
// literals are NOT traversed (a literal executes at call time, not at
// its lexical position — rules build a separate CFG per literal via
// Module.cfgOf). Panic, os.Exit, log.Fatal*, and runtime.Goexit
// terminate their block without an edge to the exit block, so the
// must-pass query quantifies over paths that actually return.
//
// Soundness limits, shared with the rest of the suite and documented
// in DESIGN.md: within one owned node, evaluation order is not
// modeled; a goto into a loop body produces a conservative
// (edge-complete but order-approximate) graph; and code inside an
// immediately-invoked function literal is invisible to the enclosing
// function's graph.

// cfgBlock is one basic block.
type cfgBlock struct {
	idx   int
	nodes []ast.Node
	succs []*cfgBlock
	preds []*cfgBlock
}

// cfg is the control-flow graph of one function body (a declared
// function or a function literal).
type cfg struct {
	body   *ast.BlockStmt
	entry  *cfgBlock
	exit   *cfgBlock // synthetic; empty; target of every return
	blocks []*cfgBlock

	pkg *Package
	nr  map[*types.Func]bool
}

// buildCFG constructs the graph for one body. nr is the module's
// noreturn summary (calls to these functions terminate their block);
// nil is fine for contexts without module-wide information.
func buildCFG(pkg *Package, body *ast.BlockStmt, nr map[*types.Func]bool) *cfg {
	c := &cfg{body: body, pkg: pkg, nr: nr}
	b := &cfgBuilder{c: c, labels: map[string]*cfgBlock{}}
	c.entry = c.newBlock()
	c.exit = c.newBlock()
	b.cur = c.entry
	b.stmtList(body.List)
	// Falling off the end of the body returns.
	b.edge(b.cur, c.exit)
	b.resolveGotos()
	for _, blk := range c.blocks {
		for _, s := range blk.succs {
			s.preds = append(s.preds, blk)
		}
	}
	return c
}

func (c *cfg) newBlock() *cfgBlock {
	b := &cfgBlock{idx: len(c.blocks)}
	c.blocks = append(c.blocks, b)
	return b
}

// cfgBuilder threads the construction state: the current block (nil
// while in dead code after a terminator), the break/continue frame
// stack, and pending forward gotos.
type cfgBuilder struct {
	c      *cfg
	cur    *cfgBlock
	frames []cfgFrame
	labels map[string]*cfgBlock
	gotos  []pendingGoto
	// nextLabel is a label immediately preceding a for/range/switch/
	// select statement; continue/break with that label target it.
	nextLabel string
}

// cfgFrame is one enclosing breakable/continuable construct.
type cfgFrame struct {
	label    string
	brk      *cfgBlock
	cont     *cfgBlock // nil for switch/select
	fallthru *cfgBlock // next case block, for fallthrough
}

type pendingGoto struct {
	from  *cfgBlock
	label string
	pos   token.Pos
}

func (b *cfgBuilder) edge(from, to *cfgBlock) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.succs {
		if s == to {
			return
		}
	}
	from.succs = append(from.succs, to)
}

// own appends a node to the current block, materializing a fresh
// (unreachable) block when the builder is in dead code so later
// queries still see the node.
func (b *cfgBuilder) own(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.c.newBlock()
	}
	b.cur.nodes = append(b.cur.nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(st.List)
	case *ast.LabeledStmt:
		// The labeled statement starts its own block so gotos can land
		// on it; loop labels additionally name the next frame.
		lb := b.c.newBlock()
		b.edge(b.cur, lb)
		b.cur = lb
		b.labels[st.Label.Name] = lb
		b.nextLabel = st.Label.Name
		b.stmt(st.Stmt)
		b.nextLabel = ""
	case *ast.ReturnStmt:
		b.own(st)
		b.edge(b.cur, b.c.exit)
		b.cur = nil
	case *ast.BranchStmt:
		b.branch(st)
	case *ast.IfStmt:
		b.ifStmt(st)
	case *ast.ForStmt:
		b.forStmt(st)
	case *ast.RangeStmt:
		b.rangeStmt(st)
	case *ast.SwitchStmt:
		if st.Init != nil {
			b.own(st.Init)
		}
		if st.Tag != nil {
			b.own(st.Tag)
		}
		b.switchBody(st.Body, nil)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			b.own(st.Init)
		}
		b.own(st.Assign)
		b.switchBody(st.Body, nil)
	case *ast.SelectStmt:
		b.selectStmt(st)
	default:
		// Leaf statements: assignments, declarations, expression
		// statements, sends, go, defer, incdec, empty.
		b.own(s)
		if terminatingStmt(b.c.pkg, s, b.c.nr) {
			b.cur = nil // no edge: this path never returns
		}
	}
}

func (b *cfgBuilder) branch(st *ast.BranchStmt) {
	label := ""
	if st.Label != nil {
		label = st.Label.Name
	}
	switch st.Tok {
	case token.BREAK:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := &b.frames[i]
			if label == "" || f.label == label {
				b.edge(b.cur, f.brk)
				break
			}
		}
	case token.CONTINUE:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := &b.frames[i]
			if f.cont != nil && (label == "" || f.label == label) {
				b.edge(b.cur, f.cont)
				break
			}
		}
	case token.GOTO:
		if t, ok := b.labels[label]; ok {
			b.edge(b.cur, t)
		} else {
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: label, pos: st.Pos()})
		}
	case token.FALLTHROUGH:
		for i := len(b.frames) - 1; i >= 0; i-- {
			if f := &b.frames[i]; f.fallthru != nil {
				b.edge(b.cur, f.fallthru)
				break
			}
		}
	}
	b.cur = nil
}

func (b *cfgBuilder) resolveGotos() {
	for _, g := range b.gotos {
		if t, ok := b.labels[g.label]; ok {
			b.edge(g.from, t)
		}
	}
}

func (b *cfgBuilder) ifStmt(st *ast.IfStmt) {
	if st.Init != nil {
		b.own(st.Init)
	}
	b.own(st.Cond)
	header := b.cur
	after := b.c.newBlock()

	then := b.c.newBlock()
	b.edge(header, then)
	b.cur = then
	b.stmtList(st.Body.List)
	b.edge(b.cur, after)

	if st.Else != nil {
		els := b.c.newBlock()
		b.edge(header, els)
		b.cur = els
		b.stmt(st.Else)
		b.edge(b.cur, after)
	} else {
		b.edge(header, after)
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(st *ast.ForStmt) {
	label := b.nextLabel
	b.nextLabel = ""
	if st.Init != nil {
		b.own(st.Init)
	}
	header := b.c.newBlock()
	b.edge(b.cur, header)
	b.cur = header
	if st.Cond != nil {
		b.own(st.Cond)
	}
	after := b.c.newBlock()
	if st.Cond != nil {
		b.edge(header, after)
	}
	var post *cfgBlock
	cont := header
	if st.Post != nil {
		post = b.c.newBlock()
		b.own2(post, st.Post)
		b.edge(post, header)
		cont = post
	}
	body := b.c.newBlock()
	b.edge(header, body)
	b.frames = append(b.frames, cfgFrame{label: label, brk: after, cont: cont})
	b.cur = body
	b.stmtList(st.Body.List)
	b.edge(b.cur, cont)
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

// own2 appends a node to a specific block (used for loop post
// statements, which are built out of line).
func (b *cfgBuilder) own2(blk *cfgBlock, n ast.Node) {
	blk.nodes = append(blk.nodes, n)
}

func (b *cfgBuilder) rangeStmt(st *ast.RangeStmt) {
	label := b.nextLabel
	b.nextLabel = ""
	header := b.c.newBlock()
	b.edge(b.cur, header)
	// The RangeStmt node itself is the header: it owns the container
	// evaluation and the per-iteration key/value bindings.
	b.own2(header, st)
	after := b.c.newBlock()
	b.edge(header, after)
	body := b.c.newBlock()
	b.edge(header, body)
	b.frames = append(b.frames, cfgFrame{label: label, brk: after, cont: header})
	b.cur = body
	b.stmtList(st.Body.List)
	b.edge(b.cur, header)
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

// switchBody builds the case blocks of a switch or type switch. Each
// clause gets its own block fed from the header; fallthrough edges to
// the next clause; a missing default adds a header→after edge.
func (b *cfgBuilder) switchBody(body *ast.BlockStmt, _ *cfgBlock) {
	label := b.nextLabel
	b.nextLabel = ""
	header := b.cur
	after := b.c.newBlock()

	// Pre-create clause blocks so fallthrough can target the next one.
	var clauses []*ast.CaseClause
	for _, s := range body.List {
		if cc, ok := s.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*cfgBlock, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.c.newBlock()
		if len(cc.List) == 0 {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(header, after)
	}
	for i, cc := range clauses {
		b.edge(header, blocks[i])
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.own(e)
		}
		var ft *cfgBlock
		if i+1 < len(blocks) {
			ft = blocks[i+1]
		}
		b.frames = append(b.frames, cfgFrame{label: label, brk: after, fallthru: ft})
		b.stmtList(cc.Body)
		b.frames = b.frames[:len(b.frames)-1]
		b.edge(b.cur, after)
	}
	b.cur = after
}

func (b *cfgBuilder) selectStmt(st *ast.SelectStmt) {
	label := b.nextLabel
	b.nextLabel = ""
	header := b.cur
	if header == nil {
		header = b.c.newBlock()
		b.cur = header
	}
	after := b.c.newBlock()
	any := false
	for _, s := range st.Body.List {
		cc, ok := s.(*ast.CommClause)
		if !ok {
			continue
		}
		any = true
		blk := b.c.newBlock()
		b.edge(header, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.own(cc.Comm)
		}
		b.frames = append(b.frames, cfgFrame{label: label, brk: after})
		b.stmtList(cc.Body)
		b.frames = b.frames[:len(b.frames)-1]
		b.edge(b.cur, after)
	}
	if !any {
		// select{} blocks forever: no successors.
		b.cur = nil
		return
	}
	b.cur = after
}

// terminatingStmt reports whether a leaf statement never transfers
// control to the following statement: a call to panic, os.Exit,
// log.Fatal*, runtime.Goexit, or a module function summarized as
// noreturn (its body always ends in one of those).
func terminatingStmt(pkg *Package, s ast.Stmt, nr map[*types.Func]bool) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	return terminatingCall(pkg, call, nr)
}

func terminatingCall(pkg *Package, call *ast.CallExpr, nr map[*types.Func]bool) bool {
	if fun, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && fun.Name == "panic" {
		if _, isBuiltin := pkg.Info.Uses[fun].(*types.Builtin); isBuiltin || pkg.Info.Uses[fun] == nil {
			return true
		}
	}
	callee := calleeFunc(pkg, call)
	if callee == nil {
		return false
	}
	if nr[callee] {
		return true
	}
	if callee.Pkg() == nil {
		return false
	}
	switch callee.Pkg().Path() {
	case "os":
		return callee.Name() == "Exit"
	case "log":
		switch callee.Name() {
		case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
			return true
		}
	case "runtime":
		return callee.Name() == "Goexit"
	}
	return false
}

// buildNoReturn summarizes which module functions never return: the
// body's last statement is a terminating call (directly, or to a
// function already in the set). One level of syntactic depth per
// fixpoint round is enough for the fatalf-style wrappers this catches.
func buildNoReturn(m *Module) map[*types.Func]bool {
	nr := map[*types.Func]bool{}
	for changed := true; changed; {
		changed = false
		for _, f := range m.Funcs {
			if nr[f.Obj] || len(f.Decl.Body.List) == 0 {
				continue
			}
			last := f.Decl.Body.List[len(f.Decl.Body.List)-1]
			if terminatingStmt(f.Pkg, last, nr) {
				nr[f.Obj] = true
				changed = true
			}
		}
	}
	return nr
}

// flowCtx is one flow-analysis context of a declared function: its own
// body, or the body of one function literal inside it. Literal bodies
// execute at call time, so each gets its own graph rather than edges
// in the enclosing one.
type flowCtx struct {
	body *ast.BlockStmt
	lit  *ast.FuncLit // nil for the declaration body
}

// flowContexts enumerates the declaration body and every function
// literal body inside it (nested literals included), in source order.
func flowContexts(decl *ast.FuncDecl) []flowCtx {
	out := []flowCtx{{body: decl.Body}}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			out = append(out, flowCtx{body: fl.Body, lit: fl})
		}
		return true
	})
	return out
}

// ---------------------------------------------------------------------
// Must-pass-to-exit (post-dominance style) query.

// mustPassToExit reports whether every path from just after node ord of
// block b to the function's exit passes a node satisfying sat. Paths
// that never return (infinite loops, panics, os.Exit) are vacuously
// satisfied: the obligation is "discharge before returning".
//
// sat is evaluated on owned nodes only — it sees defer statements as
// *ast.DeferStmt (a deferred discharge runs at return, so treating the
// defer site as the discharge point is conservative: it demands every
// path pass the defer statement itself).
func (c *cfg) mustPassToExit(b *cfgBlock, ord int, sat func(ast.Node) bool) bool {
	ok := c.solveMustPass(sat)
	for i := ord + 1; i < len(b.nodes); i++ {
		if sat(b.nodes[i]) {
			return true
		}
	}
	return c.succsOK(b, ok)
}

// succsOK evaluates the all-successors conjunction for the tail of a
// block: true when the block is terminating (no successors, not the
// exit) or every successor is satisfied from its entry.
func (c *cfg) succsOK(b *cfgBlock, ok []bool) bool {
	if b == c.exit {
		return false
	}
	if len(b.succs) == 0 {
		return true // terminating: never reaches return
	}
	for _, s := range b.succs {
		if !ok[s.idx] {
			return false
		}
	}
	return true
}

// solveMustPass computes, per block, whether every path from the
// block's entry to exit passes a satisfying node — the greatest
// fixpoint of ok[b] = contains(b) || AND over succ ok, with
// ok[exit] = false.
func (c *cfg) solveMustPass(sat func(ast.Node) bool) []bool {
	contains := make([]bool, len(c.blocks))
	for _, b := range c.blocks {
		for _, n := range b.nodes {
			if sat(n) {
				contains[b.idx] = true
				break
			}
		}
	}
	ok := make([]bool, len(c.blocks))
	for i := range ok {
		ok[i] = true
	}
	ok[c.exit.idx] = false
	for changed := true; changed; {
		changed = false
		for _, b := range c.blocks {
			if !ok[b.idx] || contains[b.idx] || b == c.exit {
				continue
			}
			if !c.succsOK(b, ok) {
				ok[b.idx] = false
				changed = true
			}
		}
	}
	return ok
}
