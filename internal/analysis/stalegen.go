package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// StaleGen enforces the generation-guard discipline on fields
// annotated //replint:guarded gen=<counter>: every write to a guarded
// field must be post-dominated by a bump of its counter before the
// mutating function returns. This is the invariant the incremental
// engine's caches live on — derived state (levelization, SPT trees,
// memoized frontiers) is only trusted while its build generation
// matches, so a mutation that escapes without advancing the counter is
// a stale-read bug waiting for the next cache hit.
//
// The check is flow-sensitive (the AST layer cannot see it): a bump in
// only one branch, or an early return between the write and the bump,
// is exactly what it exists to catch. Paths that never return (panic,
// os.Exit, noreturn wrappers) are vacuously fine, and a bump inside a
// defer counts on every path through the defer statement.
var StaleGen = &Analyzer{
	Name: "stalegen",
	Doc: "writes to //replint:guarded fields must be post-dominated by a bump " +
		"of their gen= counter before function exit; flags mutations of " +
		"generation-tracked cache state that can escape without invalidating readers",
	Run: runStaleGen,
}

func runStaleGen(pass *Pass) {
	mod := pass.Mod
	for _, gi := range mod.guardBad[pass.Pkg] {
		pass.Report(gi.pos, directiveRule, gi.msg)
	}
	if len(mod.guard) == 0 {
		return
	}
	for _, f := range mod.funcsInPackage(pass.Pkg) {
		for _, fc := range flowContexts(f.Decl) {
			checkStaleGen(pass, mod, fc)
		}
	}
}

// guardedWrite is one mutation of a guarded field found in a context.
type guardedWrite struct {
	pos   token.Pos
	field types.Object // the guarded field
	base  types.Object // object the field's struct is rooted at (receiver, local, ...)
}

func checkStaleGen(pass *Pass, mod *Module, fc flowCtx) {
	pkg := pass.Pkg
	c := mod.cfgOf(pkg, fc.body)
	for _, b := range c.blocks {
		for ord, n := range b.nodes {
			for _, w := range guardedWritesIn(mod, c, b, ord, n) {
				counter := mod.guard[w.field]
				if deferredBump(c, counter, w.base) {
					// A defer registered anywhere in this context bumps
					// the counter at return; the forward must-pass scan
					// cannot see a defer that precedes the write, so it
					// is credited here (over-approximate: a defer inside
					// a branch is trusted too).
					continue
				}
				sat := func(sn ast.Node) bool { return bumpsCounter(pkg, sn, counter, w.base) }
				if !c.mustPassToExit(b, ord, sat) && !bumpsCounter(pkg, n, counter, w.base) {
					pass.Report(w.pos, "stalegen",
						"write to guarded field "+w.field.Name()+" is not followed by a bump of "+
							counter.Name()+" on every path to return")
				}
			}
		}
	}
}

// deferredBump reports whether any defer statement of the context
// bumps the counter on the base — deferred bumps run at return
// regardless of where the defer sits relative to the write.
func deferredBump(c *cfg, counter, base types.Object) bool {
	for _, b := range c.blocks {
		for _, n := range b.nodes {
			if _, isDefer := n.(*ast.DeferStmt); isDefer && bumpsCounter(c.pkg, n, counter, base) {
				return true
			}
		}
	}
	return false
}

// guardedWritesIn extracts the guarded-field mutations of one owned
// node: assignments and ++/-- whose target is rooted in a guarded
// field, and builtin delete/clear on guarded storage. Writes into a
// freshly allocated struct (a local whose every reaching definition is
// &T{...}, T{...}, or new(T)) are construction, not mutation of
// visible cache state, and are exempt.
func guardedWritesIn(mod *Module, c *cfg, b *cfgBlock, ord int, n ast.Node) []guardedWrite {
	var out []guardedWrite
	add := func(target ast.Expr) {
		field, base := guardedTarget(mod, c, b, ord, target)
		if field == nil || base == nil {
			return
		}
		if freshlyAllocated(c, b, ord, base) {
			return
		}
		out = append(out, guardedWrite{pos: target.Pos(), field: field, base: base})
	}
	inspectOwned(n, func(inner ast.Node) bool {
		switch st := inner.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				add(lhs)
			}
		case *ast.IncDecStmt:
			add(st.X)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok &&
				(id.Name == "delete" || id.Name == "clear") && len(st.Args) >= 1 {
				if _, isBuiltin := c.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					add(st.Args[0])
				}
			}
		}
		return true
	})
	return out
}

// guardedTarget resolves a write target to the guarded field it
// mutates and the object the field's struct is rooted at. Two shapes
// count: a selector chain that passes through a guarded field
// (e.downT[u], e.spt.Parent — rooted at e), and a write through a
// local alias whose every reaching definition is rooted in the same
// guarded field (s := e.spt; s.Parent[u] = v).
func guardedTarget(mod *Module, c *cfg, b *cfgBlock, ord int, target ast.Expr) (field, base types.Object) {
	if f, bs := guardedChain(mod, c.pkg, target); f != nil {
		return f, bs
	}
	// Alias chase: the target digs into a local (selector or index on
	// it) whose value came from guarded storage.
	root := ast.Unparen(target)
	dug := false
	for {
		switch ex := root.(type) {
		case *ast.SelectorExpr:
			root, dug = ex.X, true
		case *ast.IndexExpr:
			root, dug = ex.X, true
		case *ast.StarExpr:
			root = ex.X
		case *ast.ParenExpr:
			root = ex.X
		default:
			goto resolved
		}
		root = ast.Unparen(root)
	}
resolved:
	id, ok := root.(*ast.Ident)
	if !ok || !dug {
		return nil, nil
	}
	obj := c.pkg.Info.ObjectOf(id)
	if obj == nil {
		return nil, nil
	}
	defs := c.defsReaching(b, ord, obj)
	if len(defs) == 0 {
		return nil, nil
	}
	for _, d := range defs {
		if d.rec.opaque || d.rec.rhs == nil {
			return nil, nil
		}
		f, bs := guardedChain(mod, c.pkg, d.rec.rhs)
		if f == nil || (field != nil && f != field) {
			return nil, nil
		}
		field, base = f, bs
	}
	return field, base
}

// guardedChain scans the selector chain of an expression for a guarded
// field; on a hit it returns the field and the chain's base object.
func guardedChain(mod *Module, pkg *Package, e ast.Expr) (field, base types.Object) {
	cur := ast.Unparen(deref(e))
	for {
		switch ex := cur.(type) {
		case *ast.SelectorExpr:
			if sel, ok := pkg.Info.Selections[ex]; ok && sel.Kind() == types.FieldVal {
				if obj := sel.Obj(); mod.guard[obj] != nil {
					return obj, syntacticBase(pkg, ex.X)
				}
			}
			cur = ast.Unparen(ex.X)
		case *ast.IndexExpr:
			cur = ast.Unparen(ex.X)
		case *ast.StarExpr:
			cur = ast.Unparen(ex.X)
		case *ast.SliceExpr:
			cur = ast.Unparen(ex.X)
		default:
			return nil, nil
		}
	}
}

// bumpsCounter reports whether a node assigns or increments the given
// counter field on the given base. Defer statements are inspected in
// full (a deferred bump runs at return, which is exactly the
// obligation), other nodes without descending into function literals.
func bumpsCounter(pkg *Package, n ast.Node, counter, base types.Object) bool {
	inspect := inspectOwned
	if _, isDefer := n.(*ast.DeferStmt); isDefer {
		inspect = func(n ast.Node, f func(ast.Node) bool) { ast.Inspect(n, f) }
	}
	found := false
	isBump := func(target ast.Expr) bool {
		if storageRoot(pkg, target) != counter {
			return false
		}
		sel, ok := ast.Unparen(target).(*ast.SelectorExpr)
		return ok && syntacticBase(pkg, sel.X) == base
	}
	inspect(n, func(inner ast.Node) bool {
		if found {
			return false
		}
		switch st := inner.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if isBump(lhs) {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if isBump(st.X) {
				found = true
			}
		}
		return true
	})
	return found
}

// freshlyAllocated reports whether every reaching definition of obj at
// the given point is a fresh allocation: &T{...}, T{...}, or new(T).
// Writes into such a value initialize state no reader has seen.
func freshlyAllocated(c *cfg, b *cfgBlock, ord int, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	defs := c.defsReaching(b, ord, obj)
	if len(defs) == 0 {
		return false
	}
	for _, d := range defs {
		if d.rec.opaque || d.rec.rhs == nil || !freshAllocExpr(c.pkg, d.rec.rhs) {
			return false
		}
	}
	return true
}

func freshAllocExpr(pkg *Package, e ast.Expr) bool {
	switch ex := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if ex.Op != token.AND {
			return false
		}
		_, isLit := ast.Unparen(ex.X).(*ast.CompositeLit)
		return isLit
	case *ast.CallExpr:
		if id, ok := ast.Unparen(ex.Fun).(*ast.Ident); ok && id.Name == "new" {
			_, isBuiltin := pkg.Info.Uses[id].(*types.Builtin)
			return isBuiltin
		}
	}
	return false
}
