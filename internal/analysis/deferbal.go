package analysis

import (
	"go/ast"
	"go/types"
)

// DeferBal checks resource balance along every path to return:
//
//   - a mutex Lock/RLock must be matched by the corresponding
//     Unlock/RUnlock (same storage, same R-ness) on every path from the
//     acquisition to function exit — a deferred unlock satisfies this
//     everywhere, a manual unlock must cover each early return;
//   - a file obtained from os.Open/os.Create/os.OpenFile and kept in a
//     local must be closed on every path from its first use, unless it
//     escapes (returned, stored away, passed on, or captured), in which
//     case ownership moved and the obligation with it.
//
// The stride-cancel loops this repo favors (checking ctx.Err() every
// 512/1024/4096 iterations and returning early) are the motivating
// shape: the early return inside the stride check is exactly where a
// manual unlock or close gets missed, and only a path-sensitive check
// sees it.
var DeferBal = &Analyzer{
	Name: "deferbal",
	Doc: "locks and files must be released on every path to return: Lock/RLock " +
		"needs a matching Unlock/RUnlock post-dominating it, os.Open/Create " +
		"results need Close or an ownership escape; defer satisfies both",
	Run: runDeferBal,
}

func runDeferBal(pass *Pass) {
	mod := pass.Mod
	for _, f := range mod.funcsInPackage(pass.Pkg) {
		for _, fc := range flowContexts(f.Decl) {
			c := mod.cfgOf(pass.Pkg, fc.body)
			checkLockBalance(pass, c)
			checkFileBalance(pass, c, fc)
		}
	}
}

// unlockFor maps an acquisition method to the release that balances it.
var unlockFor = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

// checkLockBalance demands every Lock/RLock be post-dominated by its
// matching release. Deferred releases count: defer statements are owned
// CFG nodes and the satisfaction predicate inspects them in full.
func checkLockBalance(pass *Pass, c *cfg) {
	pkg := c.pkg
	for _, b := range c.blocks {
		for ord, n := range b.nodes {
			if _, isDefer := n.(*ast.DeferStmt); isDefer {
				continue // a deferred Lock (rare, and paired inside the defer) is not an acquisition here
			}
			inspectOwned(n, func(inner ast.Node) bool {
				call, ok := inner.(*ast.CallExpr)
				if !ok {
					return true
				}
				typ, method, recv := syncCall(pkg, call)
				release, acquires := unlockFor[method]
				if !acquires || (typ != "Mutex" && typ != "RWMutex") {
					return true
				}
				mu := storageRoot(pkg, recv)
				if mu == nil {
					return true
				}
				sat := func(sn ast.Node) bool { return releasesLock(pkg, sn, mu, release) }
				if !c.mustPassToExit(b, ord, sat) && !releaseAfter(pkg, n, call, mu, release) {
					pass.Report(call.Pos(), "deferbal",
						method+" is not balanced by "+release+" on every path to return")
				}
				return true
			})
		}
	}
}

// releasesLock reports whether the node calls the given release method
// on the same mutex storage. Defer statements are inspected in full —
// a deferred unlock runs at return, which is the obligation.
func releasesLock(pkg *Package, n ast.Node, mu types.Object, release string) bool {
	inspect := inspectOwned
	if _, isDefer := n.(*ast.DeferStmt); isDefer {
		inspect = func(n ast.Node, f func(ast.Node) bool) { ast.Inspect(n, f) }
	}
	found := false
	inspect(n, func(inner ast.Node) bool {
		if found {
			return false
		}
		call, ok := inner.(*ast.CallExpr)
		if !ok {
			return true
		}
		typ, method, recv := syncCall(pkg, call)
		if (typ == "Mutex" || typ == "RWMutex") && method == release && storageRoot(pkg, recv) == mu {
			found = true
		}
		return true
	})
	return found
}

// releaseAfter reports whether the node containing the acquisition
// also releases the lock at a later position (the Lock and Unlock
// sharing one owned statement).
func releaseAfter(pkg *Package, n ast.Node, lock *ast.CallExpr, mu types.Object, release string) bool {
	found := false
	inspectOwned(n, func(inner ast.Node) bool {
		if found {
			return false
		}
		call, ok := inner.(*ast.CallExpr)
		if !ok || call.Pos() <= lock.Pos() {
			return true
		}
		typ, method, recv := syncCall(pkg, call)
		if (typ == "Mutex" || typ == "RWMutex") && method == release && storageRoot(pkg, recv) == mu {
			found = true
		}
		return true
	})
	return found
}

// checkFileBalance tracks locals bound to os.Open/os.Create/os.OpenFile
// results. Ownership either escapes or the file must be closed on every
// path from its first use (the error-check branch between the open and
// the first use returns before the file is valid, so it carries no
// obligation).
func checkFileBalance(pass *Pass, c *cfg, fc flowCtx) {
	pkg := c.pkg
	for _, b := range c.blocks {
		for _, n := range b.nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				continue
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok || !osOpenCall(pkg, call) {
				continue
			}
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pkg.Info.ObjectOf(id)
			if obj == nil {
				continue
			}
			checkFileObligation(pass, c, fc, as, obj)
		}
	}
}

// osOpenCall matches calls to os.Open, os.Create, and os.OpenFile.
func osOpenCall(pkg *Package, call *ast.CallExpr) bool {
	f := calleeFunc(pkg, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "os" {
		return false
	}
	switch f.Name() {
	case "Open", "Create", "OpenFile":
		return true
	}
	return false
}

func checkFileObligation(pass *Pass, c *cfg, fc flowCtx, open *ast.AssignStmt, obj types.Object) {
	pkg := c.pkg
	if fileEscapes(pkg, fc.body, open, obj) {
		return
	}
	ub, uord, unode := firstUse(c, open, obj)
	if unode == nil {
		pass.Report(open.Pos(), "deferbal", obj.Name()+" is opened but never closed")
		return
	}
	sat := func(sn ast.Node) bool { return releasesFile(pkg, sn, obj) }
	if !c.mustPassToExit(ub, uord, sat) && !sat(unode) {
		pass.Report(open.Pos(), "deferbal",
			obj.Name()+" is not closed on every path to return after its first use")
	}
}

// fileEscapes reports whether ownership of the file leaves the
// function: returned, sent, stored into non-local storage or another
// variable, passed as a call argument, or captured by a function
// literal. Receiver position of Close does not count.
func fileEscapes(pkg *Package, body *ast.BlockStmt, open *ast.AssignStmt, obj types.Object) bool {
	isObj := func(e ast.Expr) bool { return storageRoot(pkg, e) == obj }
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		switch st := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				if isObj(r) {
					escapes = true
				}
			}
		case *ast.SendStmt:
			if isObj(st.Value) {
				escapes = true
			}
		case *ast.CallExpr:
			for _, a := range st.Args {
				if isObj(a) {
					escapes = true
				}
			}
		case *ast.AssignStmt:
			if st == open {
				return true
			}
			for _, r := range st.Rhs {
				if isObj(r) {
					escapes = true
				}
			}
		case *ast.CompositeLit:
			for _, e := range st.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if isObj(e) {
					escapes = true
				}
			}
		case *ast.FuncLit:
			ast.Inspect(st.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
					escapes = true
				}
				return !escapes
			})
			return false
		}
		return true
	})
	return escapes
}

// firstUse locates the CFG position of the earliest use of obj after
// the opening assignment (defer statements included — `defer f.Close()`
// is often the first and only use).
func firstUse(c *cfg, open *ast.AssignStmt, obj types.Object) (*cfgBlock, int, ast.Node) {
	var (
		bestB   *cfgBlock
		bestOrd int
		bestN   ast.Node
	)
	for _, b := range c.blocks {
		for ord, n := range b.nodes {
			if n == open {
				continue
			}
			uses := false
			walk := inspectOwned
			if _, isDefer := n.(*ast.DeferStmt); isDefer {
				walk = func(n ast.Node, f func(ast.Node) bool) { ast.Inspect(n, f) }
			}
			walk(n, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok && c.pkg.Info.Uses[id] == obj {
					uses = true
				}
				return !uses
			})
			if uses && (bestN == nil || n.Pos() < bestN.Pos()) {
				bestB, bestOrd, bestN = b, ord, n
			}
		}
	}
	return bestB, bestOrd, bestN
}

// releasesFile reports whether the node calls Close on the file
// storage; defer statements count in full.
func releasesFile(pkg *Package, n ast.Node, obj types.Object) bool {
	inspect := inspectOwned
	if _, isDefer := n.(*ast.DeferStmt); isDefer {
		inspect = func(n ast.Node, f func(ast.Node) bool) { ast.Inspect(n, f) }
	}
	found := false
	inspect(n, func(inner ast.Node) bool {
		if found {
			return false
		}
		call, ok := inner.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Close" {
			return true
		}
		if storageRoot(pkg, sel.X) == obj {
			found = true
		}
		return true
	})
	return found
}
