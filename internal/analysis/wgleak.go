package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WGLeak checks goroutine launches for a join or cancellation
// discipline, combining the callgraph and polls summaries with the
// flow-sensitive must-pass query:
//
//   - wg.Add inside the launched goroutine races the launcher's Wait
//     and is reported outright; Add belongs before `go`.
//   - A goroutine that calls wg.Done needs a matching Add in the
//     launcher before the launch, the Done should be deferred (a panic
//     between launch and a trailing Done leaks the count), and — for a
//     WaitGroup local to the launcher — Wait must post-dominate the
//     launch: an early return between `go` and `Wait` leaks the
//     goroutine. Field-held WaitGroups are joined elsewhere
//     (Shutdown-style), so only the pairing is required.
//   - A goroutine with no WaitGroup needs another reason to terminate:
//     it polls cancellation (the ctxstride polls summary, transitive
//     through calls), drains a channel (range over one), or signals a
//     channel the launcher consumes (send/close of a channel the
//     launcher receives from — the done-channel idiom).
//
// Anything else can outlive every path that launched it and is
// reported at the go statement.
var WGLeak = &Analyzer{
	Name: "wgleak",
	Doc: "goroutines must be joined or cancellable: WaitGroup Add/Done/Wait " +
		"pairing across launcher and goroutine (Wait must post-dominate the " +
		"launch for locals), or cancellation polling, or a done-channel the " +
		"launcher consumes",
	Run: runWGLeak,
}

func runWGLeak(pass *Pass) {
	mod := pass.Mod
	for _, f := range mod.funcsInPackage(pass.Pkg) {
		for _, fc := range flowContexts(f.Decl) {
			checkWGLeak(pass, mod, f, fc)
		}
	}
}

func checkWGLeak(pass *Pass, mod *Module, f *ModFunc, fc flowCtx) {
	pkg := pass.Pkg
	c := mod.cfgOf(pkg, fc.body)
	for _, b := range c.blocks {
		for ord, n := range b.nodes {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				continue
			}
			checkLaunch(pass, mod, f, fc, c, b, ord, gs)
		}
	}
}

// launchBody resolves what a go statement runs: a function literal
// (written in place or bound to a single-definition local) or the body
// of a declared function/method via the callgraph. argOf maps a callee
// parameter object back to the caller-side argument expression; nil
// when unresolvable.
func launchBody(mod *Module, pkg *Package, decl *ast.FuncDecl, gs *ast.GoStmt) (body *ast.BlockStmt, bodyPkg *Package, argOf func(types.Object) ast.Expr) {
	if lit := launchedLiteral(pkg, decl, gs.Call); lit != nil {
		params := map[types.Object]ast.Expr{}
		if lit.Type.Params != nil {
			i := 0
			for _, fl := range lit.Type.Params.List {
				for _, name := range fl.Names {
					if obj := pkg.Info.Defs[name]; obj != nil && i < len(gs.Call.Args) {
						params[obj] = gs.Call.Args[i]
					}
					i++
				}
			}
		}
		return lit.Body, pkg, func(o types.Object) ast.Expr { return params[o] }
	}
	callee := calleeFunc(pkg, gs.Call)
	if callee == nil {
		return nil, nil, nil
	}
	mf := mod.FuncOf(callee)
	if mf == nil {
		return nil, nil, nil
	}
	params := paramObjects(mf)
	argmap := map[types.Object]ast.Expr{}
	for i, p := range params {
		if p != nil && i < len(gs.Call.Args) {
			argmap[p] = gs.Call.Args[i]
		}
	}
	return mf.Decl.Body, mf.Pkg, func(o types.Object) ast.Expr { return argmap[o] }
}

func checkLaunch(pass *Pass, mod *Module, f *ModFunc, fc flowCtx, c *cfg, b *cfgBlock, ord int, gs *ast.GoStmt) {
	pkg := pass.Pkg
	body, bodyPkg, argOf := launchBody(mod, pkg, f.Decl, gs)
	if body == nil {
		return // function value or external: nothing to inspect
	}

	// WaitGroup usage inside the goroutine.
	var doneWG []types.Object // storage roots of wg.Done receivers
	doneDeferred := map[types.Object]bool{}
	addInside := false
	walkBody := func(visit func(inDefer bool, call *ast.CallExpr)) {
		var walk func(n ast.Node, inDefer bool)
		walk = func(n ast.Node, inDefer bool) {
			ast.Inspect(n, func(inner ast.Node) bool {
				switch st := inner.(type) {
				case *ast.DeferStmt:
					visit(true, st.Call)
					walk(st.Call.Fun, true)
					return false
				case *ast.CallExpr:
					visit(inDefer, st)
				}
				return true
			})
		}
		walk(body, false)
	}
	walkBody(func(inDefer bool, call *ast.CallExpr) {
		typ, method, recv := syncCall(bodyPkg, call)
		if typ != "WaitGroup" {
			return
		}
		wg := storageRoot(bodyPkg, recv)
		if wg == nil {
			return
		}
		switch method {
		case "Add":
			addInside = true
		case "Done":
			doneWG = append(doneWG, wg)
			if inDefer {
				doneDeferred[wg] = true
			}
		}
	})

	if addInside {
		pass.Report(gs.Pos(), "wgleak",
			"wg.Add inside the launched goroutine races the launcher's Wait; Add before the go statement")
	}

	if len(doneWG) > 0 {
		checkDonePairing(pass, mod, f, c, b, ord, gs, doneWG, doneDeferred, argOf)
		return
	}

	// No WaitGroup: the goroutine needs another termination story.
	if pollsInBody(mod, bodyPkg, body) {
		return
	}
	if rangesOverChannel(bodyPkg, body) {
		return
	}
	if joinedByChannel(pass, mod, f, fc, bodyPkg, body, argOf) {
		return
	}
	pass.Report(gs.Pos(), "wgleak",
		"goroutine has no join (WaitGroup/done channel) and never polls cancellation; it can outlive every caller")
}

// checkDonePairing validates the launcher side of a Done-calling
// goroutine: an Add before the launch, and for launcher-local
// WaitGroups a Wait post-dominating it.
func checkDonePairing(pass *Pass, mod *Module, f *ModFunc, c *cfg, b *cfgBlock, ord int, gs *ast.GoStmt,
	doneWG []types.Object, doneDeferred map[types.Object]bool, argOf func(types.Object) ast.Expr) {
	pkg := pass.Pkg
	for _, wg := range doneWG {
		if !doneDeferred[wg] {
			pass.Report(gs.Pos(), "wgleak",
				"wg.Done in the goroutine is not deferred; a panic before it would leak the Wait count")
		}
		// Map a callee-parameter WaitGroup back to the caller's argument.
		launcherWG := wg
		if arg := argOf(wg); arg != nil {
			launcherWG = storageRoot(pkg, deref(arg))
			if launcherWG == nil {
				continue
			}
		}
		if !launcherHasAdd(pkg, f.Decl.Body, gs, launcherWG) {
			pass.Report(gs.Pos(), "wgleak",
				"goroutine calls Done on a WaitGroup the launcher never Adds to before the launch")
			continue
		}
		if v, isVar := launcherWG.(*types.Var); isVar && !v.IsField() {
			waitSat := func(n ast.Node) bool { return callsWGMethod(pkg, n, launcherWG, "Wait") }
			if !c.mustPassToExit(b, ord, waitSat) {
				pass.Report(gs.Pos(), "wgleak",
					"Wait on the local WaitGroup does not post-dominate this launch; an early return leaks the goroutine")
			}
		}
	}
}

// launcherHasAdd reports whether the launcher's body calls Add on the
// same WaitGroup storage before the go statement's position.
func launcherHasAdd(pkg *Package, body *ast.BlockStmt, gs *ast.GoStmt, wg types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= gs.Pos() {
			return true
		}
		typ, method, recv := syncCall(pkg, call)
		if typ == "WaitGroup" && method == "Add" && storageRoot(pkg, recv) == wg {
			found = true
		}
		return true
	})
	return found
}

// callsWGMethod reports whether the node calls the given WaitGroup
// method on the given storage (defers included: a deferred Wait still
// joins).
func callsWGMethod(pkg *Package, n ast.Node, wg types.Object, method string) bool {
	found := false
	ast.Inspect(n, func(inner ast.Node) bool {
		if found {
			return false
		}
		if _, ok := inner.(*ast.FuncLit); ok {
			return false
		}
		call, ok := inner.(*ast.CallExpr)
		if !ok {
			return true
		}
		typ, meth, recv := syncCall(pkg, call)
		if typ == "WaitGroup" && meth == method && storageRoot(pkg, recv) == wg {
			found = true
		}
		return true
	})
	return found
}

// rangesOverChannel reports whether the body drains a channel with a
// range loop — the worker-pool shape, which terminates when the
// producer closes the channel.
func rangesOverChannel(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := pkg.typeOf(rs.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				found = true
			}
		}
		return true
	})
	return found
}

// joinedByChannel reports the done-channel idiom: the goroutine sends
// to or closes some channel, and the launcher receives from the same
// channel storage. Callee parameters are mapped back to launch-site
// arguments first.
func joinedByChannel(pass *Pass, mod *Module, f *ModFunc, fc flowCtx, bodyPkg *Package, body *ast.BlockStmt,
	argOf func(types.Object) ast.Expr) bool {
	pkg := pass.Pkg
	// Channels the goroutine signals on.
	var signaled []types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.SendStmt:
			if ch := storageRoot(bodyPkg, st.Chan); ch != nil {
				signaled = append(signaled, ch)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok && id.Name == "close" && len(st.Args) == 1 {
				if _, isBuiltin := bodyPkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					if ch := storageRoot(bodyPkg, st.Args[0]); ch != nil {
						signaled = append(signaled, ch)
					}
				}
			}
		}
		return true
	})
	if len(signaled) == 0 {
		return false
	}
	// Channels the launcher context receives from (<-ch, range ch, and
	// select comm clauses all surface as UnaryExpr or RangeStmt).
	received := map[types.Object]bool{}
	ast.Inspect(fc.body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.UnaryExpr:
			if st.Op == token.ARROW {
				if ch := storageRoot(pkg, st.X); ch != nil {
					received[ch] = true
				}
			}
		case *ast.RangeStmt:
			if t := pkg.typeOf(st.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					if ch := storageRoot(pkg, st.X); ch != nil {
						received[ch] = true
					}
				}
			}
		}
		return true
	})
	for _, ch := range signaled {
		launcherCh := ch
		if arg := argOf(ch); arg != nil {
			launcherCh = storageRoot(pkg, arg)
			if launcherCh == nil {
				continue
			}
		}
		if received[launcherCh] {
			return true
		}
	}
	return false
}

// syncCall identifies a method call on a type from package sync,
// returning the receiver type name, the method name, and the receiver
// expression; empty strings otherwise.
func syncCall(pkg *Package, call *ast.CallExpr) (typ, method string, recv ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", nil
	}
	f, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return "", "", nil
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", "", nil
	}
	rt := sig.Recv().Type()
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return "", "", nil
	}
	return named.Obj().Name(), f.Name(), sel.X
}

// launchedLiteral resolves `go f()` to a function literal: either
// written in place or bound to a local whose single definition is a
// literal.
func launchedLiteral(pkg *Package, decl *ast.FuncDecl, call *ast.CallExpr) *ast.FuncLit {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return fun
	case *ast.Ident:
		obj := pkg.Info.ObjectOf(fun)
		if obj == nil {
			return nil
		}
		var found *ast.FuncLit
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || pkg.Info.ObjectOf(id) != obj {
					continue
				}
				if lit, ok := as.Rhs[i].(*ast.FuncLit); ok {
					found = lit
				}
			}
			return true
		})
		return found
	}
	return nil
}

// paramObjects returns the parameter objects of a declared function,
// nil for an unnamed parameter.
func paramObjects(f *ModFunc) []types.Object {
	var params []types.Object
	if f.Decl.Type.Params != nil {
		for _, fl := range f.Decl.Type.Params.List {
			if len(fl.Names) == 0 {
				params = append(params, nil) // unnamed parameter
				continue
			}
			for _, name := range fl.Names {
				params = append(params, f.Pkg.Info.Defs[name])
			}
		}
	}
	return params
}

// deref unwraps a leading & so the storage root of `&x.f` is x.f.
func deref(e ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.AND {
		return u.X
	}
	return e
}

// storageRoot resolves an expression to the storage object its value
// lives in (or that a write through it lands in): an identifier's
// object, a selector's *field* object, a container for index
// expressions, the pointer variable for derefs. Returns nil for
// calls, literals, and anything else without stable storage.
func storageRoot(pkg *Package, e ast.Expr) types.Object {
	switch ex := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pkg.Info.ObjectOf(ex)
		if _, ok := obj.(*types.Var); ok {
			return obj
		}
		return nil
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[ex]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		// Qualified identifier (pkg.Var).
		if obj, ok := pkg.Info.Uses[ex.Sel].(*types.Var); ok {
			return obj
		}
		return nil
	case *ast.IndexExpr:
		return storageRoot(pkg, ex.X)
	case *ast.StarExpr:
		return storageRoot(pkg, ex.X)
	case *ast.TypeAssertExpr:
		return storageRoot(pkg, ex.X)
	case *ast.CallExpr:
		// Conversions pass the value through.
		if len(ex.Args) == 1 {
			if tv, ok := pkg.Info.Types[ex.Fun]; ok && tv.IsType() {
				return storageRoot(pkg, ex.Args[0])
			}
		}
		return nil
	}
	return nil
}
