package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// ShardWrite flags writes to captured state inside worker function
// literals: literals launched with `go`, handed to a worker-spawning
// callee (runLevel and friends), or bound to a variable that is later
// launched or handed. A worker that writes through a captured pointer,
// slice, map or variable races with its siblings, or with its
// launcher, unless the written locations are provably disjoint.
//
// The rule accepts a structural disjointness vocabulary of shard keys:
//
//   - the worker literal's own parameters (the partitioned-write
//     idiom: `a.Arr[id] = v` inside `func(id CellID) {...}` passed to
//     runLevel);
//   - the launching loop's iteration variables (each instance closes
//     over a distinct value since go1.22 per-iteration scoping);
//   - atomic claim indices: locals defined from an Add on a
//     sync/atomic counter (`ci := int(next.Add(1)) - 1`), the
//     claimed-slot idiom of the parallel join.
//
// A direct captured write with no shard-key index on its path is
// flagged. So is passing a captured reference to a module function
// that writes through that parameter (the writeParam summary) without
// a shard-key index in the argument: the write happens in the callee,
// the capture in the caller. Any other captured write needs an
// explicit //replint:ignore with the disjointness reasoning spelled
// out. Such a directive on a call covers every write in the callee,
// present and future, so its reason must hold for the whole callee.
const shardWriteRule = "shardwrite"

var ShardWrite = &Analyzer{
	Name: shardWriteRule,
	Doc: "flags writes to variables captured by worker goroutines without a " +
		"per-shard index (worker parameter, launching loop variable, or " +
		"atomic claim index), including writes that happen inside callees " +
		"the captured reference is passed to",
	Run: runShardWrite,
}

// workerCalleeRE matches the names of functions that fan a callback out
// across goroutines: a function literal passed to one of these runs
// concurrently even though no `go` keyword appears at the call site.
var workerCalleeRE = regexp.MustCompile(`^run(Level|Shard|Chunk|Span|Worker)s?$`)

func runShardWrite(pass *Pass) {
	mod := pass.Mod
	for _, f := range mod.funcsInPackage(pass.Pkg) {
		checkShardFunc(pass, f)
	}
}

// shardWorker is one worker literal with its shard-key objects.
type shardWorker struct {
	lit  *ast.FuncLit
	keys map[types.Object]bool
}

func checkShardFunc(pass *Pass, f *ModFunc) {
	for _, w := range collectShardWorkers(pass, f) {
		checkShardWorker(pass, w)
	}
}

// collectShardWorkers finds the worker literals in f: literals in a go
// statement, passed to a runX callee, or bound to a variable that is
// then launched or passed.
func collectShardWorkers(pass *Pass, f *ModFunc) []*shardWorker {
	// Loop ranges and their iteration variables.
	type loopInfo struct {
		from, to token.Pos
		vars     map[types.Object]bool
	}
	var loops []loopInfo
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ForStmt:
			vars := map[types.Object]bool{}
			if init, ok := st.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
				for _, lhs := range init.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := pass.Pkg.Info.Defs[id]; obj != nil {
							vars[obj] = true
						}
					}
				}
			}
			loops = append(loops, loopInfo{st.Pos(), st.End(), vars})
		case *ast.RangeStmt:
			vars := map[types.Object]bool{}
			for _, bind := range []ast.Expr{st.Key, st.Value} {
				if id, ok := bind.(*ast.Ident); ok {
					if obj := pass.Pkg.Info.Defs[id]; obj != nil {
						vars[obj] = true
					}
				}
			}
			loops = append(loops, loopInfo{st.Pos(), st.End(), vars})
		}
		return true
	})
	// Worker literals with their launch sites.
	type launch struct {
		lit *ast.FuncLit
		pos token.Pos
	}
	var launches []launch
	addLaunch := func(arg ast.Expr, at token.Pos) {
		switch a := ast.Unparen(arg).(type) {
		case *ast.FuncLit:
			launches = append(launches, launch{a, at})
		case *ast.Ident:
			// Bound literal: launch position is the use site.
			if lit := launchedLiteral(pass.Pkg, f.Decl, &ast.CallExpr{Fun: a}); lit != nil {
				launches = append(launches, launch{lit, at})
			}
		}
	}
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.GoStmt:
			addLaunch(st.Call.Fun, st.Pos())
		case *ast.CallExpr:
			name := ""
			switch fun := st.Fun.(type) {
			case *ast.Ident:
				name = fun.Name
			case *ast.SelectorExpr:
				name = fun.Sel.Name
			}
			if workerCalleeRE.MatchString(name) {
				for _, arg := range st.Args {
					addLaunch(arg, st.Pos())
				}
			}
		}
		return true
	})
	if len(launches) == 0 {
		return nil
	}
	var out []*shardWorker
	seen := map[*ast.FuncLit]bool{}
	for _, l := range launches {
		if seen[l.lit] {
			continue
		}
		seen[l.lit] = true
		keys := paramObjects(pass, l.lit)
		for _, lp := range loops {
			if lp.from <= l.pos && l.pos <= lp.to {
				for o := range lp.vars {
					keys[o] = true
				}
			}
		}
		addAtomicClaimKeys(pass, l.lit, keys)
		out = append(out, &shardWorker{lit: l.lit, keys: keys})
	}
	return out
}

// addAtomicClaimKeys adds locals defined inside the literal from an
// atomic Add (`ci := int(next.Add(1)) - 1`) to the shard keys.
func addAtomicClaimKeys(pass *Pass, lit *ast.FuncLit, keys map[types.Object]bool) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if !containsAtomicAdd(pass, as.Rhs[i]) {
				continue
			}
			if obj := pass.Pkg.Info.Defs[id]; obj != nil {
				keys[obj] = true
			}
		}
		return true
	})
}

func containsAtomicAdd(pass *Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" {
			return true
		}
		if callee := calleeFunc(pass.Pkg, call); callee != nil && callee.Pkg() != nil &&
			callee.Pkg().Path() == "sync/atomic" {
			found = true
		}
		return !found
	})
	return found
}

func checkShardWorker(pass *Pass, w *shardWorker) {
	mod := pass.Mod
	aliases := workerAliases(pass, w.lit)
	// target resolves a written expression to the captured variable it
	// reaches, and reports whether some index step on its path is a
	// shard key. A worker-local alias (`out := &outs[ci]`) stands for
	// its defining expression, so a write through it is judged on that
	// expression's root and index steps as well as its own.
	target := func(e ast.Expr) (types.Object, bool) {
		root := rootObject(pass, e)
		indexed := shardIndexed(pass, e, w.keys)
		if def, ok := aliases[root]; ok {
			root = rootObject(pass, def)
			indexed = indexed || shardIndexed(pass, def, w.keys)
		}
		if root == nil || root.Name() == "_" || (root.Pos() >= w.lit.Pos() && root.Pos() < w.lit.End()) {
			return nil, false
		}
		return root, indexed
	}
	ast.Inspect(w.lit.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range st.Lhs {
				root, indexed := target(lhs)
				if root == nil || indexed {
					continue
				}
				pass.Report(lhs.Pos(), shardWriteRule, fmt.Sprintf(
					"worker shard writes captured %s via %s without a per-shard index; "+
						"index by the worker parameter, loop variable, or an atomic claim, or document disjointness with //replint:ignore",
					root.Name(), exprString(lhs)))
			}
		case *ast.IncDecStmt:
			if root, indexed := target(st.X); root != nil && !indexed {
				pass.Report(st.X.Pos(), shardWriteRule, fmt.Sprintf(
					"worker shard mutates captured %s without a per-shard index", root.Name()))
			}
		case *ast.CallExpr:
			callee := calleeFunc(pass.Pkg, st)
			if callee == nil || mod.byObj[callee] == nil {
				return true
			}
			slots := mod.writeParam[callee]
			if len(slots) == 0 {
				return true
			}
			if slots[-1] {
				if sel, ok := ast.Unparen(st.Fun).(*ast.SelectorExpr); ok {
					checkShardArg(pass, sel.X, callee, target)
				}
			}
			for i, arg := range st.Args {
				if slots[i] {
					checkShardArg(pass, arg, callee, target)
				}
			}
		}
		return true
	})
}

// workerAliases maps each local the worker literal defines as `x := &p`,
// or as `x := p` when x is a pointer, slice, map or channel, to the
// storage path p (identifiers, selectors, index and slice steps and
// derefs; no calls). Writes through x reach p's storage.
func workerAliases(pass *Pass, lit *ast.FuncLit) map[types.Object]ast.Expr {
	out := map[types.Object]ast.Expr{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.Pkg.Info.Defs[id]
			if obj == nil {
				continue
			}
			rhs := ast.Unparen(as.Rhs[i])
			if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
				rhs = u.X
			} else if !referenceLike(obj.Type()) {
				continue
			}
			if syntacticBase(pass.Pkg, rhs) != nil {
				out[obj] = rhs
			}
		}
		return true
	})
	return out
}

// checkShardArg flags a captured reference handed to a callee that
// writes through it, unless the argument expression itself is
// shard-indexed (`&outs[ci]` is fine — the callee writes only this
// worker's slot).
func checkShardArg(pass *Pass, arg ast.Expr, callee *types.Func, target func(ast.Expr) (types.Object, bool)) {
	root, indexed := target(deref(arg))
	if root == nil || indexed {
		return
	}
	pass.Report(arg.Pos(), shardWriteRule, fmt.Sprintf(
		"worker shard passes captured %s to %s, which writes through it, without a per-shard index; "+
			"pass a per-shard slot or document disjointness with //replint:ignore",
		root.Name(), callee.Name()))
}

// shardIndexed reports whether some index step on the expression path
// mentions a shard key. One shard-keyed step suffices: the key already
// makes sibling instances' paths distinct.
func shardIndexed(pass *Pass, e ast.Expr, keys map[types.Object]bool) bool {
	for {
		switch ex := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			if exprMentionsAny(pass, ex.Index, keys) {
				return true
			}
			e = ex.X
		case *ast.SelectorExpr:
			e = ex.X
		case *ast.StarExpr:
			e = ex.X
		case *ast.SliceExpr:
			e = ex.X
		default:
			return false
		}
	}
}

func exprMentionsAny(pass *Pass, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.ObjectOf(id); obj != nil && objs[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// paramObjects returns the objects declared by the funcLit's parameters.
func paramObjects(pass *Pass, lit *ast.FuncLit) map[types.Object]bool {
	out := map[types.Object]bool{}
	if lit.Type == nil || lit.Type.Params == nil {
		return out
	}
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if obj := pass.ObjectOf(name); obj != nil {
				out[obj] = true
			}
		}
	}
	return out
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

// deref unwraps a leading & so the storage root of `&x.f` is x.f.
func deref(e ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.AND {
		return u.X
	}
	return e
}

func referenceLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}

// syntacticBase unwraps selectors, indexes, slices, derefs, and &
// down to the base identifier's object — the storage a *caller* would
// say the expression is rooted at. Unlike storageRoot it never
// resolves a selector to its field object, so the result is
// comparable against receiver/parameter objects.
func syntacticBase(pkg *Package, e ast.Expr) types.Object {
	for {
		switch ex := ast.Unparen(e).(type) {
		case *ast.Ident:
			return pkg.Info.ObjectOf(ex)
		case *ast.SelectorExpr:
			e = ex.X
		case *ast.IndexExpr:
			e = ex.X
		case *ast.SliceExpr:
			e = ex.X
		case *ast.StarExpr:
			e = ex.X
		case *ast.UnaryExpr:
			if ex.Op != token.AND {
				return nil
			}
			e = ex.X
		default:
			return nil
		}
	}
}

// signatureObjects returns the receiver object (nil for functions)
// and parameter objects of a declared function.
func signatureObjects(f *ModFunc) (types.Object, []types.Object) {
	var recv types.Object
	if f.Decl.Recv != nil {
		for _, fl := range f.Decl.Recv.List {
			for _, name := range fl.Names {
				recv = f.Pkg.Info.Defs[name]
			}
		}
	}
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
	return recv, params
}

// buildWriteParam computes, for every module function, the parameter
// slots it may write through; slot -1 is the receiver. A function
// writes through a slot when it assigns to a selector, index or deref
// rooted at that parameter, directly or through one reference-typed
// local alias of it (`ns := &r.sols[id]; ns.at[v] = ...`), or when it
// hands that parameter to a callee slot already in the summary. A
// bare rebind of the parameter is invisible to the caller and does not
// count. The summary is the least fixpoint over the module's functions.
func buildWriteParam(m *Module) map[*types.Func]map[int]bool {
	w := map[*types.Func]map[int]bool{}
	changed := true
	set := func(f *types.Func, slot int) {
		if w[f] == nil {
			w[f] = map[int]bool{}
		}
		if !w[f][slot] {
			w[f][slot] = true
			changed = true
		}
	}
	for pass := 0; pass < 40 && changed; pass++ {
		changed = false
		for _, f := range m.Funcs {
			ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range st.Lhs {
						if _, ok := ast.Unparen(lhs).(*ast.Ident); ok || storageRoot(f.Pkg, lhs) == nil {
							continue
						}
						if slot, ok := paramSlot(m, f, syntacticBase(f.Pkg, lhs)); ok {
							set(f.Obj, slot)
						}
					}
				case *ast.CallExpr:
					callee := calleeFunc(f.Pkg, st)
					mf := m.byObj[callee]
					if mf == nil {
						return true
					}
					lift := func(arg ast.Expr, slot int) {
						if !w[callee][slot] {
							return
						}
						if mine, ok := paramSlot(m, f, syntacticBase(f.Pkg, arg)); ok {
							set(f.Obj, mine)
						}
					}
					recv, params := signatureObjects(mf)
					if sel, ok := ast.Unparen(st.Fun).(*ast.SelectorExpr); ok && recv != nil {
						lift(sel.X, -1)
					}
					for i, arg := range st.Args {
						if i >= len(params) {
							// Variadic tail: the last parameter.
							if len(params) == 0 {
								break
							}
							i = len(params) - 1
						}
						if params[i] != nil {
							lift(arg, i)
						}
					}
				}
				return true
			})
		}
	}
	return w
}

// paramSlot classifies obj as one of f's parameter slots (-1 for the
// receiver), directly or through one local whose definition is a
// reference-typed expression rooted at the parameter; a value copy
// severs the link.
func paramSlot(m *Module, f *ModFunc, obj types.Object) (int, bool) {
	if obj == nil {
		return 0, false
	}
	recv, params := signatureObjects(f)
	classify := func(o types.Object) (int, bool) {
		if o == recv && recv != nil {
			return -1, true
		}
		for i, p := range params {
			if o == p && p != nil {
				return i, true
			}
		}
		return 0, false
	}
	if slot, ok := classify(obj); ok {
		return slot, true
	}
	du := m.defuse[f.Obj]
	if du == nil {
		return 0, false
	}
	for _, rec := range du.defs[obj] {
		if rec.rhs == nil || !referenceLike(f.Pkg.typeOf(rec.rhs)) {
			continue
		}
		if slot, ok := classify(syntacticBase(f.Pkg, rec.rhs)); ok {
			return slot, true
		}
	}
	return 0, false
}
