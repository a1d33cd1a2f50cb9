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
	captured := func(obj types.Object) bool {
		if obj == nil || obj.Name() == "_" {
			return false
		}
		return obj.Pos() < w.lit.Pos() || obj.Pos() >= w.lit.End()
	}
	ast.Inspect(w.lit.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range st.Lhs {
				root := rootObject(pass, lhs)
				if !captured(root) {
					continue
				}
				if shardIndexed(pass, lhs, w.keys) {
					continue
				}
				pass.Report(lhs.Pos(), shardWriteRule, fmt.Sprintf(
					"worker shard writes captured %s via %s without a per-shard index; "+
						"index by the worker parameter, loop variable, or an atomic claim, or document disjointness with //replint:ignore",
					root.Name(), exprString(lhs)))
			}
		case *ast.IncDecStmt:
			root := rootObject(pass, st.X)
			if captured(root) && !shardIndexed(pass, st.X, w.keys) {
				pass.Report(st.X.Pos(), shardWriteRule, fmt.Sprintf(
					"worker shard mutates captured %s without a per-shard index", root.Name()))
			}
		case *ast.CallExpr:
			callee := calleeFunc(pass.Pkg, st)
			if callee == nil || mod.byObj[callee] == nil {
				return true
			}
			slots := mod.taint.writeParam[callee]
			if len(slots) == 0 {
				return true
			}
			if slots[-1] {
				if sel, ok := ast.Unparen(st.Fun).(*ast.SelectorExpr); ok {
					checkShardArg(pass, w, sel.X, callee, captured)
				}
			}
			for i, arg := range st.Args {
				if slots[i] {
					checkShardArg(pass, w, arg, callee, captured)
				}
			}
		}
		return true
	})
}

// checkShardArg flags a captured reference handed to a callee that
// writes through it, unless the argument expression itself is
// shard-indexed (`&outs[ci]` is fine — the callee writes only this
// worker's slot).
func checkShardArg(pass *Pass, w *shardWorker, arg ast.Expr, callee *types.Func, captured func(types.Object) bool) {
	root := rootObject(pass, deref(arg))
	if !captured(root) {
		return
	}
	if shardIndexed(pass, deref(arg), w.keys) {
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
