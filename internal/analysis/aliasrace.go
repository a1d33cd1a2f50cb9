package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// AliasRace is the semantic sibling of sharedwrite/shardwrite: instead
// of asking "which captured *name* is written", it asks "which abstract
// *object* is reachable from two goroutines with at least one
// unsynchronized write" — so an aliased write through a second name,
// invisible to the syntactic rules, is still caught.
//
// For every function that launches goroutines (go statements resolved
// through the wgleak launch machinery: in-place literals, bound
// literals, declared callees), the rule takes each launched body's
// transitive heap-effect summary and intersects object sets across
// launch pairs. A pair races on object o when one side writes o and
// the other touches o, unless:
//
//   - either access is atomic (sync/atomic call argument);
//   - the accesses share a must-held lock (lockorder's forward solver);
//   - o is allocated inside either goroutine body or anything it calls
//     transitively (each instance allocates its own concrete object);
//   - o is the storage of a per-instance variable — a worker parameter,
//     a go1.22 per-iteration loop variable, or an atomic claim index;
//   - o's type synchronizes itself (channels, context, sync.*);
//   - both accesses are shard-keyed: a singleton object needs its
//     outermost index step keyed (distinct instances provably hit
//     distinct elements of the *same* object), a summary object is
//     discharged by any keyed step, and accesses reached through calls
//     accept the enclosing callee's parameters as keys (the caller
//     passing disjoint slices per worker is shardwrite's contract).
//
// The same launch site pairs with itself when it is multi-instance
// (launched in a loop, or one of several launches in the function).
const aliasRaceRule = "aliasrace"

var AliasRace = &Analyzer{
	Name: aliasRaceRule,
	Doc: "flags abstract heap objects reachable from two goroutines with at " +
		"least one unsynchronized, un-shard-keyed write (points-to based: " +
		"catches aliased writes through a second name that the syntactic " +
		"capture rules miss)",
	Run: runAliasRace,
}

func runAliasRace(pass *Pass) {
	mod := pass.Mod
	if mod == nil || mod.pts == nil || mod.heap == nil {
		return
	}
	for _, f := range mod.funcsInPackage(pass.Pkg) {
		checkAliasRaces(pass, f)
	}
}

// arLaunch is one resolved goroutine launch.
type arLaunch struct {
	gs    *ast.GoStmt
	body  *ast.BlockStmt
	pkg   *Package
	multi bool
	keys  map[types.Object]bool
	accs  []heapAccess
	// spans are the body spans of the launch's transitive call closure:
	// objects allocated inside them are fresh per instance.
	spans []posRange
}

func checkAliasRaces(pass *Pass, f *ModFunc) {
	mod := pass.Mod

	// Loop spans and their iteration variables, for multi-instance
	// classification and per-iteration shard keys.
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

	var launches []*arLaunch
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		body, bodyPkg, _ := launchBody(mod, pass.Pkg, f.Decl, gs)
		if body == nil {
			return true
		}
		l := &arLaunch{gs: gs, body: body, pkg: bodyPkg, keys: map[types.Object]bool{}}
		for _, li := range loops {
			if li.from <= gs.Pos() && gs.Pos() <= li.to {
				l.multi = true
				for o := range li.vars {
					l.keys[o] = true
				}
			}
		}
		if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok && lit.Body == body {
			for o := range paramObjects(pass, lit) {
				l.keys[o] = true
			}
			addAtomicClaimKeys(pass, lit, l.keys)
		} else if callee := calleeFunc(pass.Pkg, gs.Call); callee != nil {
			if mf := mod.byObj[callee]; mf != nil {
				recv, params := signatureObjects(mf)
				if recv != nil {
					l.keys[recv] = true
				}
				for _, p := range params {
					if p != nil {
						l.keys[p] = true
					}
				}
			}
		} else if lit := launchedLiteral(pass.Pkg, f.Decl, gs.Call); lit != nil {
			for o := range paramObjects(pass, lit) {
				l.keys[o] = true
			}
			addAtomicClaimKeys(pass, lit, l.keys)
		}
		l.accs = mod.heap.transAccesses(body)
		l.spans = mod.heap.transSpans(body)
		launches = append(launches, l)
		return true
	})
	if len(launches) == 0 {
		return
	}
	if len(launches) >= 2 {
		for _, l := range launches {
			l.multi = true
		}
	}

	reported := map[string]bool{}
	for i, a := range launches {
		for j := i; j < len(launches); j++ {
			b := launches[j]
			if i == j && !a.multi {
				continue
			}
			checkLaunchPair(pass, f, a, b, reported)
			if i != j {
				// checkLaunchPair pairs writes of its first launch against
				// accesses of its second; a race where only the later
				// launch writes needs the sides swapped.
				checkLaunchPair(pass, f, b, a, reported)
			}
		}
	}
}

// checkLaunchPair reports objects written by one launch and touched by
// the other without synchronization or shard discharge.
func checkLaunchPair(pass *Pass, f *ModFunc, a, b *arLaunch, reported map[string]bool) {
	mod := pass.Mod
	pa := mod.pts

	// Object → accesses, per side.
	index := func(l *arLaunch) map[int][]*heapAccess {
		m := map[int][]*heapAccess{}
		for i := range l.accs {
			acc := &l.accs[i]
			for _, o := range acc.objs {
				m[o] = append(m[o], acc)
			}
		}
		return m
	}
	am, bm := index(a), index(b)

	for o, aAccs := range am {
		bAccs := bm[o]
		if len(bAccs) == 0 {
			continue
		}
		obj := pa.objs[o]
		if objPerInstance(pa, obj, a) || objPerInstance(pa, obj, b) {
			continue
		}
		if obj.typ != nil && selfSyncHeapType(obj.typ) {
			continue
		}
		for _, wa := range aAccs {
			if !wa.write {
				continue
			}
			for _, ab := range bAccs {
				if a == b && wa == ab && !wa.write {
					continue
				}
				if wa.atomic || ab.atomic {
					continue
				}
				// Field-sensitive conflict: accesses of distinct named
				// fields touch disjoint storage; "" (element/pointee)
				// overlaps everything.
				if wa.field != ab.field && wa.field != "" && ab.field != "" {
					continue
				}
				if heldIntersect(wa.held, ab.held) {
					continue
				}
				if dischargedAccess(mod, wa, a, obj) && dischargedAccess(mod, ab, b, obj) {
					continue
				}
				reportAliasRace(pass, f, a, b, obj, wa, reported)
			}
		}
	}
}

// objPerInstance reports whether o is per-goroutine data for launch l:
// allocated inside the launched body or any function the launch calls
// transitively (each instance allocates its own concrete object at
// those sites), or the storage of one of the launch's per-instance
// variables (parameters, loop variables, claim indices).
func objPerInstance(pa *ptsFacts, o *ptObj, l *arLaunch) bool {
	if o.varObj != nil && l.keys[o.varObj] {
		return true
	}
	for _, sp := range l.spans {
		if sp.from <= o.pos && o.pos <= sp.to {
			return true
		}
	}
	return false
}

// selfSyncHeapType mirrors lockorder's selfSyncField on a bare type:
// channels, contexts, and the sync/sync-atomic types synchronize their
// own access.
func selfSyncHeapType(t types.Type) bool {
	if _, isChan := t.Underlying().(*types.Chan); isChan {
		return true
	}
	if isContextType(t) {
		return true
	}
	named, ok := t.(*types.Named)
	if !ok {
		if p, ok := t.(*types.Pointer); ok {
			return selfSyncHeapType(p.Elem())
		}
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil &&
		(obj.Pkg().Path() == "sync" || obj.Pkg().Path() == "sync/atomic")
}

func heldIntersect(a, b map[types.Object]bool) bool {
	for o := range a {
		if b[o] {
			return true
		}
	}
	return false
}

// dischargedAccess reports whether one access is shard-keyed for its
// launch: singleton objects need the outermost index step keyed (the
// instances provably hit distinct elements), summary objects accept any
// keyed step. Accesses reached through calls (outside the launched
// body) additionally accept the enclosing function's parameters as keys
// — the caller's per-worker slicing is shardwrite's contract to check.
func dischargedAccess(mod *Module, acc *heapAccess, l *arLaunch, obj *ptObj) bool {
	keys := l.keys
	if acc.pos < l.body.Pos() || acc.pos > l.body.End() {
		keys = map[types.Object]bool{}
		for o := range l.keys {
			keys[o] = true
		}
		if mf := mod.byObj[acc.owner]; mf != nil {
			recv, params := signatureObjects(mf)
			if recv != nil {
				keys[recv] = true
			}
			for _, p := range params {
				if p != nil {
					keys[p] = true
				}
			}
		}
	}
	outermost, any := keyedSteps(acc.pkg, acc.expr, keys)
	if obj.summary {
		return any
	}
	return outermost
}

// keyedSteps walks an access path, reporting whether the outermost
// index step mentions a key and whether any step does.
func keyedSteps(pkg *Package, e ast.Expr, keys map[types.Object]bool) (outermost, any bool) {
	first := true
	for {
		switch ex := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			hit := exprMentionsObjs(pkg, ex.Index, keys)
			if hit {
				any = true
				if first {
					outermost = true
				}
			}
			first = false
			e = ex.X
		case *ast.SelectorExpr:
			e = ex.X
		case *ast.StarExpr:
			e = ex.X
		case *ast.SliceExpr:
			e = ex.X
		default:
			return outermost, any
		}
	}
}

func exprMentionsObjs(pkg *Package, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			obj := pkg.Info.Uses[id]
			if obj == nil {
				obj = pkg.Info.Defs[id]
			}
			if obj != nil && objs[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

func reportAliasRace(pass *Pass, f *ModFunc, a, b *arLaunch, obj *ptObj, wa *heapAccess, reported map[string]bool) {
	// Report at the write when it lives in the pass package (so the
	// finding sits on the racing line); otherwise at the launch.
	pos := wa.pos
	if wa.pkg != pass.Pkg {
		pos = a.gs.Pos()
	}
	objLabel := obj.label
	if obj.kind != objGlobal && obj.kind != objExtern {
		p := obj.pkg.Fset.Position(obj.pos)
		objLabel = fmt.Sprintf("%s (allocated at line %d)", obj.label, p.Line)
	}
	key := fmt.Sprintf("%d|%d", obj.id, pos)
	if reported[key] {
		return
	}
	reported[key] = true
	la := pass.Pkg.Fset.Position(a.gs.Pos()).Line
	lb := pass.Pkg.Fset.Position(b.gs.Pos()).Line
	where := fmt.Sprintf("goroutines launched at lines %d and %d", la, lb)
	if a == b {
		where = fmt.Sprintf("instances of the goroutine launched at line %d", la)
	}
	pass.Report(pos, aliasRaceRule, fmt.Sprintf(
		"%s both reach %s with an unsynchronized write; guard with a shared "+
			"lock, use sync/atomic, shard by a per-instance key, or document "+
			"disjointness with //replint:ignore", where, objLabel))
}
