package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder enforces two mutex disciplines, both computed from a
// held-lock dataflow over the flow-sensitive CFG layer:
//
//  1. Consistent acquisition order: if one function acquires mutex B
//     while holding A and another acquires A while holding B, the pair
//     can deadlock. Re-acquiring a mutex already held is reported
//     outright. The order graph is module-wide; edges are keyed by the
//     mutexes' declaration objects (all instances of a field conflated,
//     which is the conservative direction for ordering).
//
//  2. Lock-guarded fields: within a struct that owns exactly one
//     mutex, any field written at least once while that mutex is held
//     is lock-guarded — every other plain read or write of it must
//     also hold the mutex. Channel, sync, atomic, and context-typed
//     fields synchronize themselves and are exempt; functions whose
//     name ends in "Locked" declare a held-by-caller contract;
//     accesses to freshly allocated structs are construction.
//     Fields touched with sync/atomic address-style calls
//     (atomic.AddUint64(&s.n, 1)) must never be accessed plainly.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "consistent mutex acquisition order, no re-acquisition while held, and " +
		"no plain access to fields elsewhere written under a lock or via atomics",
	Run: runLockOrder,
}

func runLockOrder(pass *Pass) {
	mod := pass.Mod
	lf := mod.locks
	for _, v := range lf.violations {
		if v.pkg == pass.Pkg {
			pass.Report(v.pos, "lockorder", v.msg)
		}
	}
}

// lockFactsData is the module-wide lock analysis result.
type lockFactsData struct {
	violations []lockViolation
}

type lockViolation struct {
	pkg *Package
	pos token.Pos
	msg string
}

// lockEdge is one observed acquisition ordering: second acquired while
// first was held, witnessed at pos.
type lockEdge struct {
	pkg *Package
	pos token.Pos
}

// fieldAccess is one plain access to a field of a single-mutex struct.
type fieldAccess struct {
	pkg       *Package
	pos       token.Pos
	field     types.Object
	mutex     types.Object // the struct's mutex field
	write     bool
	underLock bool
}

func buildLockFacts(m *Module) *lockFactsData {
	edges := map[[2]types.Object]lockEdge{}
	var accesses []fieldAccess
	atomicFields := map[types.Object]bool{}
	atomicWitness := map[types.Object]token.Pos{}

	for _, f := range m.Funcs {
		lockedContract := strings.HasSuffix(f.Obj.Name(), "Locked")
		for _, fc := range flowContexts(f.Decl) {
			scanLockContext(m, f.Pkg, fc, lockedContract && fc.lit == nil,
				edges, &accesses, atomicFields, atomicWitness)
		}
	}

	lf := &lockFactsData{}

	// Acquisition-order cycles. Self-edges are immediate re-acquisition
	// bugs; a reversed pair is a deadlock-capable inconsistency.
	type edgeKey struct{ a, b types.Object }
	reported := map[edgeKey]bool{}
	var keys [][2]types.Object
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return edges[keys[i]].pos < edges[keys[j]].pos })
	for _, k := range keys {
		e := edges[k]
		if k[0] == k[1] {
			lf.violations = append(lf.violations, lockViolation{pkg: e.pkg, pos: e.pos,
				msg: "mutex " + k[0].Name() + " acquired while already held"})
			continue
		}
		rev, ok := edges[[2]types.Object{k[1], k[0]}]
		if !ok || reported[edgeKey{k[0], k[1]}] {
			continue
		}
		reported[edgeKey{k[0], k[1]}] = true
		reported[edgeKey{k[1], k[0]}] = true
		for _, w := range []lockEdge{e, rev} {
			lf.violations = append(lf.violations, lockViolation{pkg: w.pkg, pos: w.pos,
				msg: "inconsistent lock order: " + k[0].Name() + " and " + k[1].Name() +
					" are acquired in both orders; pick one"})
		}
	}

	// Lock-guarded field discipline: guarded = written under lock at
	// least once, then every plain access must be under lock.
	lockGuarded := map[types.Object]bool{}
	for _, a := range accesses {
		if a.write && a.underLock {
			lockGuarded[a.field] = true
		}
	}
	for _, a := range accesses {
		if lockGuarded[a.field] && !a.underLock {
			verb := "read"
			if a.write {
				verb = "written"
			}
			lf.violations = append(lf.violations, lockViolation{pkg: a.pkg, pos: a.pos,
				msg: "field " + a.field.Name() + " is " + verb + " without holding " +
					a.mutex.Name() + ", which guards its other writes"})
		}
	}

	// Atomic/plain mixing: any plain selector access to a field that is
	// elsewhere touched through old-style sync/atomic calls.
	if len(atomicFields) > 0 {
		for _, f := range m.Funcs {
			collectPlainAtomicAccesses(f.Pkg, f.Decl.Body, atomicFields, func(pos token.Pos, field types.Object) {
				lf.violations = append(lf.violations, lockViolation{pkg: f.Pkg, pos: pos,
					msg: "field " + field.Name() + " is accessed plainly but elsewhere via sync/atomic"})
			})
		}
	}
	_ = atomicWitness

	sort.Slice(lf.violations, func(i, j int) bool { return lf.violations[i].pos < lf.violations[j].pos })
	return lf
}

// collectPlainAtomicAccesses finds selector accesses to atomic-set
// fields outside sync/atomic call arguments.
func collectPlainAtomicAccesses(pkg *Package, body *ast.BlockStmt, atomicFields map[types.Object]bool,
	report func(token.Pos, types.Object)) {
	// Selectors appearing inside a sync/atomic call are the sanctioned
	// form; collect their positions first.
	sanctioned := map[*ast.SelectorExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pkg, call)
		if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync/atomic" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if sel, ok := an.(*ast.SelectorExpr); ok {
					sanctioned[sel] = true
				}
				return true
			})
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sanctioned[sel] {
			return true
		}
		selection, ok := pkg.Info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		if atomicFields[selection.Obj()] {
			report(sel.Sel.Pos(), selection.Obj())
		}
		return true
	})
}

// scanLockContext runs the held-set dataflow over one context and
// collects order edges and field accesses.
func scanLockContext(m *Module, pkg *Package, fc flowCtx, lockedContract bool,
	edges map[[2]types.Object]lockEdge, accesses *[]fieldAccess,
	atomicFields map[types.Object]bool, atomicWitness map[types.Object]token.Pos) {

	c := m.cfgOf(pkg, fc.body)
	in := solveHeldSets(c)

	for _, b := range c.blocks {
		held := copySet(in[b])
		for ord, n := range b.nodes {
			// Record accesses with the held set at node entry, then
			// apply the node's lock transfers.
			collectFieldAccesses(m, c, pkg, b, ord, n, held, lockedContract, accesses)
			collectAtomicUses(pkg, n, atomicFields, atomicWitness)
			applyLockTransfers(pkg, n, held, func(first, second types.Object, pos token.Pos) {
				key := [2]types.Object{first, second}
				if _, ok := edges[key]; !ok {
					edges[key] = lockEdge{pkg: pkg, pos: pos}
				}
			})
		}
	}
}

// solveHeldSets computes the set of mutexes held at each block's entry
// — a forward must-analysis (intersection at joins), with the empty
// set at function entry.
func solveHeldSets(c *cfg) map[*cfgBlock]map[types.Object]bool {
	in := map[*cfgBlock]map[types.Object]bool{}
	out := map[*cfgBlock]map[types.Object]bool{}
	transfer := func(b *cfgBlock) map[types.Object]bool {
		held := copySet(in[b])
		for _, n := range b.nodes {
			applyLockTransfers(c.pkg, n, held, nil)
		}
		return held
	}
	in[c.entry] = map[types.Object]bool{}
	out[c.entry] = transfer(c.entry)
	for changed := true; changed; {
		changed = false
		for _, b := range c.blocks {
			if b == c.entry {
				continue
			}
			var merged map[types.Object]bool
			for _, p := range b.preds {
				po, ok := out[p]
				if !ok {
					continue // unvisited pred: top, ignore in the meet
				}
				if merged == nil {
					merged = copySet(po)
					continue
				}
				for o := range merged {
					if !po[o] {
						delete(merged, o)
					}
				}
			}
			if merged == nil {
				merged = map[types.Object]bool{}
			}
			if !sameSet(merged, in[b]) || out[b] == nil {
				in[b] = merged
				o := transfer(b)
				if !sameSet(o, out[b]) {
					out[b] = o
					changed = true
				}
			}
		}
	}
	return in
}

func copySet(s map[types.Object]bool) map[types.Object]bool {
	c := make(map[types.Object]bool, len(s))
	for k, v := range s {
		if v {
			c[k] = true
		}
	}
	return c
}

func sameSet(a, b map[types.Object]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// applyLockTransfers updates held with the Lock/Unlock calls of one
// owned node, in syntactic order. Deferred unlocks run at return, not
// here, so defer statements leave the set alone. onAcquire (may be
// nil) fires for each acquisition with the set held just before it.
func applyLockTransfers(pkg *Package, n ast.Node, held map[types.Object]bool,
	onAcquire func(first, second types.Object, pos token.Pos)) {
	if _, isDefer := n.(*ast.DeferStmt); isDefer {
		return
	}
	inspectOwned(n, func(inner ast.Node) bool {
		call, ok := inner.(*ast.CallExpr)
		if !ok {
			return true
		}
		typ, method, recv := syncCall(pkg, call)
		if typ != "Mutex" && typ != "RWMutex" {
			return true
		}
		mu := storageRoot(pkg, recv)
		if mu == nil {
			return true
		}
		switch method {
		case "Lock", "RLock":
			if onAcquire != nil {
				// Re-acquisition is reported for the exclusive form only:
				// nested RLocks are common and merely inadvisable.
				if held[mu] && method == "Lock" {
					onAcquire(mu, mu, call.Pos())
				}
				for h := range held {
					if h != mu {
						onAcquire(h, mu, call.Pos())
					}
				}
			}
			held[mu] = true
		case "Unlock", "RUnlock":
			delete(held, mu)
		}
		return true
	})
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

// collectFieldAccesses records every plain access to a field of a
// single-mutex struct within one owned node.
func collectFieldAccesses(m *Module, c *cfg, pkg *Package, b *cfgBlock, ord int, n ast.Node,
	held map[types.Object]bool, lockedContract bool, accesses *[]fieldAccess) {

	// Write targets of this node, so reads and writes are told apart.
	writeTargets := map[ast.Expr]bool{}
	inspectOwned(n, func(inner ast.Node) bool {
		switch st := inner.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				writeTargets[lhs] = true
			}
		case *ast.IncDecStmt:
			writeTargets[st.X] = true
		}
		return true
	})

	inspectOwned(n, func(inner ast.Node) bool {
		sel, ok := inner.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pkg.Info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		field := selection.Obj()
		mutex := m.soleMutexOf(ownerStruct(selection))
		if mutex == nil || field == mutex || selfSyncField(field) {
			return true
		}
		write := false
		for t := range writeTargets {
			if writeRoot(t) == sel {
				write = true
			}
		}
		under := lockedContract || held[mutex]
		if base := syntacticBase(pkg, sel.X); base != nil && freshlyAllocated(c, b, ord, base) {
			return true
		}
		*accesses = append(*accesses, fieldAccess{
			pkg: pkg, pos: sel.Sel.Pos(), field: field, mutex: mutex,
			write: write, underLock: under,
		})
		return true
	})
}

// writeRoot unwraps an assignment target down to the selector being
// written through (x.f, x.f[i], *x.f → x.f).
func writeRoot(e ast.Expr) ast.Expr {
	for {
		switch ex := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = ex.X
		case *ast.StarExpr:
			e = ex.X
		default:
			return ast.Unparen(e)
		}
	}
}

// ownerStruct returns the struct type a field selection reads from.
func ownerStruct(sel *types.Selection) *types.Struct {
	t := sel.Recv()
	for {
		switch tt := t.Underlying().(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Struct:
			return tt
		default:
			return nil
		}
	}
}

// soleMutexOf returns the struct's unique sync.Mutex/RWMutex field, or
// nil when it has zero or several (ordering between several mutexes of
// one struct is the order graph's job, not the guarded-field check's).
func (m *Module) soleMutexOf(st *types.Struct) types.Object {
	if st == nil {
		return nil
	}
	var found types.Object
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if isSyncType(f.Type(), "Mutex") || isSyncType(f.Type(), "RWMutex") {
			if found != nil {
				return nil
			}
			found = f
		}
	}
	return found
}

func isSyncType(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}

// selfSyncField reports whether a field's type synchronizes itself:
// channels, sync package types, sync/atomic types, and contexts need
// no lock to touch.
func selfSyncField(field types.Object) bool {
	t := field.Type()
	if _, isChan := t.Underlying().(*types.Chan); isChan {
		return true
	}
	if isContextType(t) {
		return true
	}
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
			continue
		case *types.Named:
			if p := tt.Obj().Pkg(); p != nil {
				switch p.Path() {
				case "sync", "sync/atomic":
					return true
				}
			}
		}
		return false
	}
}

// collectAtomicUses records fields passed by address to old-style
// sync/atomic functions.
func collectAtomicUses(pkg *Package, n ast.Node, atomicFields map[types.Object]bool, witness map[types.Object]token.Pos) {
	inspectOwned(n, func(inner ast.Node) bool {
		call, ok := inner.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pkg, call)
		if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync/atomic" {
			return true
		}
		if sig, ok := callee.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return true // method-style atomics are typed; no mixing possible
		}
		if len(call.Args) == 0 {
			return true
		}
		ue, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
		if !ok || ue.Op != token.AND {
			return true
		}
		if sel, ok := ast.Unparen(ue.X).(*ast.SelectorExpr); ok {
			if selection, ok := pkg.Info.Selections[sel]; ok && selection.Kind() == types.FieldVal {
				obj := selection.Obj()
				atomicFields[obj] = true
				if _, seen := witness[obj]; !seen {
					witness[obj] = call.Pos()
				}
			}
		}
		return true
	})
}
