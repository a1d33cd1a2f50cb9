package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// defuse.go is the SSA-lite layer: an AST-level reaching-definitions
// table per function (every definition site of every local, with just
// enough classification to answer the questions the rules ask), plus
// the module-wide storage facts derived from it — most importantly
// "is this field/variable ever written by floating-point arithmetic",
// which powers the floatcmp zero-means-unset exemption.
//
// There is no CFG and no phi nodes: the table is flow-insensitive
// (all defs of an object, regardless of path). Every consumer asks
// universally quantified questions ("do ALL defs look like X") or
// existential ones ("does ANY def look like Y"), for which the
// flow-insensitive answer is the conservative one.

// defRecord classifies one definition site of a local object.
type defRecord struct {
	// rhs is the defining expression; nil for zero-value var decls and
	// opaque definitions.
	rhs ast.Expr
	// rng is set when the definition is a range-statement binding.
	rng *ast.RangeStmt
	// arith marks op-assign (+=, *=, ...) and ++/-- definitions.
	arith bool
	// opaque marks definitions the pass cannot see through: the
	// object's address was taken, so any callee may write it.
	opaque bool
}

// defUse is the per-function definitions table. Objects not present
// were never assigned in the body (parameters, receivers, captured
// outer locals).
type defUse struct {
	defs map[types.Object][]defRecord
	// params holds the function's parameters, receiver, and named
	// results — objects defined by the signature rather than a
	// statement.
	params map[types.Object]bool
}

func buildDefUse(pkg *Package, fn *ast.FuncDecl) *defUse {
	du := &defUse{defs: map[types.Object][]defRecord{}, params: map[types.Object]bool{}}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					du.params[obj] = true
				}
			}
		}
	}
	addFields(fn.Recv)
	addFields(fn.Type.Params)
	addFields(fn.Type.Results)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			// Literal params are definition-free locals of the
			// enclosing table; record them as params too.
			addFields(st.Type.Params)
			addFields(st.Type.Results)
		case *ast.AssignStmt:
			du.addAssign(pkg, st)
		case *ast.IncDecStmt:
			du.add(pkg, st.X, defRecord{arith: true})
		case *ast.RangeStmt:
			if st.Key != nil {
				du.add(pkg, st.Key, defRecord{rng: st})
			}
			if st.Value != nil {
				du.add(pkg, st.Value, defRecord{rng: st})
			}
		case *ast.GenDecl:
			if st.Tok != token.VAR {
				return true
			}
			for _, spec := range st.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var rhs ast.Expr
					if i < len(vs.Values) {
						rhs = vs.Values[i]
					} else if len(vs.Values) == 1 && len(vs.Names) > 1 {
						rhs = vs.Values[0]
					}
					// rhs == nil means a zero-value declaration —
					// recorded as a non-opaque nil-rhs def.
					du.add(pkg, name, defRecord{rhs: rhs})
				}
			}
		case *ast.UnaryExpr:
			if st.Op == token.AND {
				// Address taken: all bets off for this object.
				if id, ok := ast.Unparen(st.X).(*ast.Ident); ok {
					if obj := pkg.Info.ObjectOf(id); obj != nil {
						du.defs[obj] = append(du.defs[obj], defRecord{opaque: true})
					}
				}
			}
		}
		return true
	})
	return du
}

func (du *defUse) addAssign(pkg *Package, st *ast.AssignStmt) {
	switch {
	case st.Tok == token.ASSIGN || st.Tok == token.DEFINE:
		if len(st.Lhs) == len(st.Rhs) {
			for i, lhs := range st.Lhs {
				du.add(pkg, lhs, defRecord{rhs: st.Rhs[i]})
			}
			return
		}
		// Tuple assignment: every target is defined by the one rhs
		// (a call or map/chan/type-assert comma-ok).
		for _, lhs := range st.Lhs {
			du.add(pkg, lhs, defRecord{rhs: st.Rhs[0]})
		}
	default:
		// Op-assign. Shifts and bitwise ops count as arithmetic here:
		// the question consumers ask is "can this hold anything but
		// its original sentinel", and any op-assign can.
		du.add(pkg, st.Lhs[0], defRecord{rhs: st.Rhs[0], arith: true})
	}
}

// add records a definition when the target is a bare identifier
// denoting a local object. Writes through selectors/indices are
// storage-facts territory, not local defs.
func (du *defUse) add(pkg *Package, lhs ast.Expr, rec defRecord) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := pkg.Info.ObjectOf(id)
	if obj == nil {
		return
	}
	du.defs[obj] = append(du.defs[obj], rec)
}

// ---------------------------------------------------------------------
// Module-wide storage facts.

// storageFacts answers "may this storage location ever hold an
// arithmetic result" for fields, package vars, and locals, module
// wide. A storage location is a types.Object: struct fields are
// field-based (one fact per field declaration, all instances
// conflated), containers are conflated with their elements, pointers
// with their pointees — all in the conservative direction for the
// zero-means-unset exemption, which requires proving the absence of
// arithmetic writes.
type storageFacts struct {
	arith map[types.Object]bool
}

func buildStorageFacts(m *Module) *storageFacts {
	sf := &storageFacts{arith: map[types.Object]bool{}}
	// copyTo[src] = destinations that receive src's value verbatim.
	copyTo := map[types.Object][]types.Object{}
	addStore := func(pkg *Package, target types.Object, rhs ast.Expr) {
		if target == nil || rhs == nil {
			return
		}
		if arithExpr(pkg, rhs) {
			sf.arith[target] = true
			return
		}
		if src := storageRoot(pkg, rhs); src != nil && src != target {
			copyTo[src] = append(copyTo[src], target)
		}
		// Calls, literals, and constants are neutral: a JSON decode or
		// a flag.Float64Var writing a field does not make it
		// arithmetic-derived.
	}
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.AssignStmt:
					if st.Tok == token.ASSIGN || st.Tok == token.DEFINE {
						if len(st.Lhs) == len(st.Rhs) {
							for i, lhs := range st.Lhs {
								addStore(pkg, storageRoot(pkg, lhs), st.Rhs[i])
							}
						}
						// Tuple assigns come from calls — neutral.
						return true
					}
					if t := storageRoot(pkg, st.Lhs[0]); t != nil {
						sf.arith[t] = true
					}
				case *ast.IncDecStmt:
					if t := storageRoot(pkg, st.X); t != nil {
						sf.arith[t] = true
					}
				case *ast.ValueSpec:
					for i, name := range st.Names {
						if i < len(st.Values) {
							addStore(pkg, pkg.Info.Defs[name], st.Values[i])
						}
					}
				case *ast.CompositeLit:
					// Struct literals store into fields wherever the
					// literal ends up flowing.
					sf.addCompositeLit(pkg, st, addStore)
				}
				return true
			})
		}
	}
	// Propagate arith along copy edges to a fixpoint.
	work := make([]types.Object, 0, len(sf.arith))
	for o := range sf.arith {
		work = append(work, o)
	}
	for len(work) > 0 {
		src := work[len(work)-1]
		work = work[:len(work)-1]
		for _, dst := range copyTo[src] {
			if !sf.arith[dst] {
				sf.arith[dst] = true
				work = append(work, dst)
			}
		}
	}
	return sf
}

func (sf *storageFacts) addCompositeLit(pkg *Package, lit *ast.CompositeLit, addStore func(*Package, types.Object, ast.Expr)) {
	t := pkg.typeOf(lit)
	if t == nil {
		return
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				addStore(pkg, fieldByName(st, id.Name), kv.Value)
			}
			continue
		}
		if i < st.NumFields() {
			addStore(pkg, st.Field(i), elt)
		}
	}
}

func fieldByName(st *types.Struct, name string) types.Object {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return st.Field(i)
		}
	}
	return nil
}

// typeOf is Pass.TypeOf without a Pass.
func (pkg *Package) typeOf(e ast.Expr) types.Type {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := pkg.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
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

// arithExpr reports whether the expression computes a numeric
// arithmetic result anywhere inside it (+-*/% and shifts on numeric
// operands). String concatenation does not count.
func arithExpr(pkg *Package, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
			token.SHL, token.SHR, token.AND_NOT:
		default:
			return true
		}
		t := pkg.typeOf(be)
		if t == nil {
			// Unknown type: assume numeric — the safe direction for an
			// exemption that must prove absence of arithmetic.
			found = true
			return false
		}
		if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsNumeric != 0 {
			found = true
			return false
		}
		return true
	})
	return found
}

// ---------------------------------------------------------------------
// The floatcmp zero-means-unset exemption.

// zeroSentinelExempt reports whether comparing expr against literal 0
// is the zero-means-unset idiom: the compared storage is never
// written by arithmetic anywhere in the module, so 0 can only mean
// "still the zero value / explicitly configured 0", which is exact by
// construction.
//
// Fields and package vars qualify on the storage facts alone. Locals
// additionally need every reaching definition to be transparent: a
// copy from qualifying storage, a constant, or a zero-value decl —
// a call result or range binding disqualifies (the value's history
// left the function).
func zeroSentinelExempt(mod *Module, pkg *Package, fn *ast.FuncDecl, expr ast.Expr) bool {
	return storageZeroExempt(mod, pkg, fn, expr, 0)
}

func storageZeroExempt(mod *Module, pkg *Package, fn *ast.FuncDecl, expr ast.Expr, depth int) bool {
	if depth > 4 {
		return false
	}
	switch ex := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[ex]; ok && sel.Kind() == types.FieldVal {
			return !mod.facts.arith[sel.Obj()]
		}
		if obj, ok := pkg.Info.Uses[ex.Sel].(*types.Var); ok {
			return !mod.facts.arith[obj]
		}
		return false
	case *ast.Ident:
		obj := pkg.Info.ObjectOf(ex)
		v, ok := obj.(*types.Var)
		if !ok {
			return false
		}
		if mod.facts.arith[obj] {
			return false
		}
		if pkg.Types != nil && v.Parent() == pkg.Types.Scope() {
			return true // package-level var: facts suffice
		}
		// Local: every def must be transparent.
		if fn == nil {
			return false
		}
		var du *defUse
		if fnObj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
			du = mod.defuse[fnObj]
		}
		if du == nil {
			return false
		}
		if du.params[obj] {
			return false
		}
		recs := du.defs[obj]
		if len(recs) == 0 {
			return false
		}
		for _, rec := range recs {
			if rec.opaque || rec.arith || rec.rng != nil {
				return false
			}
			if rec.rhs == nil {
				continue // zero-value decl
			}
			if isConstRhs(pkg, rec.rhs) {
				continue
			}
			if !storageZeroExempt(mod, pkg, fn, rec.rhs, depth+1) {
				return false
			}
		}
		return true
	case *ast.IndexExpr:
		// Map/slice elements are conflated with the container only in
		// the arith direction; an element compare stays flagged.
		return false
	case *ast.CallExpr:
		if len(ex.Args) == 1 {
			if tv, ok := pkg.Info.Types[ex.Fun]; ok && tv.IsType() {
				return storageZeroExempt(mod, pkg, fn, ex.Args[0], depth+1)
			}
		}
		return false
	}
	return false
}

func isConstRhs(pkg *Package, e ast.Expr) bool {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Value != nil
	}
	return false
}
