package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc guards the allocation-lean DP hot path. PR 1 moved every
// per-solution allocation in the embedding engine into pooled
// solverScratch arenas; an innocent-looking make/append/closure
// re-introduced inside the wavefront loops silently costs the ~8x
// allocation win back. The rule flags, inside any loop of any
// function reachable from an embed-package Solve/SolveContext root
// (same package as the root — callees in other packages run once per
// call, not per DP pop):
//
//   - make / new calls;
//   - &T{...} and slice/map composite literals (plain struct *values*
//     are stack-friendly and exempt);
//   - function literals (closure allocation + captures escape);
//   - append whose destination is a fresh local — one whose
//     definitions are not derived from scratch storage, a parameter,
//     or the receiver. Appends into scratch-backed or caller-owned
//     slices amortize to zero and are exempt.
//
// The hot set comes from the module call graph, so an allocation in a
// helper two calls below SolveContext is still caught
// (interprocedural reachability, not lexical nesting).
const hotAllocRule = "hotalloc"

var HotAlloc = &Analyzer{
	Name: hotAllocRule,
	Doc: "flags per-iteration allocations (make/new/&T{}/slice+map literals/" +
		"closures/appends to fresh locals) inside loops of functions reachable " +
		"from embed Solve/SolveContext; hoist into solverScratch arenas or " +
		"pre-size outside the loop",
	Run: runHotAlloc,
}

// buildHotSet computes the functions reachable from the DP roots,
// restricted to the root's own package.
func buildHotSet(m *Module) map[*types.Func]bool {
	var roots []*types.Func
	rootPkgs := map[*types.Package]bool{}
	for _, f := range m.Funcs {
		if !strings.Contains(relPath(f.Pkg.Path), "embed") {
			continue
		}
		name := f.Obj.Name()
		if name == "Solve" || name == "SolveContext" {
			roots = append(roots, f.Obj)
			rootPkgs[f.Obj.Pkg()] = true
		}
	}
	hot := map[*types.Func]bool{}
	for fn := range m.cg.reachable(roots) {
		if rootPkgs[fn.Pkg()] {
			hot[fn] = true
		}
	}
	return hot
}

func runHotAlloc(pass *Pass) {
	mod := pass.Mod
	for _, f := range mod.funcsInPackage(pass.Pkg) {
		if !mod.hot[f.Obj] {
			continue
		}
		du := mod.defuse[f.Obj]
		checkHotFunc(pass, f, du)
	}
}

func checkHotFunc(pass *Pass, f *ModFunc, du *defUse) {
	var walk func(n ast.Node, depth int, loop ast.Node)
	report := func(pos ast.Node, what string) {
		pass.Report(pos.Pos(), hotAllocRule, fmt.Sprintf(
			"%s inside a loop of %s, on the DP hot path reachable from Solve; "+
				"hoist it into solverScratch or pre-size outside the loop",
			what, f.Obj.Name()))
	}
	walk = func(n ast.Node, depth int, loop ast.Node) {
		if n == nil {
			return
		}
		switch st := n.(type) {
		case *ast.ForStmt:
			walkChildren(st, func(c ast.Node) {
				if c == st.Body || c == st.Post {
					walk(c, depth+1, st)
				} else {
					walk(c, depth, loop)
				}
			})
			return
		case *ast.RangeStmt:
			walkChildren(st, func(c ast.Node) {
				if c == st.Body {
					walk(c, depth+1, st)
				} else {
					walk(c, depth, loop)
				}
			})
			return
		case *ast.FuncLit:
			if depth > 0 {
				report(st, "function literal (closure allocation)")
			}
			// Allocations inside the literal run on the same hot path.
			walk(st.Body, depth, loop)
			return
		case *ast.CallExpr:
			if depth > 0 {
				switch {
				case isBuiltin(pass, st.Fun, "make"):
					report(st, "make")
				case isBuiltin(pass, st.Fun, "new"):
					report(st, "new")
				case isBuiltin(pass, st.Fun, "append") && len(st.Args) > 0:
					if dst := freshLocalDest(pass, f, du, st.Args[0], loop); dst != "" {
						report(st, fmt.Sprintf("append to fresh local %s", dst))
					}
				}
			}
		case *ast.UnaryExpr:
			if depth > 0 && st.Op == token.AND {
				if _, ok := ast.Unparen(st.X).(*ast.CompositeLit); ok {
					report(st, "&composite literal (heap allocation)")
					walkChildren(st.X, func(c ast.Node) { walk(c, depth, loop) })
					return
				}
			}
		case *ast.CompositeLit:
			if depth > 0 {
				t := pass.TypeOf(st)
				if t != nil {
					switch t.Underlying().(type) {
					case *types.Slice, *types.Map:
						report(st, "slice/map composite literal")
					}
				}
			}
		}
		walkChildren(n, func(c ast.Node) { walk(c, depth, loop) })
	}
	walk(f.Decl.Body, 0, nil)
}

// freshLocalDest reports the name of the append destination when it
// is a fresh per-iteration local, or "" when the append target is
// exempt: scratch-typed storage, a parameter/receiver, a field, a
// local whose every definition derives from one of those (e.g.
// `out := in[:0]`, `branches := sc.stairBranch[:0]`), or a local
// pre-sized with a capacity make hoisted outside the enclosing loop
// (`all := make([]T, 0, n)` before the loop — appends amortize to
// zero there, which is exactly the fix this rule asks for).
func freshLocalDest(pass *Pass, f *ModFunc, du *defUse, dst ast.Expr, loop ast.Node) string {
	return freshDest(pass, f, du, dst, loop, 0)
}

func freshDest(pass *Pass, f *ModFunc, du *defUse, dst ast.Expr, loop ast.Node, depth int) string {
	if depth > 4 || scratchTyped(pass.Pkg, dst) {
		return ""
	}
	switch ex := ast.Unparen(dst).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		// Field / element / pointee storage: owned by a live structure,
		// not a per-iteration fresh slice.
		return ""
	case *ast.SliceExpr:
		return freshDest(pass, f, du, ex.X, loop, depth+1)
	case *ast.Ident:
		obj := pass.ObjectOf(ex)
		if obj == nil {
			return ""
		}
		if du == nil {
			return ex.Name
		}
		if du.params[obj] {
			return "" // caller-owned
		}
		recs := du.defs[obj]
		if len(recs) == 0 {
			// Captured outer local or package var: not per-iteration.
			return ""
		}
		for _, rec := range recs {
			if rec.opaque || rec.rng != nil {
				return ""
			}
			if rec.rhs == nil {
				continue
			}
			if selfAppend(pass, rec.rhs, obj) {
				continue
			}
			if hoistedPresizedMake(pass, rec.rhs, loop) {
				return ""
			}
			if freshDest(pass, f, du, rec.rhs, loop, depth+1) == "" {
				return ""
			}
		}
		return ex.Name
	case *ast.CallExpr:
		// append chains inherit their base's origin; conversions pass
		// through; other call results (make included) are fresh.
		if isBuiltin(pass, ex.Fun, "append") && len(ex.Args) > 0 {
			return freshDest(pass, f, du, ex.Args[0], loop, depth+1)
		}
		if tv, ok := pass.Pkg.Info.Types[ex.Fun]; ok && tv.IsType() && len(ex.Args) == 1 {
			return freshDest(pass, f, du, ex.Args[0], loop, depth+1)
		}
		return "fresh"
	}
	return "fresh"
}

// hoistedPresizedMake recognizes the pre-size idiom: a three-argument
// make (explicit capacity) lexically outside the innermost loop the
// append sits in. Appends into such a buffer amortize to zero — it is
// the very fix the rule's message recommends, so it must not itself
// be flagged. A make *inside* the loop still reports through the
// direct make check regardless of its argument count.
func hoistedPresizedMake(pass *Pass, rhs ast.Expr, loop ast.Node) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || !isBuiltin(pass, call.Fun, "make") || len(call.Args) != 3 {
		return false
	}
	if loop == nil {
		return true
	}
	return call.Pos() < loop.Pos() || call.Pos() >= loop.End()
}

// selfAppend recognizes `x = append(x, ...)` definitions, which say
// nothing about x's origin.
func selfAppend(pass *Pass, rhs ast.Expr, obj types.Object) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || !isBuiltin(pass, call.Fun, "append") || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && pass.ObjectOf(id) == obj
}

// walkChildren visits the immediate children of n.
func walkChildren(n ast.Node, visit func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			visit(c)
		}
		return false
	})
}
