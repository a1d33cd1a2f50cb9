package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// CtxStride enforces the cancellation-stride contract on
// context-aware code (SolveContext / AnalyzeContext / PlaceContext
// style): a loop whose trip count is not bounded by its own header —
// `for { ... }` and `for cond { ... }` — must poll cancellation
// somewhere in its body, directly (ctx.Err(), <-ctx.Done(), a select
// with a Done case) or through a callee that transitively polls (the
// cancelled() latch, a strided check helper). Counted and range loops
// are exempt: their trip count is fixed by data the caller already
// bounded, and the stride checks live at the level above them.
//
// A function is in scope when it can reach a context at all — a
// context.Context parameter, or a receiver whose struct carries a
// context field. Code without a context has no way to poll and is not
// blamed for it.
const ctxStrideRule = "ctxstride"

var CtxStride = &Analyzer{
	Name: ctxStrideRule,
	Doc: "flags condition-only and infinite loops in context-carrying code " +
		"that never poll cancellation (ctx.Err / ctx.Done / a polling " +
		"callee); add a strided check or bound the loop",
	Run: runCtxStride,
}

func runCtxStride(pass *Pass) {
	mod := pass.Mod
	for _, f := range mod.funcsInPackage(pass.Pkg) {
		if !hasCtxAccess(f) {
			continue
		}
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			// Counted loops (init+post headers) manage their own
			// bound; only header-unbounded shapes are in scope.
			if loop.Init != nil || loop.Post != nil {
				return true
			}
			if pollsInBody(mod, pass.Pkg, loop.Body) {
				return true
			}
			shape := "infinite"
			if loop.Cond != nil {
				shape = "condition-only"
			}
			pass.Report(loop.For, ctxStrideRule, fmt.Sprintf(
				"%s loop in context-carrying %s never polls cancellation; "+
					"check ctx every N iterations (see ctxCheckStride) or bound the loop",
				shape, f.Obj.Name()))
			return true
		})
	}
}

// hasCtxAccess reports whether the function can observe a context: a
// context.Context parameter or a receiver struct with a context
// field.
func hasCtxAccess(f *ModFunc) bool {
	sig, ok := f.Obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if isContextType(st.Field(i).Type()) {
					return true
				}
			}
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// pollsInBody reports whether the loop body polls cancellation:
// lexically (Err/Done on a context value) or through a module callee
// that transitively polls.
func pollsInBody(mod *Module, pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if (sel.Sel.Name == "Err" || sel.Sel.Name == "Done") && isContextType(pkg.typeOf(sel.X)) {
				found = true
				return false
			}
		}
		if callee := calleeFunc(pkg, call); callee != nil && mod.polls[callee] {
			found = true
			return false
		}
		return true
	})
	return found
}

// buildPollsSummary computes which module functions transitively poll
// cancellation: seeded by lexical Err/Done calls on a context value,
// propagated backwards over the call graph (a caller of a polling
// function polls).
func buildPollsSummary(m *Module) map[*types.Func]bool {
	polls := map[*types.Func]bool{}
	var work []*types.Func
	for _, f := range m.Funcs {
		seeded := false
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			if seeded {
				return false
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if (sel.Sel.Name == "Err" || sel.Sel.Name == "Done") && isContextType(f.Pkg.typeOf(sel.X)) {
				seeded = true
				return false
			}
			return true
		})
		if seeded {
			polls[f.Obj] = true
			work = append(work, f.Obj)
		}
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		for caller := range m.cg.callers[fn] {
			if !polls[caller] {
				polls[caller] = true
				work = append(work, caller)
			}
		}
	}
	return polls
}
