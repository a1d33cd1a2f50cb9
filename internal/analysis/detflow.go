package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetFlow reports nondeterminism-tainted values reaching a
// determinism sink. Sinks are the places where a scheduling- or
// clock-dependent value silently breaks the bit-exactness contract:
//
//   - construction of a result frontier (stores/appends into a field
//     named Frontier) and the canonical ordering/dominance helpers
//     (totalCmp, dominates) — the oracle compares these bitwise;
//   - JSON job output in the serve packages (json.Marshal /
//     Encoder.Encode) — clients replay and diff these;
//   - golden-file writers (os.WriteFile, functions named *Golden*) —
//     a tainted byte there makes the golden suite flap;
//   - transitively, any module function that forwards a parameter to
//     one of the above (the sinkParam summary).
//
// Taint sources, propagation, and the //replint:metadata escape hatch
// are described in taint.go.
const detFlowRule = "detflow"

var DetFlow = &Analyzer{
	Name: detFlowRule,
	Doc: "flags nondeterministic values (wall clock, global math/rand, map " +
		"iteration order, goroutine completion order, pointer formatting) " +
		"flowing into determinism sinks: frontier construction, totalCmp/" +
		"dominates, serve JSON output, golden-file writers; annotate " +
		"deliberately nondeterministic diagnostic fields //replint:metadata",
	Run: runDetFlow,
}

func runDetFlow(pass *Pass) {
	mod := pass.Mod
	t := mod.taint
	inServe := strings.Contains(relPath(pass.Pkg.Path), "serve")
	for _, f := range mod.funcsInPackage(pass.Pkg) {
		f := f
		reported := map[token.Pos]bool{}
		check := func(arg ast.Expr, sinkDesc string) {
			if reported[arg.Pos()] {
				return
			}
			// A sink fed straight from one of f's own sink-summarized
			// parameters reports at the tainted call sites instead —
			// that relocation is what the sinkParam summary is for.
			if slots := t.sinkParam[f.Obj]; len(slots) > 0 {
				base := syntacticBase(pass.Pkg, deref(arg))
				recvObj, params := signatureObjects(f)
				if base != nil && base == recvObj && slots[-1] {
					return
				}
				for i, p := range params {
					if base != nil && base == p && slots[i] {
						return
					}
				}
			}
			set := t.exprTaint(f, arg)
			set.mergeFrom(t.typeFieldTaint(pass.Pkg.typeOf(arg), nil))
			if len(set) == 0 {
				return
			}
			reported[arg.Pos()] = true
			pass.Report(arg.Pos(), detFlowRule, fmt.Sprintf(
				"%s value %s reaches %s; derive it deterministically or mark the carrying field //replint:metadata",
				set.describe(), exprString(arg), sinkDesc))
		}
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.CallExpr:
				checkCallSinks(pass, f, st, inServe, check)
			case *ast.AssignStmt:
				// Frontier field stores: r.Frontier = expr and
				// r.Frontier = append(r.Frontier, expr...).
				if len(st.Lhs) != len(st.Rhs) {
					return true
				}
				for i, lhs := range st.Lhs {
					if !isFrontierField(pass.Pkg, lhs) {
						continue
					}
					rhs := st.Rhs[i]
					if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltin(pass, call.Fun, "append") {
						for _, a := range call.Args[1:] {
							check(a, "the result frontier")
						}
						continue
					}
					if isFrontierField(pass.Pkg, rhs) {
						continue // self-move
					}
					check(rhs, "the result frontier")
				}
			}
			return true
		})
	}
}

func checkCallSinks(pass *Pass, f *ModFunc, call *ast.CallExpr, inServe bool, check func(ast.Expr, string)) {
	pkg := pass.Pkg
	callee := calleeFunc(pkg, call)
	if callee == nil {
		return
	}
	mod := pass.Mod
	if mod.byObj[callee] != nil {
		name := callee.Name()
		switch {
		case name == "totalCmp" || name == "dominates":
			for _, arg := range call.Args {
				check(arg, fmt.Sprintf("the canonical solution order (%s)", name))
			}
		case strings.Contains(name, "Golden"):
			for _, arg := range call.Args {
				check(arg, fmt.Sprintf("golden-file output (%s)", name))
			}
		}
		// Transitive sinks through the summary.
		if slots := mod.taint.sinkParam[callee]; len(slots) > 0 {
			if slots[-1] {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					check(sel.X, fmt.Sprintf("a determinism sink via %s", name))
				}
			}
			for i, arg := range call.Args {
				if slots[i] {
					check(arg, fmt.Sprintf("a determinism sink via %s", name))
				}
			}
		}
		return
	}
	// External sinks.
	if callee.Pkg() == nil {
		return
	}
	switch callee.Pkg().Path() {
	case "encoding/json":
		if !inServe {
			return
		}
		sig, _ := callee.Type().(*types.Signature)
		isMethod := sig != nil && sig.Recv() != nil
		switch {
		case !isMethod && (callee.Name() == "Marshal" || callee.Name() == "MarshalIndent"):
			if len(call.Args) > 0 {
				check(call.Args[0], "JSON job output (json.Marshal)")
			}
		case isMethod && callee.Name() == "Encode":
			if len(call.Args) > 0 {
				check(call.Args[0], "JSON job output (Encoder.Encode)")
			}
		}
	case "os":
		if callee.Name() == "WriteFile" && len(call.Args) >= 2 {
			check(call.Args[1], "golden-file output (os.WriteFile)")
		}
	}
}

// isFrontierField reports whether the expression is a selector of a
// field named Frontier.
func isFrontierField(pkg *Package, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Frontier" {
		return false
	}
	s, ok := pkg.Info.Selections[sel]
	return ok && s.Kind() == types.FieldVal
}

// registerSinkParams seeds the sinkParam summary from the primary
// sinks, so the taint fixpoint can propagate "forwards to a sink" up
// the call graph. Called from buildTaint's walk via transferCall is
// not enough — the seed has to come from the sink sites themselves.
func (t *taintFacts) seedSinkParams() {
	for _, f := range t.mod.Funcs {
		f := f
		pkg := f.Pkg
		inServe := strings.Contains(relPath(pkg.Path), "serve")
		recvObj, params := signatureObjects(f)
		classify := func(arg ast.Expr) (int, bool) {
			root := storageRoot(pkg, deref(arg))
			if root == nil {
				return 0, false
			}
			if root == recvObj {
				return -1, true
			}
			for i, p := range params {
				if root == p {
					return i, true
				}
			}
			return 0, false
		}
		seed := func(arg ast.Expr) {
			if slot, ok := classify(arg); ok {
				t.setSummary(t.sinkParam, f.Obj, slot)
			}
		}
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pkg, call)
			if callee == nil || callee.Pkg() == nil {
				return true
			}
			if t.mod.byObj[callee] != nil {
				name := callee.Name()
				if name == "totalCmp" || name == "dominates" || strings.Contains(name, "Golden") {
					for _, arg := range call.Args {
						seed(arg)
					}
				}
				return true
			}
			switch callee.Pkg().Path() {
			case "encoding/json":
				if !inServe {
					return true
				}
				sig, _ := callee.Type().(*types.Signature)
				isMethod := sig != nil && sig.Recv() != nil
				if (!isMethod && (callee.Name() == "Marshal" || callee.Name() == "MarshalIndent") || isMethod && callee.Name() == "Encode") && len(call.Args) > 0 {
					seed(call.Args[0])
				}
			case "os":
				if callee.Name() == "WriteFile" && len(call.Args) >= 2 {
					seed(call.Args[1])
				}
			}
			return true
		})
	}
}
