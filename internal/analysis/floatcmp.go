package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FloatCmp flags exact equality on floating-point cost/delay values:
// `==`, `!=`, and `switch` on a float expression. Accumulated float64
// costs differ in the last bits depending on summation order, so exact
// equality silently turns into "equal only on the path the serial code
// happened to take" — the root cause of epsilon-less comparisons
// breaking the parallel determinism contract.
//
// Exemptions:
//
//   - functions designated with a //replint:floatcmp-helper doc
//     directive — the codebase's blessed exact-compare helpers
//     (dominance tests and heap orderings, where *bitwise* equality is
//     the semantics: both sides derive from identical operation
//     sequences and the compare is a deterministic tie-break);
//   - comparisons against an infinity sentinel (math.Inf(...) calls or
//     identifiers containing "Inf"), which are exact by construction;
//   - comparisons where both operands are compile-time constants;
//   - comparisons inside a function literal passed directly to a sort
//     or slices call: a comparator must induce a strict weak ordering,
//     and an epsilon tie there would break transitivity — exact
//     comparison is the only correct choice in that position.
//
// A zero-means-unset compare on a config field (`if s.Scale == 0`) is
// exact by construction too, but the rule cannot tell it from a cost
// that happens to sum to 0: each one carries a //replint:ignore with
// its reason.
const floatCmpRule = "floatcmp"

var FloatCmp = &Analyzer{
	Name: floatCmpRule,
	Doc: "flags ==/!=/switch on float64 expressions outside designated " +
		"//replint:floatcmp-helper functions; use an epsilon compare, or " +
		"designate the function if bitwise equality is the intended semantics",
	Run: runFloatCmp,
}

func runFloatCmp(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		// Collect designated-helper body ranges first.
		var helpers []*ast.FuncDecl
		for _, d := range file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && isHelperFunc(fn) {
				helpers = append(helpers, fn)
			}
		}
		inHelper := func(pos token.Pos) bool {
			for _, h := range helpers {
				if h.Body != nil && h.Body.Pos() <= pos && pos <= h.Body.End() {
					return true
				}
			}
			return false
		}
		// Function literals handed straight to sort/slices: exact
		// comparison is mandatory there, not a hazard.
		var comparators [][2]token.Pos
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSortCall(call) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					comparators = append(comparators, [2]token.Pos{lit.Pos(), lit.End()})
				}
			}
			return true
		})
		inComparator := func(pos token.Pos) bool {
			for _, r := range comparators {
				if r[0] <= pos && pos <= r[1] {
					return true
				}
			}
			return false
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch ex := n.(type) {
			case *ast.BinaryExpr:
				if ex.Op != token.EQL && ex.Op != token.NEQ {
					return true
				}
				if !isFloat(pass.Pkg.typeOf(ex.X)) && !isFloat(pass.Pkg.typeOf(ex.Y)) {
					return true
				}
				if inHelper(ex.Pos()) || inComparator(ex.Pos()) || isInfSentinel(ex.X) || isInfSentinel(ex.Y) {
					return true
				}
				if isConstExpr(pass, ex.X) && isConstExpr(pass, ex.Y) {
					return true
				}
				pass.Report(ex.OpPos, floatCmpRule, fmt.Sprintf(
					"exact %s on float operands %s and %s; compare with an epsilon or designate the enclosing function //replint:floatcmp-helper",
					ex.Op, exprString(ex.X), exprString(ex.Y)))
			case *ast.SwitchStmt:
				if ex.Tag == nil || !isFloat(pass.Pkg.typeOf(ex.Tag)) {
					return true
				}
				if inHelper(ex.Pos()) {
					return true
				}
				pass.Report(ex.Switch, floatCmpRule, fmt.Sprintf(
					"switch on float expression %s compares cases exactly; use if/else with epsilon compares",
					exprString(ex.Tag)))
			}
			return true
		})
	}
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isInfSentinel recognizes ±Inf sentinels: math.Inf calls and
// identifiers whose name advertises an infinity (negInf, posInf, ...).
func isInfSentinel(e ast.Expr) bool {
	switch ex := e.(type) {
	case *ast.Ident:
		return strings.Contains(strings.ToLower(ex.Name), "inf")
	case *ast.CallExpr:
		if sel, ok := ex.Fun.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok {
				return pkg.Name == "math" && sel.Sel.Name == "Inf"
			}
		}
	case *ast.UnaryExpr:
		return isInfSentinel(ex.X)
	case *ast.ParenExpr:
		return isInfSentinel(ex.X)
	}
	return false
}

func isSortCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	return pkg.Name == "sort" || pkg.Name == "slices"
}

func isConstExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[e]
	return ok && tv.Value != nil
}
