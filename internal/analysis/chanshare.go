package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
)

// ChanShare flags the handoff-that-wasn't: a value sent on a channel
// while the sender keeps writing through a retained alias. Sending a
// pointer is Go's ownership-transfer idiom — the receiver assumes the
// payload is quiescent. A sender that mutates the pointee after the
// send races the receiver without ever sharing a variable name, so the
// capture-based rules cannot see it; the points-to layer can.
//
// For every send statement, the rule takes the *singleton* abstract
// objects of the sent value (summary objects — allocated per loop
// iteration — are exactly the "fresh value each send" pattern and are
// excluded) and reports:
//
//   - direct writes in the same flow context — or in a non-launched
//     nested literal of it, e.g. a defer — textually after the send,
//     that reach one of the sent objects with no lock held and no
//     atomic — the sender mutating what it just handed off;
//   - calls after the send that pass an alias of a sent object to a
//     module function whose transitive heap summary writes it.
//
// Textual "after the send" is the flow-insensitive approximation: a
// write before the send in the same loop body is re-ordered with the
// send across iterations, but that pattern re-allocates per iteration
// in practice (a summary object) and is excluded by the singleton
// filter.
const chanShareRule = "chanshare"

var ChanShare = &Analyzer{
	Name: chanShareRule,
	Doc: "flags values sent on a channel while the sender retains a written " +
		"alias (send-then-mutate races the receiver without any shared " +
		"variable name); hand off ownership or send a copy",
	Run: runChanShare,
}

func runChanShare(pass *Pass) {
	mod := pass.Mod
	if mod == nil || mod.pts == nil || mod.heap == nil {
		return
	}
	for _, f := range mod.funcsInPackage(pass.Pkg) {
		for _, fc := range flowContexts(f.Decl) {
			checkChanShareCtx(pass, f, fc)
		}
	}
}

func checkChanShareCtx(pass *Pass, f *ModFunc, fc flowCtx) {
	mod := pass.Mod
	pa := mod.pts

	var sends []*ast.SendStmt
	inspectOwnedBody(fc.body, func(n ast.Node) {
		if st, ok := n.(*ast.SendStmt); ok {
			sends = append(sends, st)
		}
	})
	if len(sends) == 0 {
		return
	}

	reported := map[string]bool{}
	for _, send := range sends {
		sent := map[int]bool{}
		for _, o := range pa.objectsOf(ast.Unparen(send.Value)) {
			obj := pa.objs[o]
			if obj.summary {
				continue // fresh per iteration: the healthy pattern
			}
			if obj.typ != nil && selfSyncHeapType(obj.typ) {
				continue
			}
			sent[o] = true
		}
		if len(sent) == 0 {
			continue
		}

		// Direct writes after the send in this context — including its
		// non-launched nested literals (a deferred func(){ p.x = 1 }()
		// after the send still mutates on the sender's goroutine).
		for _, acc := range mod.heap.ownAccesses(fc.body) {
			if !acc.write || acc.atomic || len(acc.held) > 0 {
				continue
			}
			if acc.pos <= send.End() {
				continue
			}
			for _, o := range acc.objs {
				if !sent[o] {
					continue
				}
				reportChanShare(pass, send, acc.pos, pa.objs[o],
					"the sender writes it afterwards", reported)
			}
		}

		// Calls after the send handing an alias to a writing callee.
		inspectOwnedBody(fc.body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok || call.Pos() <= send.End() {
				return
			}
			callee := calleeFunc(pass.Pkg, call)
			if callee == nil {
				return
			}
			mf := mod.byObj[callee]
			if mf == nil {
				return
			}
			// Does any argument (or the receiver) alias a sent object?
			aliased := map[int]bool{}
			checkArg := func(arg ast.Expr) {
				for _, o := range pa.objectsOf(ast.Unparen(arg)) {
					if sent[o] {
						aliased[o] = true
					}
				}
			}
			for _, arg := range call.Args {
				checkArg(arg)
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				checkArg(sel.X)
			}
			if len(aliased) == 0 {
				return
			}
			for _, acc := range mod.heap.transAccesses(mf.Decl.Body) {
				if !acc.write || acc.atomic {
					continue
				}
				for _, o := range acc.objs {
					if aliased[o] {
						reportChanShare(pass, send, call.Pos(), pa.objs[o],
							fmt.Sprintf("%s writes through a retained alias", callee.Name()), reported)
					}
				}
			}
		})
	}
}

// inspectOwnedBody visits the context body without descending into
// nested function literals (those are their own flow contexts).
func inspectOwnedBody(body *ast.BlockStmt, f func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n != body {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
		}
		f(n)
		return true
	})
}

func reportChanShare(pass *Pass, send *ast.SendStmt, at token.Pos, obj *ptObj, how string, reported map[string]bool) {
	key := fmt.Sprintf("%d|%d|%d", send.Pos(), at, obj.id)
	if reported[key] {
		return
	}
	reported[key] = true
	line := pass.Pkg.Fset.Position(send.Pos()).Line
	pass.Report(at, chanShareRule, fmt.Sprintf(
		"%s was sent on a channel at line %d but %s: the receiver races the "+
			"mutation; send a copy or stop writing after the handoff",
		obj.label, line, how))
}
