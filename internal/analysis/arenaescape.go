package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// ArenaEscape is the semantic upgrade of scratchleak: where scratchleak
// checks that a pooled value is *released* on every path, arenaescape
// checks that the value does not *outlive* the release. A scratch
// buffer that is Put back while a reference to it (or to anything
// reachable from it) has been stored into a package-level variable,
// sent on a channel, or returned to the caller will be recycled under a
// live alias — the next Get hands the same storage to someone else and
// the determinism guarantee dies in a way no syntactic rule can see.
//
// For every acquisition the scratchleak machinery recognizes
// (`x := getScratch()`, `x := pool.Get().(*T)`) that also has a textual
// release in the same function body, the rule takes the points-to set
// of the acquired variable and reports when any of its objects is
// reachable — through the solved field/element cells — from a
// package-level variable, from a channel payload, or from the
// function's return values. The reachability is interprocedural for
// free: Andersen's argument-to-parameter binding means a helper that
// stores its argument into a global taints the caller's acquisition
// with no extra fixpoint.
//
// Missing releases stay scratchleak's finding; this rule is silent on
// them so one defect yields one finding.
const arenaEscapeRule = "arenaescape"

var ArenaEscape = &Analyzer{
	Name: arenaEscapeRule,
	Doc: "flags pooled scratch/arena values whose points-to set escapes the " +
		"Get/Put extent (stored to a global, sent on a channel, or returned) " +
		"so a recycled object cannot live on under an alias",
	Run: runArenaEscape,
}

func runArenaEscape(pass *Pass) {
	mod := pass.Mod
	if mod == nil || mod.pts == nil {
		return
	}
	for _, f := range mod.funcsInPackage(pass.Pkg) {
		for _, fc := range flowContexts(f.Decl) {
			checkArenaCtx(pass, f, fc)
		}
	}
}

func checkArenaCtx(pass *Pass, f *ModFunc, fc flowCtx) {
	pa := pass.Mod.pts
	for _, acq := range findAcquisitions(pass, fc.body) {
		if !hasRelease(pass, fc.body, acq.obj) {
			continue // unreleased is scratchleak's finding, not ours
		}
		n, ok := pa.varNode[acq.obj]
		if !ok || n < 0 {
			continue
		}
		objs := pa.pointsToSet(pa.find(n))
		if len(objs) == 0 {
			continue
		}
		// Returned objects: anything reachable from this context's
		// result nodes.
		retObjs := map[int]bool{}
		for _, rn := range pa.retNodes[fc.body] {
			if rn < 0 {
				continue
			}
			for o := range pa.pointsToSet(pa.find(rn)) {
				retObjs[o] = true
			}
		}
		returned := pa.reachFrom(retObjs)

		kind := ""
		for o := range objs {
			// The pool's own storage cell points at the pooled object
			// by construction; escapes are judged on where *else* the
			// object is reachable from.
			switch {
			case pa.escapedGlobal[o]:
				kind = "is reachable from a package-level variable"
			case pa.escapedChan[o]:
				kind = "escapes through a channel send"
			case returned[o]:
				kind = "is reachable from this function's return value"
			default:
				continue
			}
			break
		}
		if kind == "" {
			continue
		}
		pass.Report(acq.stmt.Pos(), arenaEscapeRule, fmt.Sprintf(
			"%s obtained from %s %s while also being released: the pool will "+
				"recycle it under a live alias; copy the escaping data out or "+
				"drop the %s",
			acq.obj.Name(), acq.source, kind, acq.releaseHint))
	}
}

// hasRelease reports whether the body textually releases the
// acquisition object anywhere (path sensitivity is scratchleak's job).
func hasRelease(pass *Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	inspectSkippingFuncLits(body, func(n ast.Node) {
		if found {
			return
		}
		if call, ok := n.(*ast.CallExpr); ok && isReleaseCall(pass, call, obj) {
			found = true
		}
	})
	if found {
		return true
	}
	// defer put(x) appears as a DeferStmt whose call inspectSkipping
	// still visits; the walk above covers it. Also accept a release in
	// a deferred literal: `defer func() { put(x) }()`.
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if lit, ok := ast.Unparen(ds.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(inner ast.Node) bool {
				if call, ok := inner.(*ast.CallExpr); ok && isReleaseCall(pass, call, obj) {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
