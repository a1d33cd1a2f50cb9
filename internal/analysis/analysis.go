// Package analysis is replint's stdlib-only static-analysis framework:
// a package loader built on go/parser + go/types (no go/packages, no
// external modules), a small Analyzer/Pass API, and the determinism and
// correctness rules this codebase enforces on itself.
//
// The parallel embedding engine and the levelized STA promise
// bit-identical results at any worker count. That contract is
// structural — it survives only as long as nothing iterates an
// unordered map into an ordered decision, compares float costs with ==,
// leaks pooled scratch, or writes shared state from a worker without a
// proven disjointness argument. These rules make each of those failure
// classes a build error rather than a debugging session.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Finding is one rule violation.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
	// Suppressed marks findings covered by a //replint:ignore
	// directive; the driver reports them only in verbose mode.
	Suppressed bool
	// Reason is the justification text of the suppressing directive.
	Reason string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Pass is the per-package context handed to each analyzer.
type Pass struct {
	Pkg *Package
	// Mod is the whole-module dataflow context; never nil.
	Mod    *Module
	report func(pos token.Pos, rule, msg string)
}

// Report records a finding at pos under the given rule.
func (p *Pass) Report(pos token.Pos, rule, msg string) { p.report(pos, rule, msg) }

// TypeOf returns the type of expr, or nil when type checking did not
// resolve it (best-effort under type errors).
func (p *Pass) TypeOf(expr ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[expr]; ok {
		return tv.Type
	}
	if id, ok := expr.(*ast.Ident); ok {
		if obj := p.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.Pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Pkg.Info.Defs[id]
}

// Analyzer is one replint rule.
type Analyzer struct {
	// Name is the rule ID used in reports and ignore directives.
	Name string
	// Doc is the one-paragraph rule description for `replint -rules`.
	Doc string
	Run func(*Pass)
}

// All returns the rule catalog in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		MapRange,
		FloatCmp,
		ScratchLeak,
		DetFlow,
		CtxStride,
		HotAlloc,
		ShardWrite,
		StaleGen,
		LockOrder,
		WGLeak,
		DeferBal,
	}
}

// knownRules is the set of valid rule IDs an ignore directive may name:
// the full catalog plus the reserved directive rule itself.
var knownRules = func() map[string]bool {
	m := map[string]bool{directiveRule: true}
	for _, a := range All() {
		m[a.Name] = true
	}
	return m
}()

// RunPackage applies the analyzers to one module package and returns
// the findings — directive-suppressed ones included but marked — in
// file/line order. Malformed replint directives are reported under the
// reserved rule "directive", which cannot be suppressed.
func (m *Module) RunPackage(pkg *Package, analyzers []*Analyzer) []Finding {
	dirs := collectDirectives(pkg)
	var findings []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Pkg: pkg,
			Mod: m,
			report: func(pos token.Pos, rule, msg string) {
				findings = append(findings, Finding{Pos: pkg.Fset.Position(pos), Rule: rule, Msg: msg})
			},
		}
		a.Run(pass)
	}
	findings = append(findings, dirs.malformed...)
	for i := range findings {
		f := &findings[i]
		if f.Rule == directiveRule {
			continue
		}
		if reason, ok := dirs.suppressed(f.Pos.Filename, f.Pos.Line, f.Rule); ok {
			f.Suppressed = true
			f.Reason = reason
		}
	}
	SortFindings(findings)
	return findings
}

// SortFindings orders findings by (file, line, col, rule, msg). The
// order is total: two findings can share a position and rule but
// differ in message, and sort.Slice is unstable.
func SortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := &findings[i], &findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}
