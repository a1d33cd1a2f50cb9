package analysis

import (
	"go/ast"
	"go/types"
)

// callGraph is the module-wide static call graph. Edges cover direct
// calls to declared functions/methods and interface method calls
// resolved against the method sets of the module's named types (a
// call through interface I.M gets an edge to T.M for every module
// type T that implements I). Calls through function *values*,
// method-value captures, and reflection produce no edges — a
// documented soundness limit; the rules that consume the graph are
// written so a missing edge degrades to a less precise (but still
// reviewable) answer, not a silent pass on code the graph does see.
type callGraph struct {
	// callees maps each declared function to the declared functions it
	// may invoke (module-local targets only; external callees are
	// dropped — summaries for the standard library are hardwired where
	// a rule needs them).
	callees map[*types.Func]map[*types.Func]bool
	// callers is the transpose, for reverse fixpoints.
	callers map[*types.Func]map[*types.Func]bool
}

func buildCallGraph(m *Module) *callGraph {
	g := &callGraph{
		callees: map[*types.Func]map[*types.Func]bool{},
		callers: map[*types.Func]map[*types.Func]bool{},
	}
	impls := m.impls
	for _, f := range m.Funcs {
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(f.Pkg, call)
			if callee == nil {
				return true
			}
			if mf := m.byObj[callee]; mf != nil {
				g.addEdge(f.Obj, callee)
				return true
			}
			// Interface method call: add edges to every module
			// implementation of the interface.
			if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
				if types.IsInterface(sig.Recv().Type()) {
					for _, impl := range impls.resolve(sig.Recv().Type(), callee.Name()) {
						if m.byObj[impl] != nil {
							g.addEdge(f.Obj, impl)
						}
					}
				}
			}
			return true
		})
	}
	return g
}

func (g *callGraph) addEdge(from, to *types.Func) {
	if g.callees[from] == nil {
		g.callees[from] = map[*types.Func]bool{}
	}
	g.callees[from][to] = true
	if g.callers[to] == nil {
		g.callers[to] = map[*types.Func]bool{}
	}
	g.callers[to][from] = true
}

// implIndex lists the module's named (non-interface) types once, so
// interface-call resolution is a scan over them rather than over the
// whole type universe.
type implIndex struct {
	named []*types.Named
}

func collectImplementations(m *Module) *implIndex {
	idx := &implIndex{}
	for _, pkg := range m.Pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			idx.named = append(idx.named, named)
		}
	}
	return idx
}

// resolve returns the concrete methods named name on module types
// implementing iface (value or pointer method sets).
func (idx *implIndex) resolve(iface types.Type, name string) []*types.Func {
	i, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, named := range idx.named {
		var recv types.Type
		switch {
		case types.Implements(named, i):
			recv = named
		case types.Implements(types.NewPointer(named), i):
			recv = types.NewPointer(named)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, named.Obj().Pkg(), name)
		if fn, ok := obj.(*types.Func); ok {
			out = append(out, fn)
		}
	}
	return out
}
