package analysis

import (
	"go/ast"
	"go/types"
	"runtime"
	"strings"
	"sync"
)

// Module is the whole-module analysis context: every package of the
// module loaded through one Loader, plus the interprocedural summaries
// the dataflow rules consume — the call graph, per-function def-use
// tables, the module-wide storage (arithmetic-write) facts, and the
// determinism-taint solution.
//
// Per-file syntactic rules work from a Pass alone; the interprocedural
// rules (detflow, ctxstride, hotalloc, shardwrite), the flow-sensitive
// family and the floatcmp zero-sentinel exemption consult Pass.Mod.
type Module struct {
	Loader *Loader
	// Pkgs are all packages of the module in import-path order.
	Pkgs []*Package

	// Funcs are all declared functions and methods with bodies, in
	// package/file/position order (the deterministic traversal order
	// every summary builder uses).
	Funcs []*ModFunc

	byObj  map[*types.Func]*ModFunc
	byPath map[string]*Package

	cg     *callGraph
	defuse map[*types.Func]*defUse
	facts  *storageFacts
	taint  *taintFacts
	meta   map[types.Object]bool // //replint:metadata-designated fields
	polls  map[*types.Func]bool  // transitively polls cancellation
	hot    map[*types.Func]bool  // reachable from an embed Solve root

	// Flow-sensitive layer: //replint:guarded field→counter pairs (and
	// their placement issues), noreturn summaries threaded into CFG
	// construction, the per-body CFG cache, and the lock discipline
	// facts.
	guard    map[types.Object]types.Object
	guardBad map[*Package][]guardIssue
	noreturn map[*types.Func]bool
	cfgs     map[*ast.BlockStmt]*cfg
	cfgMu    sync.Mutex
	locks    *lockFactsData

	// impls is the named-type index the call graph resolves interface
	// calls through.
	impls *implIndex
}

// ModFunc is one declared function or method with a body. Function
// literals are not separate nodes: their statements are attributed to
// the enclosing declaration, which is the right granularity for
// flow-insensitive summaries (a literal's locals are distinct objects
// anyway).
type ModFunc struct {
	Pkg  *Package
	Decl *ast.FuncDecl
	Obj  *types.Func
}

// BuildModule loads every package of the loader's module and computes
// the interprocedural summaries. The load is cached in the loader, so
// a driver that afterwards asks for individual packages pays nothing
// extra.
func BuildModule(loader *Loader) (*Module, error) {
	paths, err := loader.Expand([]string{"./..."})
	if err != nil {
		return nil, err
	}
	m := &Module{
		Loader: loader,
		byObj:  map[*types.Func]*ModFunc{},
		byPath: map[string]*Package{},
		defuse: map[*types.Func]*defUse{},
	}
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			return nil, err
		}
		m.Pkgs = append(m.Pkgs, pkg)
		m.byPath[path] = pkg
	}
	m.collectFuncs()
	m.meta = collectMetadataFields(m)
	for _, f := range m.Funcs {
		m.defuse[f.Obj] = buildDefUse(f.Pkg, f.Decl)
	}
	m.impls = collectImplementations(m)
	m.cg = buildCallGraph(m)
	m.facts = buildStorageFacts(m)
	m.taint = buildTaint(m)
	m.polls = buildPollsSummary(m)
	m.hot = buildHotSet(m)
	m.noreturn = buildNoReturn(m)
	m.cfgs = map[*ast.BlockStmt]*cfg{}
	m.guard, m.guardBad = collectGuardedFields(m)
	// The lock facts build here, not on first use: lockorder runs on
	// every RunPackages worker, and a lazy build would be a shared
	// write across them. Built eagerly, every module-wide structure is
	// read-only by the time RunPackages fans out.
	m.locks = buildLockFacts(m)
	return m, nil
}

// cfgOf returns the (cached) control-flow graph of one function or
// function-literal body, built with the module's noreturn summaries so
// fatalf-style wrappers terminate their paths.
func (m *Module) cfgOf(pkg *Package, body *ast.BlockStmt) *cfg {
	m.cfgMu.Lock()
	defer m.cfgMu.Unlock()
	if c, ok := m.cfgs[body]; ok {
		return c
	}
	c := buildCFG(pkg, body, m.noreturn)
	m.cfgs[body] = c
	return c
}

// Package returns the loaded package with the given import path, or
// nil when the path is not part of the module.
func (m *Module) Package(path string) *Package { return m.byPath[path] }

// FuncOf returns the ModFunc for a declared function object, or nil
// for externals and function values.
func (m *Module) FuncOf(obj *types.Func) *ModFunc { return m.byObj[obj] }

func (m *Module) collectFuncs() {
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fn.Name].(*types.Func)
				if obj == nil {
					continue
				}
				mf := &ModFunc{Pkg: pkg, Decl: fn, Obj: obj}
				m.Funcs = append(m.Funcs, mf)
				m.byObj[obj] = mf
			}
		}
	}
}

// RunPackages runs the full catalog over the named packages on
// GOMAXPROCS workers, returning the findings keyed by import path. All
// module-wide summaries are built and frozen by BuildModule, so
// per-package runs only share read-only state plus the mutex-guarded
// CFG cache. Unknown paths are silently skipped (the driver validates
// paths first).
func (m *Module) RunPackages(paths []string) map[string][]Finding {
	analyzers := All()
	workers := max(1, min(runtime.GOMAXPROCS(0), len(paths)))
	// Workers hand results back over a buffered channel and the caller
	// owns the map: no shared writes anywhere. The buffer holds every
	// result, so workers never block on the send and wg.Wait directly
	// post-dominates the launches.
	type result struct {
		path string
		fs   []Finding
	}
	jobs := make(chan string)
	results := make(chan result, len(paths))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for path := range jobs {
				pkg := m.byPath[path]
				if pkg == nil {
					continue
				}
				results <- result{path, m.RunPackage(pkg, analyzers)}
			}
		}()
	}
	for _, p := range paths {
		jobs <- p
	}
	close(jobs)
	wg.Wait()
	close(results)
	out := make(map[string][]Finding, len(paths))
	for r := range results {
		out[r.path] = r.fs
	}
	return out
}

// relPath strips the module-path prefix off an import path; the
// package-subtree filters (maprange, hotalloc, the serve JSON sink)
// match on this module-relative form so they apply identically to the
// real tree and the fixture module.
func relPath(path string) string {
	if i := strings.Index(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return ""
}

// funcsInPackage returns the module functions declared in pkg, in
// declaration order.
func (m *Module) funcsInPackage(pkg *Package) []*ModFunc {
	var out []*ModFunc
	for _, f := range m.Funcs {
		if f.Pkg == pkg {
			out = append(out, f)
		}
	}
	return out
}

// calleeFunc resolves a call expression to the *types.Func it
// statically invokes: a declared function, a method, or an external.
// Function values, method expressions used as values, and type
// conversions yield nil.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// enclosingFuncDecl finds the FuncDecl whose body spans pos in the
// file, or nil for package-level positions.
func enclosingFuncDecl(file *ast.File, pos int) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
			if int(fn.Pos()) <= pos && pos <= int(fn.End()) {
				return fn
			}
		}
	}
	return nil
}
