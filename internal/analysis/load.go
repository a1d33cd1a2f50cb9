package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, and type-checked package. Test files
// (_test.go) are deliberately excluded: replint's rules guard
// production code paths, and tests routinely exercise the exact
// patterns (map ranges, float equality) the rules forbid.
type Package struct {
	// Path is the import path ("repro/internal/embed").
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Fset is the shared file set of the loader that produced this
	// package.
	Fset *token.FileSet
	// Files are the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Src maps each file (by token.File name) to its raw source, used
	// by the directive scanner to classify comment placement.
	Src map[string][]byte
	// Types and Info carry the go/types results. Type checking is
	// best-effort: errors are collected in TypeErrors and the analyzers
	// run on whatever information survived.
	Types      *types.Package
	Info       *types.Info
	TypeErrors []error
}

// Loader loads module-local packages with the standard library resolved
// from GOROOT source — no go/packages, no network, no export data.
type Loader struct {
	Fset *token.FileSet
	// ModulePath and ModuleDir root the import-path namespace: the
	// import path ModulePath+"/x/y" resolves to ModuleDir/x/y.
	ModulePath string
	ModuleDir  string

	std     types.Importer
	ctx     build.Context
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader rooted at the module directory. The module
// path is read from go.mod.
func NewLoader(moduleDir string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ctx := build.Default
	ctx.BuildTags = nil // default build: e.g. replassert files stay out
	return &Loader{
		Fset:       fset,
		ModulePath: modPath,
		ModuleDir:  moduleDir,
		std:        importer.ForCompiler(fset, "source", nil),
		ctx:        ctx,
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// Import implements types.Importer, routing module-local paths to the
// source tree and everything else to the GOROOT source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load loads (or returns the cached) package with the given
// module-local import path.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.ModuleDir, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath)))
	pkg, err := l.loadDir(path, dir)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// loadDir parses and type-checks the non-test files of one directory.
func (l *Loader) loadDir(path, dir string) (*Package, error) {
	names, err := l.sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	pkg := &Package{
		Path: path,
		Dir:  dir,
		Fset: l.Fset,
		Src:  map[string][]byte{},
	}
	for _, name := range names {
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.Fset, full, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Src[full] = src
	}

	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error:       func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns an error on the first problem, but with Error set
	// it keeps going and still populates Info and the package scope.
	tpkg, _ := conf.Check(path, l.Fset, pkg.Files, pkg.Info)
	pkg.Types = tpkg
	return pkg, nil
}

// sourceFiles lists the buildable non-test .go files of dir in sorted
// order, honoring build constraints under the loader's build context.
func (l *Loader) sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if ok, err := l.ctx.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Expand resolves package patterns relative to the module root into
// import paths, in sorted order. Supported forms: "./...", "./dir/...",
// "./dir", and plain import paths inside the module.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		} else if pat == "..." {
			recursive = true
			pat = "."
		}
		rel := strings.TrimPrefix(pat, "./")
		if rel == "." {
			rel = ""
		}
		if rel == l.ModulePath {
			rel = ""
		} else if sub, ok := strings.CutPrefix(rel, l.ModulePath+"/"); ok {
			rel = sub
		}
		root := filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
		if !recursive {
			if names, err := l.sourceFiles(root); err == nil && len(names) > 0 {
				add(joinImportPath(l.ModulePath, rel))
			}
			continue
		}
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			base := filepath.Base(p)
			if p != root && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") ||
				base == "testdata" || base == "vendor") {
				return filepath.SkipDir
			}
			// A subdirectory with its own go.mod is another module,
			// which "./..." leaves out, as the go tool does.
			if p != root {
				if _, serr := os.Stat(filepath.Join(p, "go.mod")); serr == nil {
					return filepath.SkipDir
				}
			}
			if names, ferr := l.sourceFiles(p); ferr == nil && len(names) > 0 {
				relp, rerr := filepath.Rel(l.ModuleDir, p)
				if rerr != nil {
					return rerr
				}
				if relp == "." {
					relp = ""
				}
				add(joinImportPath(l.ModulePath, filepath.ToSlash(relp)))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

func joinImportPath(mod, rel string) string {
	if rel == "" {
		return mod
	}
	return mod + "/" + rel
}
