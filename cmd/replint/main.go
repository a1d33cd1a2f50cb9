// Command replint runs the repository's determinism/correctness rule
// suite (internal/analysis) over module packages. It needs no network
// and no external tooling: packages are parsed and type-checked with
// the standard library alone.
//
// Usage:
//
//	replint [flags] [packages]
//
// Packages default to ./... relative to the module root, which is
// found by walking up from the working directory to go.mod. The whole
// module is always loaded and summarized (the interprocedural rules
// need module-wide facts); the package arguments select which
// packages' findings are reported.
//
// Findings print with paths relative to the module root regardless of
// -C or the working directory, so editor jump-to-line works from
// anywhere, and are globally sorted by (file, line, col, rule, msg)
// in every output mode. With -json, output is an object
// {"findings": [...]} where findings carry
// {file, line, col, rule, msg, suppressed, reason} — suppressed
// findings included and flagged.
//
// Exit status is 1 when any unsuppressed finding (or malformed replint
// directive) is reported, 2 on operational errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the -json wire form of one finding.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Rule       string `json:"rule"`
	Msg        string `json:"msg"`
	Suppressed bool   `json:"suppressed"`
	Reason     string `json:"reason,omitempty"`
}

// jsonOutput is the top-level -json envelope.
type jsonOutput struct {
	Findings []jsonFinding `json:"findings"`
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("replint", flag.ExitOnError)
	fs.SetOutput(stderr)
	rules := fs.Bool("rules", false, "print the rule catalog and exit")
	verbose := fs.Bool("v", false, "also show suppressed findings and type-check diagnostics")
	dir := fs.String("C", "", "change to this directory before resolving the module root")
	asJSON := fs.Bool("json", false, "emit a JSON object {findings} (suppressed findings included, flagged)")
	fs.Parse(argv)

	if *rules {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%s\n\t%s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stdout, "\nsuppression:\n\t//replint:ignore rule[,rule...] -- reason\n"+
			"\t(trailing: suppresses its own line; standalone: the next line)\n"+
			"\t//replint:floatcmp-helper\n"+
			"\t(in a function's doc comment: exact float comparisons inside\n"+
			"\tit are the intended semantics; floatcmp skips it)\n")
		return 0
	}

	start := *dir
	if start == "" {
		wd, err := os.Getwd()
		if err != nil {
			fmt.Fprintln(stderr, "replint:", err)
			return 2
		}
		start = wd
	}
	moduleDir, err := findModuleRoot(start)
	if err != nil {
		fmt.Fprintln(stderr, "replint:", err)
		return 2
	}

	loader, err := analysis.NewLoader(moduleDir)
	if err != nil {
		fmt.Fprintln(stderr, "replint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := loader.Expand(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "replint:", err)
		return 2
	}
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "replint: no packages match", patterns)
		return 2
	}

	// Load the whole module once (the interprocedural rules need
	// module-wide facts) and run the catalog over the requested
	// packages in parallel.
	mod, err := analysis.BuildModule(loader)
	if err != nil {
		fmt.Fprintln(stderr, "replint:", err)
		return 2
	}
	for _, path := range paths {
		pkg := mod.Package(path)
		if pkg == nil {
			fmt.Fprintf(stderr, "replint: %s: not part of the module\n", path)
			return 2
		}
		if *verbose {
			for _, terr := range pkg.TypeErrors {
				fmt.Fprintf(stderr, "replint: typecheck (best-effort): %v\n", terr)
			}
		}
	}
	results := mod.RunPackages(paths)

	// Make every path module-relative with forward slashes, so output
	// is stable across -C and cwd, then sort globally: output order is
	// (file, line, col, rule, msg) regardless of package boundaries or
	// worker schedule.
	var all []analysis.Finding
	for _, path := range paths {
		all = append(all, results[path]...)
	}
	for i := range all {
		f := &all[i].Pos
		if rel, err := filepath.Rel(moduleDir, f.Filename); err == nil {
			f.Filename = rel
		}
		f.Filename = filepath.ToSlash(f.Filename)
	}
	analysis.SortFindings(all)

	bad := 0
	for _, f := range all {
		if f.Suppressed {
			if !*asJSON && *verbose {
				fmt.Fprintf(stdout, "%s:%d:%d: %s: %s [suppressed: %s]\n",
					f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg, f.Reason)
			}
			continue
		}
		if !*asJSON {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
		}
		bad++
	}

	if *asJSON {
		out := jsonOutput{Findings: []jsonFinding{}}
		for _, f := range all {
			out.Findings = append(out.Findings, jsonFinding{
				File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
				Rule: f.Rule, Msg: f.Msg,
				Suppressed: f.Suppressed, Reason: f.Reason,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "replint:", err)
			return 2
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "replint: %d finding(s)\n", bad)
		return 1
	}
	return 0
}

// findModuleRoot walks up from dir to the directory containing go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
