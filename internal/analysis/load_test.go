package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeTree writes files (slash-separated relative path → contents)
// under dir, creating parent directories.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for rel, src := range files {
		full := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExpandSkipsNestedModules: "./..." stops at a subdirectory that
// has its own go.mod, as the go tool does, so a nested module's
// packages are never loaded as part of the outer one.
func TestExpandSkipsNestedModules(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod":                "module outer\n\ngo 1.22\n",
		"root.go":               "package root\n",
		"sub/sub.go":            "package sub\n",
		"nested/go.mod":         "module nested\n\ngo 1.22\n",
		"nested/nested.go":      "package nested\n",
		"nested/deeper/deep.go": "package deeper\n",
	})
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"outer", "outer/sub"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Expand(./...) = %v, want %v", got, want)
	}
}

// TestExpandModulePathPrefix: a pattern is stripped of the module path
// only when it is the module path or lies beneath it, so a directory
// whose name merely starts with the module path stays a directory.
func TestExpandModulePathPrefix(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod":                "module repro\n\ngo 1.22\n",
		"root.go":               "package root\n",
		"tools/tools.go":        "package tools\n",
		"reprotools/rt.go":      "package reprotools\n",
		"reprotools/sub/sub.go": "package sub\n",
	})
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pattern string
		want    []string
	}{
		{"./reprotools", []string{"repro/reprotools"}},
		{"./reprotools/...", []string{"repro/reprotools", "repro/reprotools/sub"}},
		{"repro/reprotools", []string{"repro/reprotools"}},
		{"repro", []string{"repro"}},
		{"repro/...", []string{"repro", "repro/reprotools", "repro/reprotools/sub", "repro/tools"}},
	} {
		got, err := loader.Expand([]string{tc.pattern})
		if err != nil {
			t.Errorf("Expand(%s): %v", tc.pattern, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Expand(%s) = %v, want %v", tc.pattern, got, tc.want)
		}
	}
}
