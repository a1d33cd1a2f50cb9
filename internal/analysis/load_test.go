package analysis

import (
	"reflect"
	"testing"
)

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
