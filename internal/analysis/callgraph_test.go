package analysis

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildScratchModule materializes files (path → source, relative to the
// module root) as a throwaway module and builds it. A go.mod naming the
// module "scratch" is added automatically.
func buildScratchModule(t *testing.T, files map[string]string) *Module {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module scratch\n\ngo 1.22\n"
	for rel, src := range files {
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := BuildModule(loader)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// funcNamed finds a declared function by qualified name: "name" for
// package functions, "Recv.name" for methods (receiver type name with
// any pointer stripped).
func funcNamed(t *testing.T, m *Module, qualified string) *ModFunc {
	t.Helper()
	var recv, name string
	if i := strings.IndexByte(qualified, '.'); i >= 0 {
		recv, name = qualified[:i], qualified[i+1:]
	} else {
		name = qualified
	}
	for _, f := range m.Funcs {
		if f.Obj.Name() != name {
			continue
		}
		fr := ""
		if f.Decl.Recv != nil && len(f.Decl.Recv.List) > 0 {
			fr = recvTypeName(f.Decl.Recv.List[0].Type)
		}
		if fr == recv {
			return f
		}
	}
	t.Fatalf("no declared function %q in scratch module", qualified)
	return nil
}

// recvTypeName names a method receiver's type: Ident or *Ident.
func recvTypeName(e ast.Expr) string {
	if st, ok := e.(*ast.StarExpr); ok {
		e = st.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// calls reports whether the module call graph has a callee edge
// from→to.
func calls(m *Module, from, to *ModFunc) bool {
	return m.cg.callees[from.Obj][to.Obj]
}

// TestCallGraphInterfaceResolution covers the interface method-set
// corner cases: embedded interfaces, pointer-receiver-only method
// sets, promotion through embedded structs, and non-implementing
// types staying out of the edge set.
func TestCallGraphInterfaceResolution(t *testing.T) {
	mod := buildScratchModule(t, map[string]string{
		"iface/iface.go": `package iface

// Closer is the base interface.
type Closer interface{ Close() }

// ReadCloser embeds Closer: Close is reachable through the embedded
// method set, not declared on ReadCloser itself.
type ReadCloser interface {
	Closer
	Read() int
}

// Val implements Closer with value receivers: both Val and *Val are in
// the method set.
type Val struct{ n int }

func (v Val) Close()    {}
func (v Val) Read() int { return v.n }

// Ptr implements Closer with pointer receivers only: the value type
// Ptr does NOT implement, *Ptr does.
type Ptr struct{ n int }

func (p *Ptr) Close()    { p.n = 0 }
func (p *Ptr) Read() int { return p.n }

// Base provides Close; Wrap picks it up by struct embedding, so the
// resolved callee is Base's declared method.
type Base struct{}

func (b *Base) Close() {}

type Wrap struct {
	Base
	tag string
}

// Loner has a Close with the wrong signature and must never appear as
// an implementation.
type Loner struct{}

func (l Loner) Close() error { return nil }

// CallClose invokes through the base interface.
func CallClose(c Closer) { c.Close() }

// CallViaEmbedded invokes Close through the embedding interface: the
// method comes from the embedded Closer.
func CallViaEmbedded(rc ReadCloser) { rc.Close() }

// CallRead invokes the non-embedded method of the wide interface.
func CallRead(rc ReadCloser) int { return rc.Read() }
`,
	})

	callClose := funcNamed(t, mod, "CallClose")
	callViaEmbedded := funcNamed(t, mod, "CallViaEmbedded")
	callRead := funcNamed(t, mod, "CallRead")
	valClose := funcNamed(t, mod, "Val.Close")
	valRead := funcNamed(t, mod, "Val.Read")
	ptrClose := funcNamed(t, mod, "Ptr.Close")
	ptrRead := funcNamed(t, mod, "Ptr.Read")
	baseClose := funcNamed(t, mod, "Base.Close")
	lonerClose := funcNamed(t, mod, "Loner.Close")

	cases := []struct {
		name     string
		from, to *ModFunc
		want     bool
	}{
		{"value-receiver impl resolves", callClose, valClose, true},
		{"pointer-receiver-only impl resolves", callClose, ptrClose, true},
		{"promoted method resolves to the embedded decl", callClose, baseClose, true},
		{"wrong signature is not an impl", callClose, lonerClose, false},
		{"embedded-interface method resolves value impl", callViaEmbedded, valClose, true},
		{"embedded-interface method resolves pointer impl", callViaEmbedded, ptrClose, true},
		{"embedded-interface call does not edge to Read", callViaEmbedded, valRead, false},
		{"wide-interface Read resolves value impl", callRead, valRead, true},
		{"wide-interface Read resolves pointer impl", callRead, ptrRead, true},
		{"wide-interface Read does not edge to Close", callRead, valClose, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := calls(mod, tc.from, tc.to); got != tc.want {
				t.Errorf("edge %s -> %s = %v, want %v",
					tc.from.Obj.Name(), tc.to.Obj.FullName(), got, tc.want)
			}
		})
	}

	// Wrap must NOT contribute its own Close func object: promotion
	// reuses Base's. Nothing named Wrap.Close may exist.
	for _, f := range mod.Funcs {
		if f.Obj.Name() == "Close" && f.Decl.Recv != nil && recvTypeName(f.Decl.Recv.List[0].Type) == "Wrap" {
			t.Errorf("unexpected declared Wrap.Close: promotion should reuse Base.Close")
		}
	}
}

// TestCallGraphReverseEdges checks the transpose stays consistent with
// the forward edges for interface-resolved calls.
func TestCallGraphReverseEdges(t *testing.T) {
	mod := buildScratchModule(t, map[string]string{
		"rev/rev.go": `package rev

type Runner interface{ Run() }

type Job struct{}

func (j *Job) Run() {}

func Drive(r Runner) { r.Run() }
`,
	})
	drive := funcNamed(t, mod, "Drive")
	run := funcNamed(t, mod, "Job.Run")
	if !mod.cg.callees[drive.Obj][run.Obj] {
		t.Fatal("forward edge Drive -> Job.Run missing")
	}
	if !mod.cg.callers[run.Obj][drive.Obj] {
		t.Error("reverse edge Job.Run <- Drive missing: transpose out of sync")
	}
}
