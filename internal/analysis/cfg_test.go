package analysis

import (
	"go/ast"
	"testing"
)

// cfgForFunc builds (and caches via Module.cfgOf, so the noreturn
// summary is wired in) the CFG of a named function in a module.
func cfgForFunc(t *testing.T, mod *Module, name string) *cfg {
	t.Helper()
	f := funcNamed(t, mod, name)
	return mod.cfgOf(f.Pkg, f.Decl.Body)
}

// findOwned locates the first owned node matching the predicate, in
// block order.
func findOwned(t *testing.T, c *cfg, match func(ast.Node) bool) (*cfgBlock, int) {
	t.Helper()
	for _, b := range c.blocks {
		for i, n := range b.nodes {
			if match(n) {
				return b, i
			}
		}
	}
	t.Fatal("no owned node matched")
	return nil, 0
}

// definesVar matches an owned node that is a := definition of name.
func definesVar(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return false
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == name {
				return true
			}
		}
		return false
	}
}

// callsBump is the discharge predicate the must-pass tests share: the
// owned node contains a call to the package function bump.
func callsBump(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(inner ast.Node) bool {
		if _, ok := inner.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := inner.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "bump" {
				found = true
			}
		}
		return true
	})
	return found
}

const cfgFixtureSrc = `package cfgfix

import "os"

func bump() {}

func fatalWrapper() { panic("fatal") }

func allPaths(x int) {
	y := x
	_ = y
	bump()
}

func branchOnly(x int) {
	y := x
	_ = y
	if x > 0 {
		bump()
	}
}

func bothBranches(x int) {
	y := x
	_ = y
	if x > 0 {
		bump()
	} else {
		bump()
	}
}

func panicPath(x int) {
	y := x
	_ = y
	if x < 0 {
		panic("negative")
	}
	bump()
}

func exitPath(x int) {
	y := x
	_ = y
	if x < 0 {
		os.Exit(2)
	}
	bump()
}

func viaNoReturn(x int) {
	y := x
	_ = y
	if x < 0 {
		fatalWrapper()
	}
	bump()
}

func infiniteLoop(x int) {
	y := x
	_ = y
	for {
	}
}

func loopEscape(xs []int) {
	y := 0
	_ = y
	for _, v := range xs {
		if v > 10 {
			break
		}
		if v < 0 {
			continue
		}
	}
	bump()
}

func switchNoDefault(x int) {
	y := x
	_ = y
	switch x {
	case 1:
		bump()
	case 2:
		bump()
	}
}

func switchDefault(x int) {
	y := x
	_ = y
	switch x {
	case 1:
		bump()
	default:
		bump()
	}
}

func selectBoth(ch chan int) {
	y := 0
	_ = y
	select {
	case v := <-ch:
		_ = v
		bump()
	default:
		bump()
	}
}

func gotoSkip(x int) {
	y := x
	_ = y
	if x > 0 {
		goto done
	}
	bump()
done:
	_ = x
}

func earlyReturnBeforeWrite(x int) {
	if x == 0 {
		return
	}
	y := x
	_ = y
	bump()
}
`

func buildCFGFixture(t *testing.T) *Module {
	t.Helper()
	return buildScratchModule(t, map[string]string{"cfgfix/cfgfix.go": cfgFixtureSrc})
}

// TestCFGStructure sanity-checks the graph shape: entry/exit exist, the
// exit is empty and synthetic, and succ/pred lists are mutually
// consistent in every function's graph.
func TestCFGStructure(t *testing.T) {
	mod := buildCFGFixture(t)
	for _, name := range []string{"allPaths", "branchOnly", "loopEscape", "switchNoDefault", "selectBoth", "gotoSkip"} {
		c := cfgForFunc(t, mod, name)
		if c.entry == nil || c.exit == nil {
			t.Fatalf("%s: missing entry/exit", name)
		}
		if len(c.exit.nodes) != 0 || len(c.exit.succs) != 0 {
			t.Errorf("%s: exit block must be empty and terminal", name)
		}
		for _, b := range c.blocks {
			for _, s := range b.succs {
				found := false
				for _, p := range s.preds {
					if p == b {
						found = true
					}
				}
				if !found {
					t.Errorf("%s: edge %d->%d has no matching pred", name, b.idx, s.idx)
				}
			}
		}
	}
}

// TestMustPassToExit exercises the post-dominance query from the
// y-definition site of each fixture function: does every returning
// path pass a bump() call?
func TestMustPassToExit(t *testing.T) {
	mod := buildCFGFixture(t)
	cases := []struct {
		fn   string
		want bool
	}{
		{"allPaths", true},
		{"branchOnly", false},            // bump on the then-branch only
		{"bothBranches", true},           // both arms discharge
		{"panicPath", true},              // panicking path is vacuous
		{"exitPath", true},               // os.Exit terminates its block
		{"viaNoReturn", true},            // noreturn summary covers the wrapper
		{"infiniteLoop", true},           // no path returns at all
		{"loopEscape", true},             // break/continue both rejoin before bump
		{"switchNoDefault", false},       // missing default falls through unbumped
		{"switchDefault", true},          // every clause discharges
		{"selectBoth", true},             // both comm clauses discharge
		{"gotoSkip", false},              // goto jumps over the bump
		{"earlyReturnBeforeWrite", true}, // the early return precedes the query point
	}
	for _, tc := range cases {
		t.Run(tc.fn, func(t *testing.T) {
			c := cfgForFunc(t, mod, tc.fn)
			b, ord := findOwned(t, c, definesVar("y"))
			if got := c.mustPassToExit(b, ord, callsBump); got != tc.want {
				t.Errorf("mustPassToExit from y-def in %s = %v, want %v", tc.fn, got, tc.want)
			}
		})
	}
}
