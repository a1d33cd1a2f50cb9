//go:build !race

// The race detector makes sync.Pool drop a random share of Puts, so a
// warmed scratch cannot be counted on there; this file builds without it.

package embed

import (
	"runtime/debug"
	"testing"
)

// TestSolveAllocsPerNode bounds a warmed Solve's allocations by the
// tree size: the accepted lists, wavefront arena and join buffers live
// in the pooled scratch, so what a solve still allocates is its result
// — per node one slab, one offset table and the join pool — not one
// allocation per accepted solution or touched vertex. GC is off so the
// pool keeps the warmed scratch between runs.
func TestSolveAllocsPerNode(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := randomProblem(3, 12, 12, 6, Mode{LexDepth: 1}, false)
	r, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for i := range r.sols {
		accepted += len(r.sols[i].sols)
	}
	nodes := len(p.T.Nodes)
	bound := 4*nodes + 16
	if accepted < 4*bound {
		t.Fatalf("instance too small to tell: %d accepted solutions, bound %d", accepted, bound)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := p.Solve(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(bound) {
		t.Fatalf("warmed Solve: %.0f allocs for %d nodes and %d accepted solutions, want <= %d",
			allocs, nodes, accepted, bound)
	}
	t.Logf("%.0f allocs per Solve: %d nodes, %d accepted solutions", allocs, nodes, accepted)
}

// TestNodeMemoReusesSlabs alternates one warm memo between two problems
// that share no node (their leaf arrivals differ), so every solve
// computes every node it does not repeat within itself and releases
// every node of the solve before. The released tables must serve the
// misses: a warm alternation allocates a fixed handful per solve (the
// Result, its frontier, the root's tables), not two or three tables per
// computed node as a memo without the slab pool does.
func TestNodeMemoReusesSlabs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a := randomProblem(3, 8, 8, 24, Mode{LexDepth: 1}, false)
	b := *a
	b.T = cloneTree(a.T)
	for i := range b.T.Nodes {
		b.T.Nodes[i].Arr += 0.25
	}
	memo := NewNodeMemo()
	a.Memo, b.Memo = memo, memo
	alternate := func() {
		for _, p := range []*Problem{a, &b} {
			if _, err := p.Solve(); err != nil {
				t.Fatal(err)
			}
		}
	}
	alternate()
	before := memo.Stats
	const runs = 10
	allocs := testing.AllocsPerRun(runs, alternate)
	// AllocsPerRun makes one warm-up call before the counted runs.
	misses := (memo.Stats.Misses - before.Misses) / (runs + 1)
	bound := misses / 2
	if bound < 16 {
		t.Fatalf("instance too small to tell: %d computed nodes per alternation", misses)
	}
	if allocs > float64(bound) {
		t.Fatalf("warm alternation: %.0f allocs for %d computed nodes, want <= %d",
			allocs, misses, bound)
	}
	t.Logf("%.0f allocs per alternation of two solves, %d computed nodes", allocs, misses)
}
