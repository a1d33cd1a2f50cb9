package embed

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
)

// These tests pin the node memo's contract: a solve through a memo —
// whatever the memo served from earlier solves or from repeats inside
// the same solve — is bit-identical to a solve without one, node by
// node and vertex by vertex, and a cancelled solve cannot leave a
// partial node behind for the next one.

// memoCase is one problem family of the equivalence sweep.
type memoCase struct {
	name string
	prob func() *Problem
}

func memoCases() []memoCase {
	return []memoCase{
		{"2d", func() *Problem { return randomProblem(11, 7, 7, 6, Mode{LexDepth: 1}, false) }},
		{"lex3", func() *Problem { return randomProblem(12, 7, 7, 6, Mode{LexDepth: 3}, false) }},
		{"lexmc", func() *Problem { return randomProblem(13, 7, 7, 6, Mode{LexDepth: 1, MC: true}, false) }},
		{"elmore", func() *Problem {
			return randomProblem(14, 7, 7, 6, Mode{LexDepth: 1, Delay: ElmoreDelay, GateR: 0.5}, false)
		}},
		{"free-root", func() *Problem { return randomProblem(15, 6, 6, 5, Mode{LexDepth: 1}, true) }},
		{"capped", func() *Problem {
			p := randomProblem(16, 7, 7, 7, Mode{LexDepth: 2}, false)
			p.MaxPerVertex = 2
			p.DelayQuantum = 0.5
			return p
		}},
		{"overlap", func() *Problem {
			p := randomProblem(17, 7, 7, 6, Mode{LexDepth: 1, OverlapControl: true}, false)
			p.Capacity = func(v Vertex) int { return 1 + int(v)%2 }
			return p
		}},
	}
}

// memoSequence derives from base the problems a memo sees in turn: the
// same problem, one internal node's placement cost changed at one
// vertex, one leaf's arrival changed, one edge cost changed, the delay
// quantum changed, and a tree with a duplicated subtree (so repeats
// occur inside one solve, leaves and gates alike).
func memoSequence(t *testing.T, base *Problem) []*Problem {
	t.Helper()
	ref, err := base.Solve()
	if err != nil {
		t.Fatalf("base solve: %v", err)
	}
	emb := ref.Extract(ref.Frontier[0])
	tr := base.T
	leaf, gate := NodeID(-1), NodeID(-1)
	for i := range tr.Nodes {
		switch {
		case tr.Nodes[i].IsLeaf() && leaf < 0:
			leaf = NodeID(i)
		case !tr.Nodes[i].IsLeaf() && NodeID(i) != tr.Root && gate < 0:
			gate = NodeID(i)
		}
	}
	if leaf < 0 || gate < 0 {
		t.Fatal("base tree needs a leaf and a non-root gate")
	}

	seq := []*Problem{base, base}

	// The gate's cost where the cheapest embedding places it: that
	// vertex's join solution is accepted, so its cost moves A.
	pc := *base
	at := emb.NodeVertex[gate]
	pc.PlaceCost = func(node NodeID, v Vertex) float64 {
		c := base.PlaceCost(node, v)
		if node == gate && v == at {
			c += 5
		}
		return c
	}
	seq = append(seq, &pc)

	arr := *base
	arr.T = cloneTree(tr)
	arr.T.Nodes[leaf].Arr++
	seq = append(seq, &arr)

	// An edge on some node's route when the embedding has one.
	from, to := Vertex(0), base.G.Adj(0)[0].To
	for _, route := range emb.Routes {
		if len(route) > 1 {
			from, to = route[0], route[1]
			break
		}
	}
	edge := *base
	edge.G = cloneGraph(base.G)
	for i := range edge.G.adj[from] {
		if e := &edge.G.adj[from][i]; e.To == to {
			e.Cost += 2
			edge.G.cost[edgeKey(from, to)] = e.Cost
			break
		}
	}
	seq = append(seq, &edge)

	quantum := *base
	quantum.DelayQuantum += 1.5
	seq = append(seq, &quantum)

	return append(seq, duplicateSubtree(base))
}

// cloneTree deep-copies a tree's nodes.
func cloneTree(t *Tree) *Tree {
	c := &Tree{Nodes: make([]Node, len(t.Nodes)), Root: t.Root}
	for i, n := range t.Nodes {
		n.Children = append([]NodeID(nil), n.Children...)
		c.Nodes[i] = n
	}
	return c
}

// cloneGraph deep-copies a graph's edges, blocked flags and cost index.
func cloneGraph(g *Graph) *Graph {
	c := *g
	c.adj = make([][]Edge, len(g.adj))
	for v := range g.adj {
		c.adj[v] = append([]Edge(nil), g.adj[v]...)
	}
	c.blocked = append([]bool(nil), g.blocked...)
	c.cost = make(map[uint64]float64, len(g.cost))
	for k, v := range g.cost {
		c.cost[k] = v
	}
	return &c
}

// duplicateSubtree copies the root's largest child subtree under new
// node IDs and adds the copy as one more child of the root. Copied gates
// keep their originals' placement costs, so every copied node repeats
// its original bit for bit (bar a copied Lex-mc critical leaf, which
// is made non-critical).
func duplicateSubtree(base *Problem) *Problem {
	t := cloneTree(base.T)
	orig := make([]NodeID, len(t.Nodes))
	for i := range orig {
		orig[i] = NodeID(i)
	}
	var dup func(id NodeID) NodeID
	dup = func(id NodeID) NodeID {
		n := t.Nodes[id]
		kids := make([]NodeID, len(n.Children))
		for i, c := range n.Children {
			kids[i] = dup(c)
		}
		n.Children = kids
		n.Critical = false
		t.Nodes = append(t.Nodes, n)
		orig = append(orig, orig[id])
		return NodeID(len(t.Nodes) - 1)
	}
	var size func(id NodeID) int
	size = func(id NodeID) int {
		n := 1
		for _, c := range t.Nodes[id].Children {
			n += size(c)
		}
		return n
	}
	largest := t.Nodes[t.Root].Children[0]
	for _, c := range t.Nodes[t.Root].Children {
		if size(c) > size(largest) {
			largest = c
		}
	}
	copied := dup(largest)
	t.Nodes[t.Root].Children = append(t.Nodes[t.Root].Children, copied)
	p := *base
	p.T = t
	p.PlaceCost = func(node NodeID, v Vertex) float64 { return base.PlaceCost(orig[node], v) }
	return &p
}

// TestNodeMemoEquivalence solves each family's sequence through one
// memo, serially and with two and four workers, and checks every solve against
// a solve without a memo: the frontier, every node's accepted set at
// every vertex, and the extraction of every frontier point, bit for
// bit.
func TestNodeMemoEquivalence(t *testing.T) {
	for _, mc := range memoCases() {
		seq := memoSequence(t, mc.prob())
		want := make([]*Result, len(seq))
		for step, p := range seq {
			var err error
			if want[step], err = p.Solve(); err != nil {
				t.Fatalf("%s step %d: plain solve: %v", mc.name, step, err)
			}
		}
		for _, workers := range []int{1, 2, 4} {
			memo := NewNodeMemo()
			for step, p := range seq {
				memoized := *p
				memoized.Parallelism = workers
				memoized.Memo = memo
				before := memo.Stats
				got, err := memoized.Solve()
				if err != nil {
					t.Fatalf("%s step %d: memo solve: %v", mc.name, step, err)
				}
				resultsEqual(t, mc.name, workers, p, want[step], got)
				// Repeating a solve computes nothing; the duplicated
				// subtree, last, follows a quantum change that misses
				// every node, so its hits are repeats inside the solve.
				switch {
				case step == 1 && memo.Stats.Misses != before.Misses:
					t.Fatalf("%s[w=%d]: repeating a solve computed %d nodes, want 0",
						mc.name, workers, memo.Stats.Misses-before.Misses)
				case step == len(seq)-1 && memo.Stats.Hits == before.Hits:
					t.Fatalf("%s[w=%d]: no repeat served inside the duplicated-subtree solve", mc.name, workers)
				}
			}
		}
	}
}

// TestNodeMemoCancel cuts a memoized solve at every cancellation poll
// in turn, on a memo warmed by the previous problem, and then requires
// the next uncancelled solve through the same memo to equal a fresh
// solve. A node cut short must never be stored, or served later.
func TestNodeMemoCancel(t *testing.T) {
	base := randomProblem(3, 6, 6, 8, Mode{LexDepth: 1}, false)
	next := *base
	next.T = cloneTree(base.T)
	for i := range next.T.Nodes {
		if next.T.Nodes[i].IsLeaf() {
			next.T.Nodes[i].Arr += 0.5
			break
		}
	}
	want, err := next.Solve()
	if err != nil {
		t.Fatalf("plain solve: %v", err)
	}
	warm := *base
	warm.Memo = NewNodeMemo()
	if _, err := warm.Solve(); err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	cancelled := 0
	for cut := int64(1); ; cut++ {
		if cut > 10000 {
			t.Fatal("solve still cancelled after 10000 polls")
		}
		// Each cut starts from a copy of the warmed memo with sets of
		// its own: the memo recycles the sets it releases, so two memos
		// sharing them would overwrite each other's.
		memo := cloneMemo(warm.Memo)
		par := next
		par.Memo = memo
		par.Parallelism = 4
		got, err := par.SolveContext(&cutCtx{Context: context.Background(), cut: cut})
		switch {
		case err == nil:
			resultsEqual(t, "cut", 4, &next, want, got)
		case !errors.Is(err, context.Canceled):
			t.Fatalf("cut %d: %v", cut, err)
		}
		after, aerr := par.Solve()
		if aerr != nil {
			t.Fatalf("cut %d: solve after the cut: %v", cut, aerr)
		}
		resultsEqual(t, "after-cut", 4, &next, want, after)
		if err == nil {
			break
		}
		cancelled++
	}
	if cancelled < 2 {
		t.Fatalf("only %d cuts cancelled the solve; the problem is too small to cut inside a level", cancelled)
	}
}

// cloneMemo copies m's previous generation into a new memo, each node's
// tables copied too.
func cloneMemo(m *NodeMemo) *NodeMemo {
	c := NewNodeMemo()
	for _, k := range m.lastKeys {
		ns := m.last[k]
		c.last[k] = nodeSols{sols: slices.Clone(ns.sols), off: slices.Clone(ns.off), joinPool: slices.Clone(ns.joinPool)}
		c.lastKeys = append(c.lastKeys, k)
	}
	return c
}

// sameSig compares two signatures bit for bit.
func sameSig(a, b *Sig) bool {
	bits := math.Float64bits
	if bits(a.Cost) != bits(b.Cost) || bits(a.TC) != bits(b.TC) || bits(a.R) != bits(b.R) {
		return false
	}
	for k := range a.D {
		if bits(a.D[k]) != bits(b.D[k]) {
			return false
		}
	}
	return a.W == b.W && a.Branch == b.Branch && a.Peak == b.Peak
}

// TestSlabClassBound pins the slab pool's size classes: a request's
// class holds it, wastes less than a quarter of it, and is the class a
// slab of exactly that class size returns to, so a returned slab is
// served again to every request of its class.
func TestSlabClassBound(t *testing.T) {
	prev := -1
	for n := 0; n <= 1<<16; n++ {
		class, size := slabClass(n)
		if size < n || (n > 4 && 4*size >= 5*n) {
			t.Fatalf("request %d: class size %d, want in [n, 1.25n)", n, size)
		}
		if class != prev && class != prev+1 {
			t.Fatalf("request %d: class %d after %d, want classes in order without gaps", n, class, prev)
		}
		prev = class
		if got := floorClass(size); got != class {
			t.Fatalf("a slab of capacity %d returns to class %d, want %d", size, got, class)
		}
		if got := floorClass(n); classSize(got) > n {
			t.Fatalf("a slab of capacity %d returns to class %d of size %d", n, got, classSize(got))
		}
	}
}
