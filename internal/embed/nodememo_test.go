package embed

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
)

// These tests pin the node memo's contract: a solve through a memo —
// whatever the memo served from earlier solves, from repeats inside
// the same solve or from its root slot — is bit-identical to a solve
// without one, node by node and vertex by vertex, and a cancelled solve
// cannot leave a partial node or root behind for the next one.

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

// Steps of memoSequence that repeat the solve before them, the second
// under other NodeIDs: both serve every node and the root from the memo.
const (
	stepRepeat   = 1
	stepPermuted = 2
)

// memoSequence derives from base the problems a memo sees in turn: the
// same problem, the same problem under permuted NodeIDs, one internal
// node's placement cost changed at one vertex, one leaf's arrival
// changed, one edge cost changed, the delay quantum changed, and a tree
// with a duplicated subtree (so repeats occur inside one solve, leaves
// and gates alike).
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

	seq := []*Problem{base, base, permuteIDs(base)}

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

// cloneGraph deep-copies a graph's edges and blocked flags.
func cloneGraph(g *Graph) *Graph {
	c := *g
	c.adj = make([][]Edge, len(g.adj))
	for v := range g.adj {
		c.adj[v] = append([]Edge(nil), g.adj[v]...)
	}
	c.blocked = append([]bool(nil), g.blocked...)
	return &c
}

// permuteIDs renumbers base's nodes in reverse, keeping every node's
// children in order and every node's placement costs.
func permuteIDs(base *Problem) *Problem {
	n := NodeID(len(base.T.Nodes))
	t := &Tree{Nodes: make([]Node, n), Root: n - 1 - base.T.Root}
	for i, nd := range base.T.Nodes {
		kids := make([]NodeID, len(nd.Children))
		for j, c := range nd.Children {
			kids[j] = n - 1 - c
		}
		nd.Children = kids
		t.Nodes[n-1-NodeID(i)] = nd
	}
	p := *base
	p.T = t
	p.PlaceCost = func(node NodeID, v Vertex) float64 { return base.PlaceCost(n-1-node, v) }
	return &p
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
// bit. The permuted step extracts under its own NodeIDs, so a root
// served from the slot must be bound to the new tree.
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
				before, beforeRoots := memo.Stats, memo.Roots
				got, err := memoized.Solve()
				if err != nil {
					t.Fatalf("%s step %d: memo solve: %v", mc.name, step, err)
				}
				resultsEqual(t, mc.name, workers, p, want[step], got)
				// Repeating a solve, under the same NodeIDs or not,
				// computes nothing and serves the root from the slot;
				// the duplicated subtree, last, follows a quantum change
				// that misses every node, so its hits are repeats inside
				// the solve.
				repeat := step == stepRepeat || step == stepPermuted
				switch {
				case repeat && memo.Stats.Misses != before.Misses:
					t.Fatalf("%s[w=%d] step %d: repeating a solve computed %d nodes, want 0",
						mc.name, workers, step, memo.Stats.Misses-before.Misses)
				case repeat && (memo.Roots.Hits != beforeRoots.Hits+1 || memo.Roots.Misses != beforeRoots.Misses):
					t.Fatalf("%s[w=%d] step %d: root slot %+v after %+v, want one more hit",
						mc.name, workers, step, memo.Roots, beforeRoots)
				case step == len(seq)-1 && memo.Stats.Hits == before.Hits:
					t.Fatalf("%s[w=%d]: no repeat served inside the duplicated-subtree solve", mc.name, workers)
				}
			}
		}
	}
}

// TestNodeMemoBoundKey pins the bound's place in the memo key: what the
// status-quo prune keeps of a node depends on T, so two solves that
// differ only in T share no node and no root, while a repeated bounded
// solve still serves its root from the slot. Every solve must equal a
// solve without the memo.
func TestNodeMemoBoundKey(t *testing.T) {
	base := randomProblem(11, 7, 7, 6, Mode{LexDepth: 1}, false)
	ref, err := base.Solve()
	if err != nil {
		t.Fatalf("unbounded solve: %v", err)
	}
	if len(ref.Frontier) < 2 {
		t.Fatal("instance has a one-point frontier; the two bounds would prune alike")
	}
	// The cheapest point is the slowest: loose keeps the whole frontier,
	// tight only its fastest point.
	fast, _ := ref.SelectFastest()
	loose, tight := *base, *base
	loose.Bound = ref.Frontier[0].Sig.D[0] + 1
	tight.Bound = fast.Sig.D[0]
	// The hits a solve scores through a fresh memo are repeats inside
	// that solve; through a shared memo, anything more is a node served
	// from the other solve.
	inner := func(p *Problem) int {
		q := *p
		q.Memo = NewNodeMemo()
		if _, err := q.Solve(); err != nil {
			t.Fatalf("fresh memo solve: %v", err)
		}
		return q.Memo.Stats.Hits
	}
	memo := NewNodeMemo()
	for step, p := range []*Problem{&loose, &tight, &tight} {
		want, err := p.Solve()
		if err != nil {
			t.Fatalf("step %d: plain solve: %v", step, err)
		}
		q := *p
		q.Memo = memo
		before, beforeRoots := memo.Stats, memo.Roots
		got, err := q.Solve()
		if err != nil {
			t.Fatalf("step %d: memo solve: %v", step, err)
		}
		resultsEqual(t, "bound-key", 1, p, want, got)
		hits := memo.Stats.Hits - before.Hits
		switch step {
		case 1:
			if repeats := inner(p); hits != repeats {
				t.Fatalf("a solve with another bound served %d nodes, want the %d repeats inside it", hits, repeats)
			}
			if memo.Roots.Hits != beforeRoots.Hits {
				t.Fatal("a solve with another bound hit the root slot")
			}
		case 2:
			if memo.Stats.Misses != before.Misses || memo.Roots.Hits != beforeRoots.Hits+1 {
				t.Fatalf("repeating a bounded solve computed %d nodes and scored root %+v after %+v, want 0 and one more hit",
					memo.Stats.Misses-before.Misses, memo.Roots, beforeRoots)
			}
		}
	}
}

// TestNodeMemoCancel cuts a memoized solve at every cancellation poll
// in turn and then requires the next uncancelled solve through the same
// memo to equal a fresh solve. A node cut short must never be stored,
// or served later, and a cancelled solve must leave the root slot as it
// was. The memo is warmed either by the previous problem, so the cut
// solve computes nodes and its root, or by the same problem, so a cut
// empties the memo while its slot still holds this root: the solve
// after it recomputes every node and serves the root from the slot.
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
	for _, from := range []*Problem{base, &next} {
		warm := *from
		warm.Memo = NewNodeMemo()
		if _, err := warm.Solve(); err != nil {
			t.Fatalf("warm solve: %v", err)
		}
		slot := warm.Memo.root
		cancelled := 0
		for cut := int64(1); ; cut++ {
			if cut > 10000 {
				t.Fatal("solve still cancelled after 10000 polls")
			}
			// Each cut starts from a copy of the warmed memo with sets of
			// its own: the memo recycles the sets it releases, so two
			// memos sharing them would overwrite each other's.
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
			case memo.root.key != slot.key || len(memo.root.frontier) != len(slot.frontier):
				t.Fatalf("cut %d: the cancelled solve replaced the root slot", cut)
			}
			roots := memo.Roots
			after, aerr := par.Solve()
			if aerr != nil {
				t.Fatalf("cut %d: solve after the cut: %v", cut, aerr)
			}
			resultsEqual(t, "after-cut", 4, &next, want, after)
			if from == &next && memo.Roots.Hits != roots.Hits+1 {
				t.Fatalf("cut %d: the solve after the cut missed the root slot", cut)
			}
			if err == nil {
				break
			}
			cancelled++
		}
		if from == base && cancelled < 2 {
			t.Fatalf("only %d cuts cancelled the solve; the problem is too small to cut inside a level", cancelled)
		}
	}
}

// cloneMemo copies m's previous generation and root slot into a new
// memo, each node's tables copied too.
func cloneMemo(m *NodeMemo) *NodeMemo {
	c := NewNodeMemo()
	for _, k := range m.lastKeys {
		c.last[k] = cloneSols(m.last[k])
		c.lastKeys = append(c.lastKeys, k)
	}
	c.root.key = m.root.key
	c.root.sols = cloneSols(m.root.sols)
	c.root.frontier = slices.Clone(m.root.frontier)
	return c
}

// cloneSols copies a node's tables.
func cloneSols(ns nodeSols) nodeSols {
	return nodeSols{sols: slices.Clone(ns.sols), off: slices.Clone(ns.off), joinPool: slices.Clone(ns.joinPool)}
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
