package rtree

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/embed"
	"repro/internal/netlist"
	"repro/internal/timing"
)

type mapLoc map[netlist.CellID]arch.Loc

func (m mapLoc) Loc(id netlist.CellID) arch.Loc { return m[id] }

func dm() arch.DelayModel { return arch.DelayModel{SegDelay: 1, LUTDelay: 2, IODelay: 0.5} }

// fig8 reconstructs the circuit of Fig. 8: inputs x,y,z,w; LUTs
// a(x,y), b(y,z), c(z,w), d(a,c), f(b,c,d); output pad out(f).
func fig8(t *testing.T) (*netlist.Netlist, mapLoc) {
	t.Helper()
	n := netlist.New("fig8")
	for _, in := range []string{"x", "y", "z", "w"} {
		n.AddCell(in, netlist.IPad, 0)
	}
	mk := func(name string, ins ...string) *netlist.Cell {
		c := n.AddCell(name, netlist.LUT, len(ins))
		for i, s := range ins {
			n.ConnectByName(c.ID, i, s)
		}
		return c
	}
	mk("a", "x", "y")
	mk("b", "y", "z")
	mk("c", "z", "w")
	mk("d", "a", "c")
	mk("f", "b", "c", "d")
	o := n.AddCell("out", netlist.OPad, 1)
	n.ConnectByName(o.ID, 0, "f")
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	loc := mapLoc{}
	at := func(name string, x, y int16) {
		id, _ := n.CellByName(name)
		loc[id] = arch.Loc{X: x, Y: y}
	}
	at("x", 0, 1)
	at("y", 0, 3)
	at("z", 0, 5)
	at("w", 0, 7)
	at("a", 2, 2)
	at("b", 2, 4)
	at("c", 2, 6)
	at("d", 4, 3)
	at("f", 6, 4)
	at("out", 8, 4)
	return n, loc
}

func id(t *testing.T, n *netlist.Netlist, name string) netlist.CellID {
	t.Helper()
	cid, ok := n.CellByName(name)
	if !ok {
		t.Fatalf("no cell %q", name)
	}
	return cid
}

// TestReplicationTreeFig8 reproduces the construction of Fig. 8: with
// members {out, f, d, a, b} the induced fanin tree has internal nodes
// f, d, a, b, while c appears twice as a shared leaf (Leaf-DAG) — "d^R
// and f^R connect to c rather than c^R".
func TestReplicationTreeFig8(t *testing.T) {
	n, loc := fig8(t)
	a, err := timing.Analyze(n, loc, dm())
	if err != nil {
		t.Fatal(err)
	}
	out := id(t, n, "out")
	spt := timing.BuildSPT(n, loc, dm(), a, out)
	members := map[netlist.CellID]bool{
		out: true, id(t, n, "f"): true, id(t, n, "d"): true,
		id(t, n, "a"): true, id(t, n, "b"): true,
	}
	rt, err := Build(n, a, spt, members)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Root().Cell != out {
		t.Errorf("root cell = %v, want out", rt.Root().Cell)
	}
	// Internal cells are exactly f, d, a, b.
	want := []netlist.CellID{id(t, n, "a"), id(t, n, "b"), id(t, n, "d"), id(t, n, "f")}
	got := rt.Cells()
	if len(got) != len(want) {
		t.Fatalf("internal cells = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("internal cells = %v, want %v", got, want)
		}
	}
	if rt.Internal != 4 {
		t.Errorf("Internal = %d, want 4", rt.Internal)
	}
	// c appears exactly twice, both times as a leaf.
	cID := id(t, n, "c")
	cLeafCount := 0
	for i := range rt.Nodes {
		node := &rt.Nodes[i]
		if node.Cell == cID {
			if !node.IsLeaf() {
				t.Error("c must be a leaf (reconvergence terminator)")
			}
			cLeafCount++
			// Its arrival is the STA arrival of the original cell.
			if node.Arr != a.Arr[cID] {
				t.Errorf("leaf c arrival = %v, want %v", node.Arr, a.Arr[cID])
			}
		}
	}
	if cLeafCount != 2 {
		t.Errorf("c appears %d times, want 2 (shared Leaf-DAG leaf)", cLeafCount)
	}
	// Internal nodes appear exactly once each.
	seen := map[netlist.CellID]int{}
	for i := range rt.Nodes {
		if !rt.Nodes[i].IsLeaf() {
			seen[rt.Nodes[i].Cell]++
		}
	}
	for cell, count := range seen {
		if count != 1 {
			t.Errorf("cell %v appears %d times as internal node", cell, count)
		}
	}
	// Children order mirrors fanin pin order: f's children are pins
	// 0 (b), 1 (c), 2 (d).
	var fNode *Node
	for i := range rt.Nodes {
		if rt.Nodes[i].Cell == id(t, n, "f") && !rt.Nodes[i].IsLeaf() {
			fNode = &rt.Nodes[i]
		}
	}
	if fNode == nil {
		t.Fatal("no internal node for f")
	}
	wantKids := []netlist.CellID{id(t, n, "b"), cID, id(t, n, "d")}
	for i, ci := range fNode.Children {
		if rt.Nodes[ci].Cell != wantKids[i] {
			t.Errorf("f child %d = cell %v, want %v", i, rt.Nodes[ci].Cell, wantKids[i])
		}
		if rt.Nodes[ci].Pin != int32(i) {
			t.Errorf("f child %d pin = %d, want %d", i, rt.Nodes[ci].Pin, i)
		}
	}
}

// TestBuildFullEpsilon uses the full cone as members: every movable
// LUT with a member parent becomes internal; c joins the tree under
// its SPT parent and still terminates reconvergence at the other
// fanout.
func TestBuildFullEpsilon(t *testing.T) {
	n, loc := fig8(t)
	a, _ := timing.Analyze(n, loc, dm())
	out := id(t, n, "out")
	spt := timing.BuildSPT(n, loc, dm(), a, out)
	members := spt.Epsilon(math.Inf(1))
	rt, err := Build(n, a, spt, members)
	if err != nil {
		t.Fatal(err)
	}
	// All five LUTs are internal now.
	if rt.Internal != 5 {
		t.Errorf("Internal = %d, want 5", rt.Internal)
	}
	// c is internal exactly once and a leaf exactly once (it feeds
	// both d and f but has one SPT parent).
	cID := id(t, n, "c")
	internal, leaf := 0, 0
	for i := range rt.Nodes {
		if rt.Nodes[i].Cell != cID {
			continue
		}
		if rt.Nodes[i].IsLeaf() {
			leaf++
		} else {
			internal++
		}
	}
	if internal != 1 || leaf != 1 {
		t.Errorf("c: internal=%d leaf=%d, want 1 and 1", internal, leaf)
	}
	// Pads never become internal (the root is the sink itself and is
	// not replicated, so it is exempt).
	for i := 1; i < len(rt.Nodes); i++ {
		node := &rt.Nodes[i]
		if !node.IsLeaf() && n.Cell(node.Cell).Kind != netlist.LUT {
			t.Errorf("non-LUT cell %v became internal", node.Cell)
		}
	}
}

// TestCriticalInputMark: exactly one true-input leaf is marked, and it
// is the one with the largest slowest-path-through delay.
func TestCriticalInputMark(t *testing.T) {
	n, loc := fig8(t)
	a, _ := timing.Analyze(n, loc, dm())
	out := id(t, n, "out")
	spt := timing.BuildSPT(n, loc, dm(), a, out)
	rt, err := Build(n, a, spt, spt.Epsilon(math.Inf(1)))
	if err != nil {
		t.Fatal(err)
	}
	marked := 0
	var markedCell netlist.CellID
	for i := range rt.Nodes {
		node := &rt.Nodes[i]
		if node.Critical {
			marked++
			markedCell = node.Cell
			if !node.IsLeaf() || node.Arr != 0 {
				t.Error("critical mark must be on a true-input (arrival 0) leaf")
			}
		}
	}
	if marked != 1 {
		t.Fatalf("marked %d critical inputs, want 1", marked)
	}
	// Verify it's the max-PathThrough input among arrival-0 leaves.
	best := markedCell
	for i := range rt.Nodes {
		node := &rt.Nodes[i]
		if !node.IsLeaf() || node.Arr != 0 {
			continue
		}
		if spt.PathThrough[node.Cell] > spt.PathThrough[best] {
			t.Errorf("leaf %v has larger PathThrough than marked %v", node.Cell, best)
		}
	}
}

// TestToEmbedProblem: the conversion yields a valid embed tree with
// correct vertices, arrival times, clamping, and lower bound.
func TestToEmbedProblem(t *testing.T) {
	n, loc := fig8(t)
	a, _ := timing.Analyze(n, loc, dm())
	out := id(t, n, "out")
	spt := timing.BuildSPT(n, loc, dm(), a, out)
	rt, err := Build(n, a, spt, spt.Epsilon(math.Inf(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Window covering x in [1,8], y in [1,7]: input pads at x=0 are
	// outside and must be clamped with pre-charged delay.
	g := embed.NewGrid(embed.GridSpec{X0: 1, Y0: 1, W: 8, H: 7, WireCost: 1, WireDelay: dm().SegDelay})
	ep, err := rt.ToEmbedProblem(g, n, loc, dm(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Tree.Validate(g.NumVertices()); err != nil {
		t.Fatalf("embed tree invalid: %v", err)
	}
	// Root is fixed at the sink's location.
	rootV := ep.Tree.Nodes[ep.Tree.Root].Vertex
	if g.LocOf(rootV) != loc[out] {
		t.Errorf("root vertex at %v, want %v", g.LocOf(rootV), loc[out])
	}
	// Clamped leaves: an input pad at (0,3) maps to (1,3) with one
	// unit of wire delay pre-charged.
	yID := id(t, n, "y")
	for i := range rt.Nodes {
		if rt.Nodes[i].Cell != yID {
			continue
		}
		en := ep.Tree.Nodes[i]
		if g.LocOf(en.Vertex) != (arch.Loc{X: 1, Y: 3}) {
			t.Errorf("clamped y at %v, want (1,3)", g.LocOf(en.Vertex))
		}
		if en.Arr != dm().SegDelay*1 {
			t.Errorf("clamped y arrival = %v, want %v", en.Arr, dm().SegDelay)
		}
	}
	// Lower bound is positive and no greater than the current arrival.
	if ep.LowerBound <= 0 || ep.LowerBound > a.SinkArr[out] {
		t.Errorf("LowerBound = %v, want in (0, %v]", ep.LowerBound, a.SinkArr[out])
	}
	// Solving the embedding must succeed and beat nothing worse than
	// the current arrival (re-embedding at current locations is always
	// available).
	p := &embed.Problem{G: g, T: ep.Tree, Mode: embed.Mode{LexDepth: 1, Delay: embed.LinearDelay}}
	r, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	fastest, _ := r.SelectFastest()
	if fastest.Sig.D[0] > a.SinkArr[out]+1e-9 {
		t.Errorf("embedder's fastest %v worse than current arrival %v", fastest.Sig.D[0], a.SinkArr[out])
	}
	if fastest.Sig.D[0] < ep.LowerBound-1e-9 {
		t.Errorf("embedder beat the theoretical lower bound: %v < %v", fastest.Sig.D[0], ep.LowerBound)
	}
}

// TestBuildRequiresSink: member sets not containing the sink are
// rejected.
func TestBuildRequiresSink(t *testing.T) {
	n, loc := fig8(t)
	a, _ := timing.Analyze(n, loc, dm())
	out := id(t, n, "out")
	spt := timing.BuildSPT(n, loc, dm(), a, out)
	if _, err := Build(n, a, spt, map[netlist.CellID]bool{id(t, n, "f"): true}); err == nil {
		t.Error("Build should reject member set without the sink")
	}
}

// TestFig15Reconvergence builds the exact subcircuit of Fig. 15 and
// checks that the replication tree has e both as an internal node
// (e^R) and as a fixed reconvergence-terminator leaf.
func TestFig15Reconvergence(t *testing.T) {
	// Circuit: inputs a, b, c; d(a), e(b, c); f(d, e); e also feeds f
	// via reconvergence... Per the figure: d's inputs {a, e}? The text:
	// internal nodes d and e, sink f; reconvergence on e.
	// We model: e(b,c), d(a,e), f(d,e).
	n := netlist.New("fig15")
	for _, in := range []string{"a", "b", "c"} {
		n.AddCell(in, netlist.IPad, 0)
	}
	e := n.AddCell("e", netlist.LUT, 2)
	n.ConnectByName(e.ID, 0, "b")
	n.ConnectByName(e.ID, 1, "c")
	d := n.AddCell("d", netlist.LUT, 2)
	n.ConnectByName(d.ID, 0, "a")
	n.ConnectByName(d.ID, 1, "e")
	f := n.AddCell("f", netlist.OPad, 1)
	// f is driven by a LUT g(d, e) so the sink has one input.
	g := n.AddCell("g", netlist.LUT, 2)
	n.ConnectByName(g.ID, 0, "d")
	n.ConnectByName(g.ID, 1, "e")
	n.ConnectByName(f.ID, 0, "g")
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	loc := mapLoc{}
	at := func(name string, x, y int16) {
		cid, _ := n.CellByName(name)
		loc[cid] = arch.Loc{X: x, Y: y}
	}
	at("a", 0, 1)
	at("b", 0, 3)
	at("c", 0, 5)
	at("e", 2, 4)
	at("d", 4, 2)
	at("g", 6, 3)
	at("f", 8, 3)

	a, err := timing.Analyze(n, loc, dm())
	if err != nil {
		t.Fatal(err)
	}
	fID, _ := n.CellByName("f")
	spt := timing.BuildSPT(n, loc, dm(), a, fID)
	rt, err := Build(n, a, spt, spt.Epsilon(math.Inf(1)))
	if err != nil {
		t.Fatal(err)
	}
	// e must appear once as internal (e^R, under its SPT parent) and
	// once as a leaf "where reconvergence breaks".
	internal, leaf := 0, 0
	for i := range rt.Nodes {
		if rt.Nodes[i].Cell != e.ID {
			continue
		}
		if rt.Nodes[i].IsLeaf() {
			leaf++
			if rt.Nodes[i].Arr != a.Arr[e.ID] {
				t.Errorf("terminator leaf arrival = %v, want STA arrival %v",
					rt.Nodes[i].Arr, a.Arr[e.ID])
			}
		} else {
			internal++
		}
	}
	if internal != 1 || leaf != 1 {
		t.Errorf("e: internal=%d leaf=%d, want 1 and 1 (Fig. 15 middle)", internal, leaf)
	}
	_ = d
	_ = g
}

// TestEqual pins the tree comparison the engine's iteration replay
// relies on: member sets that differ only in cells that cannot become
// internal (an input pad) induce equal trees, while a different
// internal set, a changed field or a nil tree compare unequal.
func TestEqual(t *testing.T) {
	n, loc := fig8(t)
	a, err := timing.Analyze(n, loc, dm())
	if err != nil {
		t.Fatal(err)
	}
	out := id(t, n, "out")
	spt := timing.BuildSPT(n, loc, dm(), a, out)
	build := func(names ...string) *RTree {
		t.Helper()
		members := map[netlist.CellID]bool{out: true}
		for _, name := range names {
			members[id(t, n, name)] = true
		}
		rt, err := Build(n, a, spt, members)
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	base := build("f", "d")
	if !base.Equal(build("f", "d")) || !base.Equal(build("f", "d", "x")) {
		t.Fatal("trees built from the same internal cells compare unequal")
	}
	if base.Equal(build("f", "d", "a")) || base.Equal(nil) {
		t.Fatal("a different tree or no tree compares equal")
	}
	for name, mutate := range map[string]func(*Node){
		"pin":      func(nd *Node) { nd.Pin++ },
		"arr":      func(nd *Node) { nd.Arr++ },
		"critical": func(nd *Node) { nd.Critical = !nd.Critical },
		"children": func(nd *Node) { nd.Children = append(nd.Children[:len(nd.Children):len(nd.Children)], 0) },
	} {
		o := build("f", "d")
		mutate(&o.Nodes[1])
		if base.Equal(o) {
			t.Errorf("a tree with another %s compares equal", name)
		}
	}
}
