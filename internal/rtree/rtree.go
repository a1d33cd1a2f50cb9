// Package rtree constructs replication trees (Section III of the
// paper): given an ε-SPT — a set of timing-tree edges pointing at a
// critical sink — it induces a genuine fanin tree in a logically
// equivalent netlist by (conceptually) replicating every movable cell
// in the set. Cells outside the set, fixed cells, and reconvergence
// terminators become leaves with known arrival times; the same leaf
// cell may feed several tree nodes (a Leaf-DAG), which the embedder
// handles because leaf timing is fixed.
package rtree

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/arch"
	"repro/internal/embed"
	"repro/internal/netlist"
	"repro/internal/timing"
)

// Node is one replication-tree node.
type Node struct {
	// Cell is the netlist cell this node refers to: for internal nodes
	// the cell to be (temporarily) replicated; for leaves the fixed
	// cell supplying the signal.
	Cell netlist.CellID
	// Children indexes fanin subtrees (empty for leaves). For internal
	// nodes, Children[i] corresponds 1:1 with the cell's fanin pin i.
	Children []int32
	// Pin is, for internal (non-root) nodes, the input pin of the
	// parent cell this node feeds.
	Pin int32
	// Arr is a leaf's signal arrival time from static timing analysis.
	Arr float64
	// Critical marks the critical input leaf (largest downstream
	// delay among true inputs) used by the Lex-mc objective.
	Critical bool
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// RTree is a replication tree rooted at a timing sink.
type RTree struct {
	// Nodes[0] is the root (the sink cell, never replicated).
	Nodes []Node
	// Internal counts internal (replicable) nodes, excluding the root.
	Internal int
}

// Root returns the root node.
func (t *RTree) Root() *Node { return &t.Nodes[0] }

// Equal reports whether t and o are the same tree, node for node; a
// nil o equals no tree.
func (t *RTree) Equal(o *RTree) bool {
	return o != nil && t.Internal == o.Internal && slices.EqualFunc(t.Nodes, o.Nodes, func(a, b Node) bool {
		return a.Cell == b.Cell && a.Pin == b.Pin && math.Float64bits(a.Arr) == math.Float64bits(b.Arr) &&
			a.Critical == b.Critical && slices.Equal(a.Children, b.Children)
	})
}

// Movable reports whether a cell may become an internal tree node: a
// live, non-registered LUT. Pads and registered LUTs are timing
// boundaries and stay fixed (FF relocation is handled separately, by
// freeing the embedding root — Section V-D).
func Movable(nl *netlist.Netlist, id netlist.CellID) bool {
	c := nl.Cell(id)
	return c.Kind == netlist.LUT && !c.Registered
}

// Build constructs the replication tree for the ε-SPT membership set
// `members` (which must include spt.Sink). Every movable member cell
// whose SPT parent is also a member becomes an internal node; every
// other fanin becomes a leaf carrying its STA arrival time, exactly
// following the paper's wiring rule: "if (u_i, v) is a tree edge, then
// v^R receives its i'th input from u_i^R; otherwise from u_i".
func Build(nl *netlist.Netlist, a *timing.Analysis, spt *timing.SPT, members map[netlist.CellID]bool) (*RTree, error) {
	if !members[spt.Sink] {
		return nil, fmt.Errorf("rtree: member set does not include the sink")
	}
	t := &RTree{}
	t.Nodes = append(t.Nodes, Node{Cell: spt.Sink})

	// internal(u, v): u becomes an internal node feeding v iff u is a
	// member, movable, and its slowest path runs through v (tree edge).
	internal := func(u, v netlist.CellID) bool {
		return members[u] && Movable(nl, u) && spt.Parent[u] == v
	}

	var build func(nodeIdx int32) error
	build = func(nodeIdx int32) error {
		cell := t.Nodes[nodeIdx].Cell
		c := nl.Cell(cell)
		for pin, net := range c.Fanin {
			if net == netlist.None {
				continue
			}
			u := nl.Net(net).Driver
			child := Node{Cell: u, Pin: int32(pin)}
			childIdx := int32(len(t.Nodes))
			if internal(u, cell) {
				t.Nodes = append(t.Nodes, child)
				t.Nodes[nodeIdx].Children = append(t.Nodes[nodeIdx].Children, childIdx)
				t.Internal++
				if err := build(childIdx); err != nil {
					return err
				}
			} else {
				child.Arr = a.Arr[u]
				t.Nodes = append(t.Nodes, child)
				t.Nodes[nodeIdx].Children = append(t.Nodes[nodeIdx].Children, childIdx)
			}
		}
		if len(t.Nodes[nodeIdx].Children) == 0 {
			return fmt.Errorf("rtree: internal cell %s has no connected fanins", c.Name)
		}
		return nil
	}
	if err := build(0); err != nil {
		return nil, err
	}
	t.markCriticalInput(spt)
	return t, nil
}

// markCriticalInput marks the true-input leaf (arrival zero — "in this
// way we can distinguish them from the leaves that are created as
// reconvergence terminators") with the largest downstream delay, per
// the Lex-mc construction of Section VI-A. Ties break on the lowest
// cell ID for determinism.
func (t *RTree) markCriticalInput(spt *timing.SPT) {
	bestIdx := -1
	bestPT := 0.0
	for i := range t.Nodes {
		n := &t.Nodes[i]
		//replint:ignore floatcmp -- leaf arrivals are assigned exactly zero at construction, never computed
		if !n.IsLeaf() || n.Arr != 0 {
			continue
		}
		pt, ok := spt.PathThrough[n.Cell]
		if !ok {
			continue
		}
		//replint:ignore floatcmp -- exact tie on PathThrough breaks to the lowest cell ID; bitwise equality is the tie-break semantics
		if bestIdx < 0 || pt > bestPT || (pt == bestPT && n.Cell < t.Nodes[bestIdx].Cell) {
			bestIdx, bestPT = i, pt
		}
	}
	if bestIdx >= 0 {
		t.Nodes[bestIdx].Critical = true
	}
}

// Cells returns the distinct cells appearing as internal nodes, in
// ascending ID order.
func (t *RTree) Cells() []netlist.CellID {
	seen := map[netlist.CellID]bool{}
	var out []netlist.CellID
	for i := 1; i < len(t.Nodes); i++ {
		if t.Nodes[i].IsLeaf() {
			continue
		}
		if !seen[t.Nodes[i].Cell] {
			seen[t.Nodes[i].Cell] = true
			out = append(out, t.Nodes[i].Cell)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EmbedProblem is the translation of a replication tree into an
// embedder instance.
type EmbedProblem struct {
	Tree *embed.Tree
	// NodeCell maps embed tree node IDs back to netlist cells.
	NodeCell []netlist.CellID
	// LowerBound is the best arrival achievable by this tree assuming
	// straight-line wiring and minimum tree depth (Section II-C's
	// selection bound).
	LowerBound float64
}

// ToEmbedProblem converts the replication tree for embedding on graph
// g. Leaves outside the graph window are clamped to the window border
// with the wire delay from their true location pre-charged into the
// leaf arrival time. intrinsic supplies each internal cell's gate
// delay; the root uses the sink's intrinsic delay.
func (t *RTree) ToEmbedProblem(g *embed.Graph, nl *netlist.Netlist, pl timing.Locator, dm arch.DelayModel, rootFree bool) (*EmbedProblem, error) {
	ep := &EmbedProblem{
		Tree: &embed.Tree{
			Nodes: make([]embed.Node, len(t.Nodes)),
			Root:  0,
		},
		NodeCell: make([]netlist.CellID, len(t.Nodes)),
	}
	for i := range t.Nodes {
		rn := &t.Nodes[i]
		en := &ep.Tree.Nodes[i]
		ep.NodeCell[i] = rn.Cell
		en.Children = append([]embed.NodeID(nil), rn.Children...)
		if rn.IsLeaf() {
			loc := pl.Loc(rn.Cell)
			clamped := g.ClampToWindow(loc)
			en.Vertex = g.VertexAt(clamped)
			en.Arr = rn.Arr + dm.WireDelay(arch.Dist(loc, clamped))
			en.Critical = rn.Critical
			continue
		}
		en.Intrinsic = Intrinsic(nl, dm, rn.Cell)
		if i == 0 {
			if rootFree {
				en.Vertex = -1
			} else {
				v := g.VertexAt(pl.Loc(rn.Cell))
				if v < 0 {
					return nil, fmt.Errorf("rtree: sink outside embedding window")
				}
				en.Vertex = v
			}
		} else {
			en.Vertex = -1
		}
	}
	ep.LowerBound = t.lowerBound(nl, pl, dm)
	return ep, nil
}

// Intrinsic returns the delay model's intrinsic delay for a cell.
func Intrinsic(nl *netlist.Netlist, dm arch.DelayModel, id netlist.CellID) float64 {
	return timing.Intrinsic(dm, nl.Cell(id))
}

// lowerBound computes the straight-line tree bound: for each leaf, its
// arrival plus the wire delay of the direct leaf-to-sink distance plus
// the gate delays of the internal nodes between them.
func (t *RTree) lowerBound(nl *netlist.Netlist, pl timing.Locator, dm arch.DelayModel) float64 {
	rootLoc := pl.Loc(t.Nodes[0].Cell)
	bound := 0.0
	var walk func(idx int32, gates float64)
	walk = func(idx int32, gates float64) {
		n := &t.Nodes[idx]
		if n.IsLeaf() {
			lb := n.Arr + dm.WireDelay(arch.Dist(pl.Loc(n.Cell), rootLoc)) + gates
			if lb > bound {
				bound = lb
			}
			return
		}
		for _, c := range n.Children {
			walk(c, gates+Intrinsic(nl, dm, n.Cell))
		}
	}
	root := t.Root()
	for _, c := range root.Children {
		walk(c, Intrinsic(nl, dm, root.Cell))
	}
	return bound
}
