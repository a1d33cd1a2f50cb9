package embed

import "fmt"

// NodeID indexes a node within a Tree.
type NodeID = int32

// Node is one node of the fanin tree to embed.
//
// Leaves (no children) are fixed: they sit at Vertex with signal
// arrival time Arr. Internal nodes are gates to be placed; they carry
// an intrinsic delay and (via Problem.PlaceCost) a per-vertex placement
// cost. The root is an internal node; if its Vertex is >= 0 it is
// constrained to that location (the usual case — the critical sink is
// fixed), while Vertex < 0 leaves the root free, the mode used for FF
// relocation (Section V-D).
type Node struct {
	// Children lists the fanin subtrees (empty for leaves). Arbitrary
	// arity is supported, matching the paper's extension beyond binary
	// trees.
	Children []NodeID
	// Vertex fixes a leaf's (or the root's) location; -1 means free.
	Vertex Vertex
	// Arr is the leaf's signal arrival time (Section II-C: zero for
	// PIs and FFs, STA arrival for reconvergence-terminator leaves).
	Arr float64
	// Intrinsic is the gate delay added when the signal passes through
	// this internal node (or the sink's intrinsic delay at the root).
	Intrinsic float64
	// Critical marks a leaf as the replication tree's critical input
	// (largest downstream delay), the input whose path Lex-mc
	// additionally optimizes. Leaves created as reconvergence
	// terminators are never critical.
	Critical bool
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Tree is a fanin tree (or Leaf-DAG — distinct leaf nodes may refer to
// the same physical cell, which is fine because leaf timing is fixed).
type Tree struct {
	Nodes []Node
	Root  NodeID
}

// Validate checks that the tree is well formed: every non-root node has
// exactly one parent, leaves have fixed vertices, and children indices
// are in range. maxVertex is the embedding graph's vertex count.
func (t *Tree) Validate(maxVertex int) error {
	if t.Root < 0 || int(t.Root) >= len(t.Nodes) {
		return fmt.Errorf("embed: root %d out of range", t.Root)
	}
	parents := make([]int, len(t.Nodes))
	for i := range t.Nodes {
		n := &t.Nodes[i]
		for _, c := range n.Children {
			if c < 0 || int(c) >= len(t.Nodes) {
				return fmt.Errorf("embed: node %d child %d out of range", i, c)
			}
			if c == NodeID(i) {
				return fmt.Errorf("embed: node %d is its own child", i)
			}
			parents[c]++
		}
		if n.IsLeaf() {
			if n.Vertex < 0 || int(n.Vertex) >= maxVertex {
				return fmt.Errorf("embed: leaf %d vertex %d out of range", i, n.Vertex)
			}
		} else if n.Vertex >= 0 && int(n.Vertex) >= maxVertex {
			return fmt.Errorf("embed: node %d fixed vertex %d out of range", i, n.Vertex)
		}
	}
	for i, p := range parents {
		if NodeID(i) == t.Root {
			if p != 0 {
				return fmt.Errorf("embed: root has a parent")
			}
			continue
		}
		if p != 1 {
			return fmt.Errorf("embed: node %d has %d parents, want 1", i, p)
		}
	}
	if t.Nodes[t.Root].IsLeaf() {
		return fmt.Errorf("embed: root must be internal")
	}
	// Reachability: every node must be in the root's subtree.
	seen := make([]bool, len(t.Nodes))
	var walk func(NodeID) int
	walk = func(id NodeID) int {
		if seen[id] {
			return 0
		}
		seen[id] = true
		count := 1
		for _, c := range t.Nodes[id].Children {
			count += walk(c)
		}
		return count
	}
	if got := walk(t.Root); got != len(t.Nodes) {
		return fmt.Errorf("embed: %d of %d nodes reachable from root", got, len(t.Nodes))
	}
	return nil
}

// PostOrder returns internal node IDs in bottom-up order (children
// before parents), the processing order of the DP.
func (t *Tree) PostOrder() []NodeID {
	order := make([]NodeID, 0, len(t.Nodes))
	var walk func(NodeID)
	walk = func(id NodeID) {
		for _, c := range t.Nodes[id].Children {
			walk(c)
		}
		order = append(order, id)
	}
	walk(t.Root)
	return order
}
