// Package embed implements optimal timing-driven fanin tree embedding
// (Section II of the paper): given a fanin tree, fixed leaf and root
// locations, leaf arrival times, and an embedding graph describing the
// placement target, it places the internal tree nodes so as to derive
// the full non-dominated tradeoff between embedding cost and root
// arrival time.
//
// The algorithm is the dynamic program of Fig. 6: candidate solutions,
// represented by signatures, are combined bottom-up at every graph
// vertex (Join) and propagated through the graph by a generalized
// multi-source Dijkstra wavefront expansion (GenDijkstra) that discards
// dominated candidates. Signature variants implemented:
//
//   - 2-D (cost, t) for the linear delay model (Section II-C),
//   - Lex-2 … Lex-5 lexicographic subcritical arrival vectors
//     (Section VI-A),
//   - Lex-mc (cost, t, tc, w) critical-input optimization (Section VI-A),
//   - 3-D (cost, r, t) for quadratic/Elmore-style load-dependent wire
//     delay (Section II-D), exercised by the paper's worked example.
package embed

import (
	"fmt"

	"repro/internal/arch"
)

// Vertex indexes a location in the embedding graph.
type Vertex = int32

// Edge is a directed embedding-graph edge with wire cost and
// propagation delay (for the linear model) or wire resistance/
// capacitance length (for the load-dependent models, where Delay is
// interpreted as wire length per Section II-D).
type Edge struct {
	To    Vertex
	Cost  float64
	Delay float64
}

// Graph is the embedding target. It is deliberately generic — "the
// ability to work on arbitrary graphs implicitly allows support of
// nonuniform target technology structures" — with helpers for the
// common case of a uniform FPGA grid window.
type Graph struct {
	adj     [][]Edge
	blocked []bool

	// Grid metadata (zero for non-grid graphs): the graph covers FPGA
	// locations [x0, x0+w) x [y0, y0+h).
	w, h, x0, y0 int
}

// NewGraph returns an empty graph with n vertices and no edges.
func NewGraph(n int) *Graph {
	return &Graph{adj: make([][]Edge, n), blocked: make([]bool, n)}
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.adj) }

// AddEdge inserts a directed edge. Wire costs must be positive for the
// wavefront expansion to terminate.
func (g *Graph) AddEdge(from, to Vertex, cost, delay float64) {
	if cost <= 0 {
		panic(fmt.Sprintf("embed: edge cost must be positive, got %v", cost))
	}
	g.adj[from] = append(g.adj[from], Edge{To: to, Cost: cost, Delay: delay})
}

// EdgeCost returns the wire cost of the directed edge (from, to), or
// false when the graph has no such edge. Of parallel edges the first
// inserted wins. A scan of Adj(from): a vertex has a handful of
// out-edges, and only route reconstruction asks.
func (g *Graph) EdgeCost(from, to Vertex) (float64, bool) {
	for i := range g.adj[from] {
		if e := &g.adj[from][i]; e.To == to {
			return e.Cost, true
		}
	}
	return 0, false
}

// AddBiEdge inserts edges in both directions.
func (g *Graph) AddBiEdge(a, b Vertex, cost, delay float64) {
	g.AddEdge(a, b, cost, delay)
	g.AddEdge(b, a, cost, delay)
}

// Block marks a vertex unusable for placement and propagation, the
// mechanism behind "a designer may wish that certain areas of the
// design remain undisturbed" (Section II-A).
func (g *Graph) Block(v Vertex) { g.blocked[v] = true }

// Blocked reports whether v is blocked.
func (g *Graph) Blocked(v Vertex) bool { return g.blocked[v] }

// Adj returns the out-edges of v (shared slice; do not mutate).
func (g *Graph) Adj(v Vertex) []Edge { return g.adj[v] }

// GridSpec describes a rectangular window of FPGA slots to build an
// embedding graph over.
type GridSpec struct {
	// X0, Y0, W, H delimit the window in FPGA coordinates.
	X0, Y0, W, H int
	// WireCost is the cost per unit of wire (one grid edge).
	WireCost float64
	// WireDelay is the propagation delay per unit of wire.
	WireDelay float64
}

// NewGrid builds a 4-connected grid graph over the window.
func NewGrid(spec GridSpec) *Graph {
	if spec.W <= 0 || spec.H <= 0 {
		panic("embed: grid window must be non-empty")
	}
	g := NewGraph(spec.W * spec.H)
	g.w, g.h, g.x0, g.y0 = spec.W, spec.H, spec.X0, spec.Y0
	for y := 0; y < spec.H; y++ {
		for x := 0; x < spec.W; x++ {
			v := Vertex(y*spec.W + x)
			if x+1 < spec.W {
				g.AddBiEdge(v, v+1, spec.WireCost, spec.WireDelay)
			}
			if y+1 < spec.H {
				g.AddBiEdge(v, v+Vertex(spec.W), spec.WireCost, spec.WireDelay)
			}
		}
	}
	return g
}

// NewGraphGrid returns a grid-addressed graph with no edges; callers
// add edges with custom per-edge costs (used for congestion-biased
// windows).
func NewGraphGrid(x0, y0, w, h int) *Graph {
	g := NewGraph(w * h)
	g.w, g.h, g.x0, g.y0 = w, h, x0, y0
	return g
}

// IsGrid reports whether the graph was built by NewGrid.
func (g *Graph) IsGrid() bool { return g.w > 0 }

// VertexAt maps an FPGA location to its grid vertex, or -1 if the
// location lies outside the window.
func (g *Graph) VertexAt(l arch.Loc) Vertex {
	if !g.IsGrid() {
		panic("embed: VertexAt on non-grid graph")
	}
	x, y := int(l.X)-g.x0, int(l.Y)-g.y0
	if x < 0 || y < 0 || x >= g.w || y >= g.h {
		return -1
	}
	return Vertex(y*g.w + x)
}

// LocOf maps a grid vertex back to its FPGA location.
func (g *Graph) LocOf(v Vertex) arch.Loc {
	if !g.IsGrid() {
		panic("embed: LocOf on non-grid graph")
	}
	return arch.Loc{
		X: int16(g.x0 + int(v)%g.w),
		Y: int16(g.y0 + int(v)/g.w),
	}
}

// ClampToWindow returns the location moved to the nearest point inside
// the grid window; external leaves outside the window attach at the
// boundary with their wire delay to the boundary pre-charged by the
// caller.
func (g *Graph) ClampToWindow(l arch.Loc) arch.Loc {
	x, y := int(l.X), int(l.Y)
	if x < g.x0 {
		x = g.x0
	}
	if x >= g.x0+g.w {
		x = g.x0 + g.w - 1
	}
	if y < g.y0 {
		y = g.y0
	}
	if y >= g.y0+g.h {
		y = g.y0 + g.h - 1
	}
	return arch.Loc{X: int16(x), Y: int16(y)}
}
