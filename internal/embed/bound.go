package embed

import "math"

// The status-quo bound (Problem.Bound) turns the Fig. 6 wavefront into
// an A*-style bounded search. A caller that will apply no solution
// whose root arrival exceeds T gains nothing from a partial solution
// that cannot reach the root by T, so such a solution is dropped where
// it would be queued: a join seed of a non-root node, every wavefront
// push, and every root join seed.
//
// A partial solution of node i at vertex u with max arrival d0 reaches
// the root no earlier than d0 + LB(i, u), where
//
//	LB(i, u) = Σ Intrinsic of i's proper ancestors, root included
//	         + rate · Manhattan(u, root vertex)
//
// and rate is the least edge Delay per unit of Manhattan distance any
// edge covers. Each ancestor's join adds its intrinsic delay to the
// max arrival, and the route from u to the root vertex passes through
// every ancestor's vertex, so its wire delay is at least rate times the
// Manhattan distance it covers: LB is admissible on any grid-addressed
// graph, a window with blocked vertices included. A graph without grid
// metadata gets the intrinsic term alone. LB is also consistent: an
// augmentation adds at least rate · (the Manhattan step) to d0, and a
// join at u adds the gate's intrinsic to d0 and removes it from LB, so
// every descendant of a dropped solution would be dropped too, and a
// dropped solution never dominates a kept one (it is no faster). In
// exact mode (MaxPerVertex 0) the bounded root frontier is therefore
// the unbounded one restricted to root arrival ≤ T; only the provenance
// of equal signatures may differ.

// boundSlack is the relative margin the prune grants float rounding:
// d0 + LB is summed in another order than the root arrival it bounds,
// so a solution is dropped only when it exceeds T by more than
// boundSlack times the magnitudes involved. That covers millions of
// rounded additions, far more than any chain of joins and augments.
const boundSlack = 1e-9

// rootBound is one bounded solve's prune: T, and LB split into its
// per-node and per-vertex terms. Both tables borrow the solving
// goroutine's scratch and are dropped when the solve returns.
type rootBound struct {
	t, tAbs float64
	// anc[i] is the intrinsic delay of node i's proper ancestors.
	anc []float64
	// dist[u] is rate times the Manhattan distance from u to the root.
	dist []float64
}

// bounded reports whether Bound applies: a positive bound on a
// fixed-root solve in the linear delay model.
func (p *Problem) bounded() bool {
	return p.Bound > 0 && p.Mode.Delay == LinearDelay && p.T.Nodes[p.T.Root].Vertex >= 0
}

// newRootBound builds the prune of a bounded problem over the tree's
// nodes in order (children before parents), or returns nil when an
// edge has a negative delay: a route could then arrive earlier than
// the arrival it leaves with, and no LB holds.
func newRootBound(p *Problem, order []NodeID, sc *solverScratch) *rootBound {
	t, g := p.T, p.G
	nv := g.NumVertices()
	rate := math.Inf(1)
	for v := range nv {
		for _, e := range g.adj[v] {
			if e.Delay < 0 {
				return nil
			}
			if g.IsGrid() {
				if md := g.manhattan(Vertex(v), e.To); md > 0 {
					rate = min(rate, e.Delay/float64(md))
				}
			}
		}
	}
	if math.IsInf(rate, 1) {
		rate = 0 // no grid metadata, or no edge that moves
	}
	sc.anc = zeroed(sc.anc, len(t.Nodes))
	for i := len(order) - 1; i >= 0; i-- {
		n := &t.Nodes[order[i]]
		for _, c := range n.Children {
			sc.anc[c] = sc.anc[order[i]] + n.Intrinsic
		}
	}
	sc.dist = zeroed(sc.dist, nv)
	if rate > 0 {
		root := t.Nodes[t.Root].Vertex
		for v := range nv {
			sc.dist[v] = float64(rate * float64(g.manhattan(Vertex(v), root)))
		}
	}
	return &rootBound{t: p.Bound, tAbs: math.Abs(p.Bound), anc: sc.anc, dist: sc.dist}
}

// zeroed returns s resized to n zeroed entries, reusing its storage.
func zeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// manhattan is the grid distance between two vertices of a
// grid-addressed graph.
func (g *Graph) manhattan(a, b Vertex) int {
	dx := int(a)%g.w - int(b)%g.w
	dy := int(a)/g.w - int(b)/g.w
	return max(dx, -dx) + max(dy, -dy)
}

// lb is LB(id, v).
func (b *rootBound) lb(id NodeID, v Vertex) float64 { return b.anc[id] + b.dist[v] }

// over reports whether a partial solution with max arrival d0 and
// lower bound lb misses T, rounding in the solution's favour.
func (b *rootBound) over(d0, lb float64) bool {
	return d0+lb > b.t+float64(boundSlack*(math.Abs(d0)+lb+b.tAbs))
}

// keep drops from node id's seeds those that miss T, in place.
func (b *rootBound) keep(id NodeID, seeds []queueItem) []queueItem {
	out := seeds[:0]
	for _, it := range seeds {
		if !b.over(it.sol.sig.D[0], b.lb(id, it.vertex)) {
			out = append(out, it)
		}
	}
	return out
}
