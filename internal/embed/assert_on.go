//go:build replassert

package embed

import (
	"fmt"
	"math"
)

// assertEnabled gates the replassert runtime invariant layer. Built
// with -tags replassert, the solver re-checks its structural invariants
// at the points the determinism contract leans on; the default build
// compiles the checks away entirely (see assert_off.go).
const assertEnabled = true

// assertStaircase panics unless the 2-D prune staircase is monotone:
// d0 non-decreasing and peak strictly decreasing. Every dominance query
// in pruneCombos2D is a binary search over this shape; a broken
// staircase silently keeps dominated combos or drops optimal ones.
func assertStaircase(stair []stairStep) {
	for i := 1; i < len(stair); i++ {
		if stair[i].d0 < stair[i-1].d0 || stair[i].peak >= stair[i-1].peak {
			panic(fmt.Sprintf(
				"replassert: prune staircase not monotone at step %d: (d0=%g,peak=%d) -> (d0=%g,peak=%d)",
				i, stair[i-1].d0, stair[i-1].peak, stair[i].d0, stair[i].peak))
		}
	}
}

// assertNonDominatedCombos panics unless a pruned combo set is a full
// antichain of the dominance order. Both directions hold because the
// prune sweep sorts by totalCmp, a refinement of dominance: a
// dominating combo always sorts first, so the forward scan removes
// every dominated entry — including the smaller-Peak/Branch cases the
// old heap-order sort could leave pointing backwards.
func assertNonDominatedCombos(m Mode, combos []combo) {
	for i := range combos {
		for j := range combos {
			if i != j && dominates(m, &combos[i].sig, &combos[j].sig) {
				panic(fmt.Sprintf(
					"replassert: pruned combo %d dominates combo %d — prune sweep kept dead weight", i, j))
			}
		}
	}
}

// assertWaveOrder panics when a wavefront pop goes backwards in the
// heap order. GenDijkstra's finality argument — a popped candidate not
// dominated by the accepted set is itself final — holds only while
// pops are non-decreasing under heapLess.
func assertWaveOrder(m Mode, prev *Sig, havePrev bool, cur *Sig) {
	if havePrev && heapLess(m, cur, prev) {
		panic(fmt.Sprintf(
			"replassert: wavefront pop order regressed: cost %g after cost %g", cur.Cost, prev.Cost))
	}
}

// assertNoReverseDomination panics if a newly accepted solution
// precedes an already-accepted one at the same vertex in the heap
// order. Pop order makes this impossible: acceptance happens in pop
// order, so every earlier accept is heap-<= the new one. (Full
// dominance can still point backwards — Peak is a dominance dimension
// the heap order deliberately ignores — so only the heap-ordered
// dimensions are asserted.)
func assertNoReverseDomination(m Mode, list []solution, s *Sig) {
	for i := range list {
		if heapLess(m, s, &list[i].sig) {
			panic(fmt.Sprintf(
				"replassert: accepted solution precedes already-accepted entry %d in heap order", i))
		}
	}
}

// assertFrontier panics unless the root frontier is sorted by the heap
// order and — for a fixed root, where all solutions share one vertex —
// pairwise non-dominated. A free root keeps per-vertex curves, so
// cross-vertex domination is legitimate there and only the sort is
// checked.
func assertFrontier(m Mode, frontier []FrontierSol, crossVertex bool) {
	for i := 1; i < len(frontier); i++ {
		if heapLess(m, &frontier[i].Sig, &frontier[i-1].Sig) {
			panic(fmt.Sprintf("replassert: frontier not sorted at index %d", i))
		}
	}
	if crossVertex {
		return
	}
	for i := range frontier {
		for j := range frontier {
			if i != j && dominates(m, &frontier[i].Sig, &frontier[j].Sig) {
				panic(fmt.Sprintf(
					"replassert: frontier entry %d dominates entry %d", i, j))
			}
		}
	}
}

// assertWithinBound panics when a bounded wavefront has accepted a
// solution of node id at vertex v that misses the bound: d0 + LB(id, v)
// above T. Every way into the accepted lists, the seeds and the pushes,
// must pass the status-quo prune first.
func assertWithinBound(b *rootBound, id NodeID, v Vertex, s *Sig) {
	if lb := b.lb(id, v); b.over(s.D[0], lb) {
		panic(fmt.Sprintf(
			"replassert: node %d accepted at vertex %d with d0 %g + LB %g over the bound %g",
			id, v, s.D[0], lb, b.t))
	}
}

// assertKeyable panics when a signature about to become a heap key has
// a NaN cost or max arrival: ordKey has no place for NaN, and the
// poison putScratch and the slab pool write into released buffers is a
// NaN cost, so a read through a slice whose scratch went back to the
// pool, or of a node set the memo released, lands here.
func assertKeyable(s *Sig) {
	if math.IsNaN(s.Cost) || math.IsNaN(s.D[0]) {
		panic(fmt.Sprintf(
			"replassert: NaN heap key (cost %g, max arrival %g): stale read of a released scratch or memo slab?",
			s.Cost, s.D[0]))
	}
}

// poisonSig is the NaN-cost signature the poisoning writes.
func poisonSig() Sig {
	bad := Sig{Cost: math.NaN()}
	for i := range MaxLex {
		bad.D[i] = math.NaN()
	}
	return bad
}

// poisonScratch fills the solution buffers of a scratch about to go
// back to the pool — the wavefront arena, the join's cross product and
// pruned combos, and the accepted lists — up to their capacity with a
// NaN-cost solution, its placement-cost vector with NaN, and the prune's
// sort permutation with an out-of-range index.
func poisonScratch(sc *solverScratch) {
	bad := poisonSig()
	items := sc.items[:cap(sc.items)]
	for i := range items {
		items[i] = queueItem{sol: solution{sig: bad}, vertex: -1}
	}
	for _, combos := range [][]combo{sc.combos, sc.kept} {
		combos = combos[:cap(combos)]
		for i := range combos {
			combos[i] = combo{sig: bad, off: -1}
		}
	}
	perm := sc.perm[:cap(sc.perm)]
	for i := range perm {
		perm[i] = math.MinInt32
	}
	for v := range sc.acc {
		poisonSlab(sc.acc[v][:cap(sc.acc[v])])
	}
	place := sc.place[:cap(sc.place)]
	for i := range place {
		place[i] = math.NaN()
	}
}

// poisonSlab fills a solution slab the memo's slab pool takes back, or
// an accepted list of a released scratch, with a NaN-cost solution.
func poisonSlab(sols []solution) {
	bad := poisonSig()
	for i := range sols {
		sols[i] = solution{sig: bad}
	}
}
