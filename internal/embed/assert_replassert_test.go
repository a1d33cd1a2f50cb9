//go:build replassert

package embed

import (
	"math"
	"strings"
	"testing"
)

// These tests run only under -tags replassert and prove the invariant
// layer actually fires: each one feeds an assertion a state that
// violates its invariant and demands a panic. The inverse direction —
// that clean solver runs never trip the assertions — is covered by the
// regular test suite, which executes the asserting build of the same
// code paths.

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic on an invariant violation", name)
		}
	}()
	fn()
}

func TestAssertEnabledUnderTag(t *testing.T) {
	if !assertEnabled {
		t.Fatal("assertEnabled must be true under -tags replassert")
	}
}

func TestAssertStaircaseFires(t *testing.T) {
	// d0 decreasing between steps: not a staircase.
	mustPanic(t, "assertStaircase", func() {
		assertStaircase([]stairStep{{d0: 2, peak: 5}, {d0: 1, peak: 3}})
	})
	// peak not strictly decreasing.
	mustPanic(t, "assertStaircase", func() {
		assertStaircase([]stairStep{{d0: 1, peak: 3}, {d0: 2, peak: 3}})
	})
	// A well-formed staircase passes.
	assertStaircase([]stairStep{{d0: 1, peak: 5}, {d0: 2, peak: 3}, {d0: 4, peak: 1}})
}

func TestAssertNonDominatedCombosFires(t *testing.T) {
	m := Mode{}
	better := newLeafSig(m, 1, false) // cost 0, arrival 1
	worse := better
	worse.Cost = 3 // dominated: same arrival, higher cost
	mustPanic(t, "assertNonDominatedCombos", func() {
		assertNonDominatedCombos(m, []combo{{sig: better}, {sig: worse}})
	})
	faster := newLeafSig(m, 0.5, false)
	faster.Cost = 3 // incomparable with better: cheaper vs faster
	assertNonDominatedCombos(m, []combo{{sig: better}, {sig: faster}})
}

func TestAssertWaveOrderFires(t *testing.T) {
	m := Mode{}
	cheap := newLeafSig(m, 1, false)
	costly := cheap
	costly.Cost = 2
	mustPanic(t, "assertWaveOrder", func() {
		assertWaveOrder(m, &costly, true, &cheap) // pop order regressed
	})
	assertWaveOrder(m, &cheap, true, &costly)
	assertWaveOrder(m, &costly, false, &cheap) // first pop: no predecessor
}

func TestAssertNoReverseDominationFires(t *testing.T) {
	m := Mode{}
	accepted := newLeafSig(m, 2, false)
	accepted.Cost = 2
	dominating := newLeafSig(m, 1, false) // cheaper and faster
	mustPanic(t, "assertNoReverseDomination", func() {
		assertNoReverseDomination(m, []solution{{sig: accepted}}, &dominating)
	})
	incomparable := newLeafSig(m, 1, false)
	incomparable.Cost = 5
	assertNoReverseDomination(m, []solution{{sig: accepted}}, &incomparable)
}

func TestAssertFrontierFires(t *testing.T) {
	m := Mode{}
	cheap := newLeafSig(m, 1, false)
	costly := cheap
	costly.Cost = 2
	mustPanic(t, "assertFrontier", func() {
		assertFrontier(m, []FrontierSol{{Sig: costly}, {Sig: cheap}}, false) // unsorted
	})
	dominated := costly
	dominated.D[0] = 3
	mustPanic(t, "assertFrontier", func() {
		assertFrontier(m, []FrontierSol{{Sig: cheap}, {Sig: dominated}}, false)
	})
	// Cross-vertex frontiers tolerate domination between vertices but
	// still demand the sort.
	assertFrontier(m, []FrontierSol{{Sig: cheap}, {Sig: dominated}}, true)
}

// TestSolveUnderAssertions runs the solver end to end — serial and
// parallel — with every invariant armed, on the same randomized
// instances the determinism suite uses.
func TestSolveUnderAssertions(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		p := randomProblem(seed, 4, 4, 3, Mode{}, false)
		solveBoth(t, "replassert-random", p, 2, 4)
	}
}

// TestStaleMemoResultTrips reads a memoized Result after its memo's
// next solve. That solve shares no node with the first, so it releases
// all of the first solve's nodes into the slab pool, which poisons
// them, and its own nodes are too small to take them back. Re-joining a
// gate of the stale Result over its released children must then trip
// the heap-key assertion instead of expanding garbage.
func TestStaleMemoResultTrips(t *testing.T) {
	memo := NewNodeMemo()
	first := randomProblem(5, 6, 6, 4, Mode{LexDepth: 1}, false)
	first.Memo = memo
	stale, err := first.Solve()
	if err != nil {
		t.Fatal(err)
	}
	next := randomProblem(6, 2, 2, 1, Mode{LexDepth: 1}, false)
	next.Memo = memo
	if _, err := next.Solve(); err != nil {
		t.Fatal(err)
	}
	tr := first.T
	gate := NodeID(-1)
	for i := range tr.Nodes {
		if NodeID(i) != tr.Root && !tr.Nodes[i].IsLeaf() {
			gate = NodeID(i)
			break
		}
	}
	if gate < 0 {
		t.Fatal("first tree has no non-root gate")
	}
	for _, c := range tr.Nodes[gate].Children {
		if sols := stale.sols[c].sols; len(sols) == 0 || !math.IsNaN(sols[0].sig.Cost) {
			t.Fatalf("child %d's set is not poisoned: the next solve reused it", c)
		}
	}
	// The solve dropped its per-solve placement vector; look the costs
	// up directly.
	stale.placeOff = make([]int, len(tr.Nodes))
	for i := range stale.placeOff {
		stale.placeOff[i] = -1
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "NaN heap key") {
			t.Fatalf("re-joining a stale gate: recovered %q, want the heap-key assertion", msg)
		}
	}()
	stale.processNode(gate, 1, getScratch())
}

// TestStaleFoldScratchTrips reads the join fold's buffers after their
// scratch went back to the pool. The pruned combos and the cross product
// are poisoned with NaN costs, so seeding a wavefront from either trips
// the heap-key assertion; the sort permutation is poisoned with an
// out-of-range index, so a prune that walks it stops at the bounds
// check.
func TestStaleFoldScratchTrips(t *testing.T) {
	p := randomProblem(5, 6, 6, 4, Mode{LexDepth: 1}, false)
	r, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// The solve dropped its per-solve placement vector; look the costs
	// up directly.
	r.placeOff = make([]int, len(p.T.Nodes))
	for i := range r.placeOff {
		r.placeOff[i] = -1
	}
	var kept, cross []combo
	var perm []int32
	gate, at := NodeID(-1), Vertex(-1)
	sc := getScratch()
	for i := range p.T.Nodes {
		if NodeID(i) == p.T.Root || len(p.T.Nodes[i].Children) < 2 {
			continue
		}
		for v := range p.G.NumVertices() {
			if combos, _, ok := r.foldVertex(NodeID(i), Vertex(v), sc); ok && len(combos) > 0 {
				kept, cross, perm = combos, sc.combos, sc.perm
				gate, at = NodeID(i), Vertex(v)
				break
			}
		}
		if gate >= 0 {
			break
		}
	}
	if gate < 0 {
		t.Fatal("no two-input gate with a feasible join")
	}
	putScratch(sc)
	for _, stale := range []struct {
		name   string
		combos []combo
	}{{"pruned combos", kept}, {"cross product", cross}} {
		if !math.IsNaN(stale.combos[0].sig.Cost) {
			t.Fatalf("%s not poisoned", stale.name)
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "NaN heap key") {
					t.Fatalf("seeding from stale %s: recovered %q, want the heap-key assertion", stale.name, msg)
				}
			}()
			ws := new(solverScratch)
			ws.items = []queueItem{{sol: solution{sig: stale.combos[0].sig, kind: kindJoin}, vertex: at}}
			r.runWavefront(gate, ws)
		}()
	}
	for i, j := range perm {
		if j >= 0 {
			t.Fatalf("permutation entry %d = %d not poisoned", i, j)
		}
	}
	mustPanic(t, "prune over a stale permutation", func() {
		fresh := []combo{{sig: newLeafSig(p.Mode, 1, false)}}
		pruneCombos2D(fresh, perm, nil, new(solverScratch))
	})
}
