package embed

import (
	"math"
	"math/rand"
	"testing"
)

// These tests pin the tentpole guarantee of the parallel solver: at any
// Parallelism setting the result — frontier, every per-vertex solution
// set, and every extracted embedding — is bit-identical to the serial
// DP. The merge order of join shards and the level scheduler must not
// leak into the output.

// solveBoth solves the same problem serially and with the given worker
// counts and checks full result equality, bit for bit.
func solveBoth(t *testing.T, name string, p *Problem, workerCounts ...int) {
	t.Helper()
	serial := *p
	serial.Parallelism = 1
	want, err := serial.Solve()
	if err != nil {
		t.Fatalf("%s: serial solve: %v", name, err)
	}
	for _, w := range workerCounts {
		par := *p
		par.Parallelism = w
		got, err := par.Solve()
		if err != nil {
			t.Fatalf("%s: parallel(%d) solve: %v", name, w, err)
		}
		resultsEqual(t, name, w, p, want, got)
	}
}

func resultsEqual(t *testing.T, name string, workers int, p *Problem, want, got *Result) {
	t.Helper()
	if len(want.Frontier) != len(got.Frontier) {
		t.Fatalf("%s[w=%d]: frontier size %d vs serial %d",
			name, workers, len(got.Frontier), len(want.Frontier))
	}
	for i := range want.Frontier {
		if !sameSig(&want.Frontier[i].Sig, &got.Frontier[i].Sig) ||
			want.Frontier[i].Vertex != got.Frontier[i].Vertex {
			t.Fatalf("%s[w=%d]: frontier[%d] = %+v, serial %+v",
				name, workers, i, got.Frontier[i], want.Frontier[i])
		}
	}
	// Every accepted solution set, node by node and vertex by vertex —
	// this covers intermediate DP state, not just the root.
	for id := range p.T.Nodes {
		for v := Vertex(0); v < Vertex(p.G.NumVertices()); v++ {
			ws := want.SolutionsAt(NodeID(id), v)
			gs := got.SolutionsAt(NodeID(id), v)
			if len(ws) != len(gs) {
				t.Fatalf("%s[w=%d]: |A[%d][%d]| = %d, serial %d",
					name, workers, id, v, len(gs), len(ws))
			}
			for k := range ws {
				if !sameSig(&ws[k], &gs[k]) {
					t.Fatalf("%s[w=%d]: A[%d][%d][%d] = %+v, serial %+v",
						name, workers, id, v, k, gs[k], ws[k])
				}
			}
		}
	}
	// Extraction retraces provenance (joinRef/child indices), so this
	// verifies the shard-merge rebasing, not just the signatures.
	for i := range want.Frontier {
		we := want.Extract(want.Frontier[i])
		ge := got.Extract(got.Frontier[i])
		if math.Float64bits(we.WireCost) != math.Float64bits(ge.WireCost) {
			t.Fatalf("%s[w=%d]: extract[%d] wire %v, serial %v",
				name, workers, i, ge.WireCost, we.WireCost)
		}
		for id := range we.NodeVertex {
			if we.NodeVertex[id] != ge.NodeVertex[id] {
				t.Fatalf("%s[w=%d]: extract[%d] node %d at %d, serial %d",
					name, workers, i, id, ge.NodeVertex[id], we.NodeVertex[id])
			}
			if len(we.Routes[id]) != len(ge.Routes[id]) {
				t.Fatalf("%s[w=%d]: extract[%d] route %d length %d, serial %d",
					name, workers, i, id, len(ge.Routes[id]), len(we.Routes[id]))
			}
			for k := range we.Routes[id] {
				if we.Routes[id][k] != ge.Routes[id][k] {
					t.Fatalf("%s[w=%d]: extract[%d] route %d hop %d = %d, serial %d",
						name, workers, i, id, k, ge.Routes[id][k], we.Routes[id][k])
				}
			}
		}
	}
}

// TestSolveParallelWorkedExample runs the paper's Fig. 7 worked example
// at several worker counts.
func TestSolveParallelWorkedExample(t *testing.T) {
	g := lineGraph(5)
	tree := &Tree{
		Nodes: []Node{
			{Vertex: 0, Arr: 0},
			{Children: []NodeID{0}, Intrinsic: 1},
			{Children: []NodeID{1}, Vertex: 4, Intrinsic: 1},
		},
		Root: 2,
	}
	p := &Problem{
		G:    g,
		T:    tree,
		Mode: Mode{LexDepth: 1, Delay: QuadraticDelay},
		PlaceCost: func(node NodeID, v Vertex) float64 {
			if node == 2 {
				return 0
			}
			if v == 0 || v == 4 {
				return math.Inf(1)
			}
			return float64(v)
		},
	}
	solveBoth(t, "worked-example", p, 2, 3, 8)
}

// randomProblem builds a seeded random instance: a random tree of
// leaves and gates over a unit grid, random leaf locations and arrival
// skews, and a deterministic pseudo-random placement cost.
func randomProblem(seed int64, w, h, leaves int, mode Mode, freeRoot bool) *Problem {
	rng := rand.New(rand.NewSource(seed))
	g := NewGrid(GridSpec{W: w, H: h, WireCost: 1, WireDelay: 1})
	nv := g.NumVertices()

	var nodes []Node
	var open []NodeID // roots of already-built subtrees
	for i := 0; i < leaves; i++ {
		nodes = append(nodes, Node{
			Vertex:   Vertex(rng.Intn(nv)),
			Arr:      float64(rng.Intn(6)),
			Critical: i == 0 && mode.MC,
		})
		open = append(open, NodeID(i))
	}
	// Combine random subtree groups under new gates until one remains.
	for len(open) > 1 {
		k := 1 + rng.Intn(2) // 1- or 2-input gates
		if k > len(open) {
			k = len(open)
		}
		var kids []NodeID
		for j := 0; j < k; j++ {
			pick := rng.Intn(len(open))
			kids = append(kids, open[pick])
			open[pick] = open[len(open)-1]
			open = open[:len(open)-1]
		}
		nodes = append(nodes, Node{Children: kids, Intrinsic: 1})
		open = append(open, NodeID(len(nodes)-1))
	}
	// The last gate becomes the root; fix it unless testing free roots.
	root := open[0]
	if int(root) < leaves {
		// Degenerate single-leaf draw: add a root gate above it.
		nodes = append(nodes, Node{Children: []NodeID{root}, Intrinsic: 1})
		root = NodeID(len(nodes) - 1)
	}
	if freeRoot {
		nodes[root].Vertex = -1
	} else {
		nodes[root].Vertex = Vertex(rng.Intn(nv))
	}

	// Pseudo-random but pure placement cost table.
	costs := make([]float64, len(nodes)*nv)
	for i := range costs {
		costs[i] = float64(rng.Intn(8)) * 0.5
	}
	p := &Problem{
		G:    g,
		T:    &Tree{Nodes: nodes, Root: root},
		Mode: mode,
		PlaceCost: func(node NodeID, v Vertex) float64 {
			return costs[int(node)*nv+int(v)]
		},
	}
	if mode.OverlapControl {
		p.Capacity = func(v Vertex) int { return 1 }
	}
	return p
}

// TestSolveParallelRandomized sweeps seeded random instances across all
// signature modes, comparing every worker count against serial.
func TestSolveParallelRandomized(t *testing.T) {
	modes := []struct {
		name string
		mode Mode
	}{
		{"2d", Mode{LexDepth: 1}},
		{"quad", Mode{LexDepth: 1, Delay: QuadraticDelay}},
		{"elmore", Mode{LexDepth: 1, Delay: ElmoreDelay}},
		{"lex3", Mode{LexDepth: 3}},
		{"lexmc", Mode{LexDepth: 1, MC: true}},
		{"overlap", Mode{LexDepth: 1, OverlapControl: true}},
	}
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, m := range modes {
		for _, seed := range seeds {
			p := randomProblem(seed, 6, 6, 3+int(seed)%3, m.mode, false)
			solveBoth(t, m.name, p, 2, 4)
		}
	}
}

// TestSolveParallelFreeRoot covers the FF-relocation join, where the
// root joins at every vertex — the widest fan-out the parallel merge
// has to reassemble in order.
func TestSolveParallelFreeRoot(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		p := randomProblem(seed, 6, 6, 4, Mode{LexDepth: 1}, true)
		solveBoth(t, "free-root", p, 2, 4, 7)
	}
}

// TestSolveParallelCapped checks determinism under MaxPerVertex/
// DelayQuantum trimming, which prunes by list position and so is the
// most order-sensitive configuration.
func TestSolveParallelCapped(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		p := randomProblem(seed, 7, 7, 5, Mode{LexDepth: 2}, false)
		p.MaxPerVertex = 4
		p.DelayQuantum = 0.5
		solveBoth(t, "capped", p, 2, 4)
	}
}

// TestSolveParallelHugeWorkerCount pins the worker cap: a Parallelism
// far beyond the vertex count (here 1<<62, whose join-shard product
// workers*4 would wrap to zero) solves exactly like the serial pass.
func TestSolveParallelHugeWorkerCount(t *testing.T) {
	p := randomProblem(3, 8, 8, 24, Mode{LexDepth: 1}, false)
	solveBoth(t, "huge-workers", p, 1<<62)
}
