// Verification and fingerprinting glue for the frontier memos.
//
// Frontier memoization is exact by construction: a frontier-cache hit
// or a solve the node memo served in part must be Float64bits-identical
// to a fresh solve. verifyFrontier enforces that claim at runtime when
// Config.VerifyIncremental is set, by re-solving without either memo
// and failing the run on the first bitwise divergence — this is the
// oracle hook the differential harness and CI cross-checks use.
package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/embed"
	"repro/internal/netlist"
	"repro/internal/rtree"
)

// verifyFrontier re-solves the freshly constructed problem without the
// node memo and demands that the memoized result — a frontier-cache
// hit, or a solve the node memo served in part — match it point for
// point, and that every point extract to the same embedding.
func (e *Engine) verifyFrontier(ctx context.Context, prob *embed.Problem, memo *embed.Result) error {
	plain := *prob
	plain.Memo = nil
	fresh, err := plain.SolveContext(ctx)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return fmt.Errorf("core: memoized frontier but fresh solve infeasible: %w", err)
	}
	if len(memo.Frontier) != len(fresh.Frontier) {
		return fmt.Errorf("core: memoized frontier has %d points, fresh %d", len(memo.Frontier), len(fresh.Frontier))
	}
	for i := range fresh.Frontier {
		c, f := &memo.Frontier[i], &fresh.Frontier[i]
		if c.Vertex != f.Vertex {
			return fmt.Errorf("core: frontier[%d] vertex %d, fresh %d", i, c.Vertex, f.Vertex)
		}
		if err := sigEqual(c.Sig, f.Sig); err != nil {
			return fmt.Errorf("core: frontier[%d] %w", i, err)
		}
		if err := embeddingEqual(memo.Extract(*c), fresh.Extract(*f)); err != nil {
			return fmt.Errorf("core: frontier[%d] %w", i, err)
		}
	}
	return nil
}

// embeddingEqual compares two extracted embeddings node by node.
func embeddingEqual(a, b *embed.Embedding) error {
	for i := range b.NodeVertex {
		if a.NodeVertex[i] != b.NodeVertex[i] {
			return fmt.Errorf("node %d at vertex %d vs %d", i, a.NodeVertex[i], b.NodeVertex[i])
		}
		if !slices.Equal(a.Routes[i], b.Routes[i]) {
			return fmt.Errorf("node %d route %v vs %v", i, a.Routes[i], b.Routes[i])
		}
	}
	return nil
}

// sigEqual compares two solution signatures bit for bit.
func sigEqual(a, b embed.Sig) error {
	if math.Float64bits(a.Cost) != math.Float64bits(b.Cost) {
		return fmt.Errorf("cost %v vs %v", a.Cost, b.Cost)
	}
	for k := range a.D {
		if math.Float64bits(a.D[k]) != math.Float64bits(b.D[k]) {
			return fmt.Errorf("D[%d] %v vs %v", k, a.D[k], b.D[k])
		}
	}
	if math.Float64bits(a.TC) != math.Float64bits(b.TC) || a.W != b.W {
		return fmt.Errorf("TC/W %v/%d vs %v/%d", a.TC, a.W, b.TC, b.W)
	}
	if math.Float64bits(a.R) != math.Float64bits(b.R) {
		return fmt.Errorf("R %v vs %v", a.R, b.R)
	}
	if a.Branch != b.Branch || a.Peak != b.Peak {
		return fmt.Errorf("branch/peak %d/%d vs %d/%d", a.Branch, a.Peak, b.Branch, b.Peak)
	}
	return nil
}

// embedFingerprint folds every input the embedding DP reads into a
// deterministic 128-bit key: the window graph (geometry, blocked
// flags, edge cost/delay bits — congestion multipliers included), the
// extracted tree (structure, pinned leaf vertices, arrival bits), the
// signature mode and solver limits, and the placement-cost inputs the
// PlaceCost closure would consult — slot legality, capacity, usage,
// occupant equivalence classes per window location, plus each tree
// cell's own class, fanout, and the root's current location. Two
// iterations with equal fingerprints hand the solver bitwise-identical
// inputs, so the memoized frontier is exact. Parallelism is excluded:
// the solver's results are bit-identical at any worker count.
func (e *Engine) embedFingerprint(g *embed.Graph, ep *rtree.EmbedProblem, rootFree bool, quantum float64) embed.Fingerprint {
	h := embed.NewHasher()
	g.Fingerprint(&h)
	ep.Tree.Fingerprint(&h)
	e.Config.Mode.Fingerprint(&h)
	h.Int(e.Config.MaxPerVertex)
	h.F64(quantum)
	h.Bool(rootFree)
	h.F64(e.Config.FreeSlotCost)
	h.F64(e.Config.OccupiedSlotCost)
	h.F64(e.Config.ReplicationPenalty)
	h.F64(e.Config.FanoutOneFactor)

	// Placement state inside the window, in vertex order: everything
	// congestion() and the equivalence discount can read.
	f := e.Placement.FPGA()
	for v := 0; v < g.NumVertices(); v++ {
		loc := g.LocOf(embed.Vertex(v))
		h.Bool(f.IsLogic(loc))
		h.Int(f.Capacity(loc))
		occ := e.Placement.At(loc)
		h.Int(len(occ))
		for _, id := range occ {
			h.Int(int(e.Netlist.Cell(id).Equiv))
		}
	}

	// Per-node cell identity: equivalence class and fanout drive the
	// discount and the fanout-one penalty; node-to-cell binding beyond
	// that is irrelevant to the DP.
	for _, cell := range ep.NodeCell {
		c := e.Netlist.Cell(cell)
		h.Int(int(c.Equiv))
		if c.Out == netlist.None {
			h.Int(-1)
		} else {
			h.Int(len(e.Netlist.Net(c.Out).Sinks))
		}
	}
	rootLoc := e.Placement.Loc(ep.NodeCell[ep.Tree.Root])
	h.Int(int(rootLoc.X))
	h.Int(int(rootLoc.Y))
	return h.Sum()
}
