// Verification glue for the engine's exact reuse.
//
// Frontier memoization and iteration replay are exact by construction:
// a solve the node memo served in part must be Float64bits-identical to
// a fresh solve, and a replayed iteration must be one that, run in
// full, reverts with the recorded counter deltas. verifyFrontier and
// verifyReplay enforce those claims at runtime when
// Config.VerifyIncremental is set, failing the run on the first
// divergence — this is the oracle hook the differential harness and CI
// cross-checks use.
package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/embed"
	"repro/internal/timing"
)

// verifyFrontier re-solves the freshly constructed problem without the
// node memo and demands that the memoized result match it point for
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

// verifyReplay checks the two assumptions a replay rests on and its
// outcome: an SPT built fresh from the live objects induces the tree
// the replay reused, and the iteration, run in full from that fresh
// tree, reverts as the recorded one did with the recorded counter
// deltas.
func (e *Engine) verifyReplay(a *timing.Analysis, x extraction) error {
	x.spt = timing.BuildSPT(e.Netlist, e.Placement, e.Delay, a, x.sink)
	rt, err := e.buildTree(a, x.spt)
	if err != nil {
		return err
	}
	if !rt.Equal(x.rt) {
		return fmt.Errorf("core: replayed iteration at sink %d reused a tree a fresh SPT does not give", x.sink)
	}
	x.rt = rt
	var st Stats
	_, reverted, stop, err := e.runIteration(a, x, &st)
	if err != nil {
		return err
	}
	if stop || !reverted {
		return fmt.Errorf("core: replayed iteration at sink %d does not revert when run in full", x.sink)
	}
	if got := counters(&st); got != e.rec.delta {
		return fmt.Errorf("core: replayed iteration at sink %d recorded %+v, full run %+v", x.sink, e.rec.delta, got)
	}
	return nil
}
