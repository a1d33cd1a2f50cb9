package oracle

// Independent re-implementation of the signature algebra from the
// paper's definitions (Sections II-C, II-D, VI-A), deliberately sharing
// no code with internal/embed beyond the Sig data type itself. Where
// embed folds k-ary joins through a two-pointer pairwise merge, this
// file gathers-and-sorts; where embed prunes with staircases and heap
// orders, pruneCanonical is a quadratic scan. On dyadic-exact instances
// every operation here is exact float arithmetic, so agreement with the
// DP is demanded bitwise.

import (
	"math"
	"sort"

	"repro/internal/embed"
)

// lexDepth clamps the mode's lexicographic depth to [1, MaxLex],
// matching the embed contract.
func lexDepth(m embed.Mode) int {
	if m.LexDepth <= 0 {
		return 1
	}
	if m.LexDepth > embed.MaxLex {
		return embed.MaxLex
	}
	return m.LexDepth
}

// leafSig is the initial signature of a leaf with the given arrival:
// one gate (the leaf's driver) at its own vertex, one recorded path.
func leafSig(m embed.Mode, arr float64, critical bool) embed.Sig {
	s := embed.Sig{Branch: 1, Peak: 1}
	s.D[0] = arr
	for i := 1; i < embed.MaxLex; i++ {
		s.D[i] = math.Inf(-1)
	}
	if m.MC && critical {
		s.TC = arr
		s.W = 1
	}
	return s
}

// applyRoute walks a signature across a route edge by edge: wire cost
// accumulates, wire delay (per the mode's delay model) adds to every
// live arrival entry and, for Lex-mc, to the critical-input arrival.
// The result is a non-branching solution: no gate of this subtree sits
// at the route's endpoint, so Branch resets to 0.
func applyRoute(m embed.Mode, s embed.Sig, edges []embed.Edge) embed.Sig {
	out := s
	depth := lexDepth(m)
	for _, e := range edges {
		out.Cost += e.Cost
		var wd float64
		switch m.Delay {
		case embed.LinearDelay:
			wd = e.Delay
		case embed.QuadraticDelay:
			l0 := out.R
			l1 := l0 + e.Delay
			wd = float64(l1*l1) - float64(l0*l0)
			out.R = l1
		case embed.ElmoreDelay:
			wd = float64(e.Delay * (out.R + float64(e.Delay/2)))
			out.R = out.R + e.Delay
		}
		for i := 0; i < depth; i++ {
			if out.D[i] != math.Inf(-1) {
				out.D[i] += wd
			}
		}
		if m.MC && out.W > 0 {
			out.TC += wd
		}
	}
	out.Branch = 0
	return out
}

// mergeSigs combines two child signatures meeting at a branching
// vertex: costs, critical weights and co-located gate counts add, the
// arrival vector becomes the top-depth values of the multiset union
// (gathered and sorted rather than two-pointer merged — same values,
// independent mechanism), and Peak takes the worse side.
func mergeSigs(m embed.Mode, a, b *embed.Sig) embed.Sig {
	out := embed.Sig{
		Cost:   a.Cost + b.Cost,
		TC:     a.TC + b.TC,
		W:      a.W + b.W,
		Branch: a.Branch + b.Branch,
		Peak:   a.Peak,
	}
	if b.Peak > out.Peak {
		out.Peak = b.Peak
	}
	depth := lexDepth(m)
	vals := make([]float64, 0, 2*depth)
	vals = append(vals, a.D[:depth]...)
	vals = append(vals, b.D[:depth]...)
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	for k := 0; k < embed.MaxLex; k++ {
		if k < depth {
			out.D[k] = vals[k]
		} else {
			out.D[k] = math.Inf(-1)
		}
	}
	return out
}

// finishJoinSig applies the join's per-vertex terms: placement cost,
// the gate's intrinsic delay on every live arrival (and the critical
// path, when one runs through), the gate itself joining the co-located
// count, and the load-dependent resistance reset — the gate now drives
// whatever wire comes next.
func finishJoinSig(m embed.Mode, s embed.Sig, placeCost, intrinsic float64) embed.Sig {
	out := s
	out.Cost += placeCost
	out.Branch = s.Branch + 1
	if out.Branch > out.Peak {
		out.Peak = out.Branch
	}
	depth := lexDepth(m)
	for i := 0; i < depth; i++ {
		if out.D[i] != math.Inf(-1) {
			out.D[i] += intrinsic
		}
	}
	if m.MC && out.W > 0 {
		out.TC += intrinsic
	}
	switch m.Delay {
	case embed.QuadraticDelay:
		out.R = 0
	case embed.ElmoreDelay:
		out.R = m.GateR
	}
	return out
}

// dominatesSig is the dominance partial order: no worse in every
// dimension the mode optimizes. Branch participates in every mode
// because future Peak grows from it, and Peak always participates.
// Exact float equality is the point: instances are dyadic-exact, and
// the comparison must mirror the DP's bit for bit.
//
//replint:floatcmp-helper
func dominatesSig(m embed.Mode, a, b *embed.Sig) bool {
	if a.Cost > b.Cost {
		return false
	}
	depth := lexDepth(m)
	for i := 0; i < depth; i++ {
		if a.D[i] != b.D[i] {
			if a.D[i] > b.D[i] {
				return false
			}
			break
		}
	}
	if m.MC && a.TC > b.TC {
		return false
	}
	if m.Delay != embed.LinearDelay && a.R > b.R {
		return false
	}
	if a.Branch > b.Branch {
		return false
	}
	if a.Peak > b.Peak {
		return false
	}
	return true
}

// canonLess is the total order refining dominance used to canonicalize
// a solution set: dominance dimensions first (so a dominating signature
// sorts before everything it dominates), remaining fields as
// deterministic tie-breaks. Exact equality is deliberate, as in
// dominatesSig.
//
//replint:floatcmp-helper
func canonLess(m embed.Mode, a, b *embed.Sig) bool {
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	depth := lexDepth(m)
	for i := 0; i < depth; i++ {
		if a.D[i] != b.D[i] {
			return a.D[i] < b.D[i]
		}
	}
	if m.MC && a.TC != b.TC {
		return a.TC < b.TC
	}
	if m.Delay != embed.LinearDelay && a.R != b.R {
		return a.R < b.R
	}
	if a.Branch != b.Branch {
		return a.Branch < b.Branch
	}
	if a.Peak != b.Peak {
		return a.Peak < b.Peak
	}
	if a.TC != b.TC {
		return a.TC < b.TC
	}
	if a.R != b.R {
		return a.R < b.R
	}
	if a.W != b.W {
		return a.W < b.W
	}
	return false
}

// pruneCanonical reduces a solution set to its canonical minimal
// antichain: sorted by canonLess, scanned forward, keeping everything
// no kept signature dominates (exact duplicates fall out because a
// signature dominates itself).
func pruneCanonical(m embed.Mode, in []embed.Sig) []embed.Sig {
	sorted := append([]embed.Sig(nil), in...)
	sort.Slice(sorted, func(i, j int) bool { return canonLess(m, &sorted[i], &sorted[j]) })
	var out []embed.Sig
	for i := range sorted {
		dominated := false
		for j := range out {
			if dominatesSig(m, &out[j], &sorted[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, sorted[i])
		}
	}
	return out
}
