package embed

import "math"

// MaxLex bounds the number of lexicographically ordered arrival values
// a signature can carry. The paper implements Lex-N generally but notes
// that "for values of N above 5, we cannot claim modest runtime
// overhead any longer"; we allow up to 5.
const MaxLex = 5

// DelayKind selects how wire delay accumulates along a route.
type DelayKind uint8

const (
	// LinearDelay: each edge contributes its fixed Delay (Section II-B,
	// the buffered-switch FPGA model).
	LinearDelay DelayKind = iota
	// QuadraticDelay: a route of total length L (sum of edge Delay
	// values) contributes L². This is the unbuffered-wire model of the
	// paper's worked example ("let the wire delay be quadratically
	// proportional to the length"). The signature tracks the stem
	// length since the driving gate in R.
	QuadraticDelay
	// ElmoreDelay: edges carry unit resistance/capacitance scaled by
	// Delay; a segment contributes c·(R + r/2) where R is the upstream
	// resistance tracked in the signature (Section II-D). Gates reset
	// R to their output resistance.
	ElmoreDelay
)

// Mode configures the signature semantics for one embedding run.
type Mode struct {
	// LexDepth is the number of lexicographically ordered arrival
	// values (1 = the plain 2-D cost/max-arrival signature; 2..5 =
	// Lex-2..Lex-5 of Section VI-A).
	LexDepth int
	// MC enables the Lex-mc (cost, t, tc, w) signature: tc is the
	// arrival from the replication tree's critical input and w the
	// critical-branch weight, excluded from the dominance test.
	MC bool
	// Delay selects the wire-delay model.
	Delay DelayKind
	// GateR is the gate output resistance for ElmoreDelay (join resets
	// the signature's R to this value).
	GateR float64
	// OverlapControl enables the branching-bit scheme of Section II-A:
	// joins are forbidden when they would co-locate more tree gates at
	// one vertex than its remaining capacity.
	OverlapControl bool
}

func (m Mode) lexDepth() int {
	if m.LexDepth <= 0 {
		return 1
	}
	if m.LexDepth > MaxLex {
		return MaxLex
	}
	return m.LexDepth
}

// loadDependent reports whether the signature must track R.
func (m Mode) loadDependent() bool { return m.Delay != LinearDelay }

// Sig is a candidate-solution signature. Depending on Mode, some fields
// are unused (and held at neutral values so comparisons stay valid).
type Sig struct {
	// Cost is the embedding cost accumulated so far (wire + placement).
	Cost float64
	// D holds the lexicographic arrival vector: D[0] is the max
	// arrival t, D[1] the subcritical t2, etc. Unused tail entries are
	// -Inf ("no second path").
	D [MaxLex]float64
	// TC is the Lex-mc critical-input arrival; W its weight.
	TC float64
	W  int32
	// R is the stem length (QuadraticDelay) or upstream resistance
	// (ElmoreDelay) at the solution's frontier vertex.
	R float64
	// Branch counts tree gates placed exactly at this solution's
	// vertex (1 after a join, 0 after any wavefront augmentation).
	Branch int32
	// Peak is the maximum number of tree gates co-located on any one
	// vertex anywhere in the solution. It participates in dominance so
	// that, all else equal, overlap-free embeddings win ties — the
	// legalizer then has nothing to undo.
	Peak int32
}

// negInf fills unused lexicographic slots.
var negInf = math.Inf(-1)

// newLeafSig builds the initial signature for a leaf with the given
// arrival time.
func newLeafSig(m Mode, arr float64, critical bool) Sig {
	s := Sig{Branch: 1, Peak: 1}
	s.D[0] = arr
	for i := 1; i < MaxLex; i++ {
		s.D[i] = negInf
	}
	if m.MC && critical {
		s.TC = arr
		s.W = 1
	}
	return s
}

// lexLess compares arrival vectors lexicographically over the first
// depth entries. Both vectors come from identical operation sequences,
// so exact ties are the intended total-order semantics.
//
//replint:floatcmp-helper
func lexLess(a, b *Sig, depth int) bool {
	for i := 0; i < depth; i++ {
		if a.D[i] != b.D[i] {
			return a.D[i] < b.D[i]
		}
	}
	return false
}

func lexLE(a, b *Sig, depth int) bool { return !lexLess(b, a, depth) }

// dominates reports whether a dominates b under the mode's partial
// order: superior or equal in every dimension that participates in the
// dominance test. Delay values are compared as one lexicographic value
// (valid because t >= t2 >= ... and, for MC, t >= tc — the paper's
// observation enabling the 2-D dominance test for all Lex variants).
// Load-dependent modes additionally require a's R to be no worse.
//
// Branch participates unconditionally, not just under overlap control:
// Peak is a dominance dimension in every mode, and a solution's future
// Peak depends on its Branch (finishJoinInto grows Branch and folds it
// into Peak). Pruning b against an equal-Peak a with a larger Branch
// would discard exactly the candidate whose descendants have the
// smaller Peak — an unsound prune the brute-force oracle catches on
// small instances. Requiring a.Branch <= b.Branch restores the
// monotonicity the dominance argument needs (and subsumes the
// overlap-control check, which additionally filters joins by capacity
// in joinSpan).
func dominates(m Mode, a, b *Sig) bool { return m.dominance().test(a, b) }

// dominance is a mode's dominance test with the mode resolved once, so
// scans that test many pairs under one mode pay for the mode tests once
// per scan instead of once per pair.
type dominance struct {
	depth    int
	mc, load bool
	// plain: the dimensions every mode shares are the whole test.
	plain bool
}

func (m Mode) dominance() dominance {
	d := dominance{depth: m.lexDepth(), mc: m.MC, load: m.loadDependent()}
	d.plain = d.depth == 1 && !d.mc && !d.load
	return d
}

// test reports whether a dominates b (see dominates). The dimensions
// every mode shares come first — cost, max arrival, Branch, Peak — and
// decide the plain signature; modeTest covers the rest.
func (d dominance) test(a, b *Sig) bool {
	if a.Cost > b.Cost || a.D[0] > b.D[0] || a.Branch > b.Branch || a.Peak > b.Peak {
		return false
	}
	return d.plain || d.modeTest(a, b)
}

// modeTest finishes the test of a pair no worse in the shared dimensions:
// the lexicographic arrival tail (read only when the max arrivals tie),
// TC under Lex-mc, and R under the load-dependent delay models.
func (d dominance) modeTest(a, b *Sig) bool {
	if d.depth > 1 && !lexLE(a, b, d.depth) {
		return false
	}
	if d.mc && a.TC > b.TC {
		return false
	}
	if d.load && a.R > b.R {
		return false
	}
	return true
}

// heapLess orders signatures for the wavefront priority queue:
// non-decreasing cost, ties broken by lexicographic arrival. With this
// order every pop is final exactly as in scalar Dijkstra: anything
// popped later at the same vertex has no smaller cost and no smaller
// arrival, so the dominance test against already-accepted solutions is
// sound. Exact cost ties fall through to the lexicographic tie-break:
// bitwise equality is the deterministic heap-order semantics.
//
//replint:floatcmp-helper
func heapLess(m Mode, a, b *Sig) bool {
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	return lexLess(a, b, m.lexDepth())
}

// totalCmp is a three-way total order refining the dominance partial
// order: if a dominates b and a != b in some dominance dimension, then
// totalCmp(a, b) < 0. The prune sweeps sort by it so a forward-only
// dominance scan yields the canonical minimal antichain — under the
// weaker heapLess sort, a kept entry could be dominated by a later one
// whenever cost and arrival tie but Branch, Peak, TC or R differ. The
// dominance dimensions come first (in the dominates order), then the
// remaining fields as deterministic tie-breaks so equal-key sorting
// never depends on input order.
//
//replint:floatcmp-helper
func totalCmp(m Mode, a, b *Sig) int {
	if a.Cost != b.Cost {
		return lessSign(a.Cost < b.Cost)
	}
	depth := m.lexDepth()
	for i := 0; i < depth; i++ {
		if a.D[i] != b.D[i] {
			return lessSign(a.D[i] < b.D[i])
		}
	}
	if m.MC && a.TC != b.TC {
		return lessSign(a.TC < b.TC)
	}
	if m.loadDependent() && a.R != b.R {
		return lessSign(a.R < b.R)
	}
	if a.Branch != b.Branch {
		return lessSign(a.Branch < b.Branch)
	}
	if a.Peak != b.Peak {
		return lessSign(a.Peak < b.Peak)
	}
	// Non-dominance tie-breaks: never reached for signatures of one
	// tree node in practice (W is constant per node, TC/R are neutral
	// outside their modes), but kept so the order is total regardless.
	if a.TC != b.TC {
		return lessSign(a.TC < b.TC)
	}
	if a.R != b.R {
		return lessSign(a.R < b.R)
	}
	if a.W != b.W {
		return lessSign(a.W < b.W)
	}
	return 0
}

// lessSign is −1 when the first of two unequal values is the smaller,
// else +1.
func lessSign(less bool) int {
	if less {
		return -1
	}
	return 1
}

// augmentInto writes into dst the signature s extended across edge e:
// wire cost adds to Cost, wire delay adds to every live arrival
// component (every recorded path passes through this wire). The result
// is a non-branching solution. dst may alias src.
func augmentInto(m Mode, dst, src *Sig, e *Edge) {
	*dst = *src
	dst.Cost += e.Cost
	dst.Branch = 0
	var wireDelay float64
	switch m.Delay {
	case LinearDelay:
		wireDelay = e.Delay
	case QuadraticDelay:
		// Route delay is (stem length)²; extending the stem by e.Delay
		// adds the difference of squares.
		l0 := dst.R
		l1 := l0 + e.Delay
		wireDelay = l1*l1 - l0*l0
		dst.R = l1
	case ElmoreDelay:
		// d = c·(R + r/2) with r = c = e.Delay per unit length.
		wireDelay = e.Delay * (dst.R + e.Delay/2)
		dst.R += e.Delay
	}
	depth := m.lexDepth()
	for i := 0; i < depth; i++ {
		if dst.D[i] != negInf {
			dst.D[i] += wireDelay
		}
	}
	if m.MC && dst.W > 0 {
		dst.TC += wireDelay
	}
}

// mergeInto writes into dst the combination of two child signatures
// meeting at a branching vertex (no placement cost or gate delay yet —
// see finishJoinInto). Costs add; the arrival vector becomes the top
// LexDepth values of the multiset union of both vectors, which
// implements the paper's join equations
//
//	t  = max(t_1 .. t_k)
//	t2 = max({t_i} ∪ {t2_i} \ {t}) ...
//
// associatively, so k-ary joins fold pairwise. TC and W accumulate per
// the Lex-mc join; Branch counts co-located gates. R is reset. dst must
// not alias a or b.
func mergeInto(m Mode, dst, a, b *Sig) {
	dst.Cost = a.Cost + b.Cost
	dst.TC = a.TC + b.TC
	dst.W = a.W + b.W
	dst.R = 0
	dst.Branch = a.Branch + b.Branch
	dst.Peak = maxI32(a.Peak, b.Peak)
	depth := m.lexDepth()
	// Descending-order merge of two sorted (descending) vectors,
	// keeping the top `depth` entries.
	i, j := 0, 0
	for k := 0; k < MaxLex; k++ {
		switch {
		case k >= depth:
			dst.D[k] = negInf
		case i < depth && (j >= depth || a.D[i] >= b.D[j]):
			dst.D[k] = a.D[i]
			i++
		case j < depth:
			dst.D[k] = b.D[j]
			j++
		default:
			dst.D[k] = negInf
		}
	}
}

// finishJoinInto writes into dst the signature src with the per-vertex
// terms of the join applied: placement cost p_ij and the gate's
// intrinsic delay (added to every live arrival component, and to TC
// when the critical branch passes through). For load-dependent modes
// the gate drives the upstream wire, so R resets. Branch grows by one:
// the parent gate itself now sits at this vertex. (We track gate
// *counts* rather than the paper's single bit — a strictly more
// precise version of the same scheme.) dst may alias src.
func finishJoinInto(m Mode, dst, src *Sig, placeCost, intrinsic float64) {
	*dst = *src
	dst.Cost += placeCost
	dst.Branch++
	if dst.Branch > dst.Peak {
		dst.Peak = dst.Branch
	}
	depth := m.lexDepth()
	for i := 0; i < depth; i++ {
		if dst.D[i] != negInf {
			dst.D[i] += intrinsic
		}
	}
	if m.MC && dst.W > 0 {
		dst.TC += intrinsic
	}
	switch m.Delay {
	case QuadraticDelay:
		dst.R = 0
	case ElmoreDelay:
		dst.R = m.GateR
	}
}

func maxI32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
