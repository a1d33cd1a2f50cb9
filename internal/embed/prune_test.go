package embed

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refDominates is the dominance rule in its textbook order, one
// dimension after the other, kept as the reference the restructured
// dominance.test must agree with.
func refDominates(m Mode, a, b *Sig) bool {
	if a.Cost > b.Cost {
		return false
	}
	if !lexLE(a, b, m.lexDepth()) {
		return false
	}
	if m.MC && a.TC > b.TC {
		return false
	}
	if m.loadDependent() && a.R > b.R {
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

// refPruneCombos is the by-value prune: sort the combos themselves by
// totalCmp, then keep each one no kept combo dominates, in place.
func refPruneCombos(m Mode, in []combo) []combo {
	in = slices.Clone(in)
	slices.SortFunc(in, func(a, b combo) int { return totalCmp(m, &a.sig, &b.sig) })
	out := in[:0]
	for i := range in {
		dominated := false
		for j := range out {
			if refDominates(m, &out[j].sig, &in[i].sig) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, in[i])
		}
	}
	return out
}

// pruneModes are the signature families the prune distinguishes: the
// plain staircase sweep and the quadratic scan under Lex-N, Lex-mc and
// a load-dependent delay.
var pruneModes = []struct {
	name string
	mode Mode
}{
	{"plain", Mode{LexDepth: 1}},
	{"lex3", Mode{LexDepth: 3}},
	{"lexmc", Mode{LexDepth: 1, MC: true}},
	{"elmore", Mode{LexDepth: 1, Delay: ElmoreDelay, GateR: 1}},
}

// tieSig draws a signature from small value ranges so that exact ties
// are common in every dimension, with ±0 in cost and arrivals and -Inf
// tail slots.
func tieSig(rng *rand.Rand, m Mode) Sig {
	vals := []float64{math.Copysign(0, -1), 0, 1, 2}
	s := Sig{
		Cost:   vals[rng.Intn(len(vals))],
		Branch: int32(rng.Intn(3)),
		TC:     vals[rng.Intn(len(vals))],
		R:      vals[rng.Intn(len(vals))],
		W:      int32(rng.Intn(2)),
	}
	s.Peak = s.Branch + int32(rng.Intn(2))
	for i := range s.D {
		s.D[i] = negInf
	}
	live := 1 + rng.Intn(m.lexDepth())
	for i := 0; i < live; i++ {
		s.D[i] = vals[rng.Intn(len(vals))]
		if i > 0 && s.D[i] > s.D[i-1] {
			s.D[i] = s.D[i-1]
		}
	}
	if !m.MC {
		s.TC, s.W = 0, 0
	}
	if !m.loadDependent() {
		s.R = 0
	}
	return s
}

// TestPruneCombosMatchesReference checks that the index-sorted prune
// keeps exactly what the by-value sort-and-prune keeps, in the same
// order and with the same off: pdqsort's moves depend only on the
// comparison answers, so sorting a permutation applies the same
// permutation, and among fully equal signatures the same one survives.
// Sizes straddle the insertion-sort cutoff so the partitioning paths
// run too.
func TestPruneCombosMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	sc := new(solverScratch)
	for _, pm := range pruneModes {
		for trial := 0; trial < 300; trial++ {
			n := rng.Intn(200)
			in := make([]combo, n)
			for i := range in {
				if i > 0 && rng.Intn(4) == 0 {
					// A fully equal signature under a different off.
					in[i].sig = in[rng.Intn(i)].sig
				} else {
					in[i].sig = tieSig(rng, pm.mode)
				}
				in[i].off = int32(i)
			}
			orig := slices.Clone(in)
			want := refPruneCombos(pm.mode, in)
			got := pruneCombos(pm.mode, in, sc)
			if !slices.Equal(in, orig) {
				t.Fatalf("%s trial %d: pruneCombos modified its input", pm.name, trial)
			}
			if len(got) != len(want) {
				t.Fatalf("%s trial %d (n=%d): kept %d combos, reference keeps %d", pm.name, trial, n, len(got), len(want))
			}
			for i := range want {
				if got[i].off != want[i].off || !sameSig(&got[i].sig, &want[i].sig) {
					t.Fatalf("%s trial %d (n=%d): kept[%d] = off %d %+v, reference off %d %+v",
						pm.name, trial, n, i, got[i].off, got[i].sig, want[i].off, want[i].sig)
				}
			}
		}
	}
}

// TestAcceptMatchesDominates checks accept, which tests candidates with
// the mode's dominance resolved once per solve, against the reference
// rule: a candidate is accepted iff no staged solution at its vertex
// dominates it. Candidates come in heap order, as pops do, and the
// pairwise test is compared with the reference on every pair too.
func TestAcceptMatchesDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, pm := range pruneModes {
		p := &Problem{Mode: pm.mode}
		r := &Result{p: p, dom: pm.mode.dominance()}
		for trial := 0; trial < 200; trial++ {
			cands := make([]Sig, 1+rng.Intn(60))
			for i := range cands {
				cands[i] = tieSig(rng, pm.mode)
			}
			slices.SortStableFunc(cands, func(a, b Sig) int {
				switch {
				case heapLess(pm.mode, &a, &b):
					return -1
				case heapLess(pm.mode, &b, &a):
					return 1
				}
				return 0
			})
			sc := new(solverScratch)
			sc.accFor(1)
			for i := range cands {
				for j := range cands {
					if got, want := dominates(pm.mode, &cands[i], &cands[j]), refDominates(pm.mode, &cands[i], &cands[j]); got != want {
						t.Fatalf("%s: dominates(%+v, %+v) = %v, reference %v", pm.name, cands[i], cands[j], got, want)
					}
				}
				wantAccept := true
				for j := range sc.acc[0] {
					if refDominates(pm.mode, &sc.acc[0][j].sig, &cands[i]) {
						wantAccept = false
						break
					}
				}
				if got := r.accept(sc, 0, &solution{sig: cands[i]}); got != wantAccept {
					t.Fatalf("%s trial %d: accept(%+v) = %v, reference %v (staged %d)",
						pm.name, trial, cands[i], got, wantAccept, len(sc.acc[0]))
				}
			}
		}
	}
}
