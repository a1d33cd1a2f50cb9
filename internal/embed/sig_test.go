package embed

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randSig builds a structurally valid signature: D sorted descending
// with -Inf padding, as the DP maintains.
func randSig(rng *rand.Rand, depth int) Sig {
	s := Sig{Cost: float64(rng.Intn(40)), Branch: int32(rng.Intn(3)), Peak: 1}
	if s.Branch > s.Peak {
		s.Peak = s.Branch
	}
	live := 1 + rng.Intn(depth)
	vals := make([]float64, live)
	for i := range vals {
		vals[i] = float64(rng.Intn(30))
	}
	// Sort descending.
	for i := 0; i < live; i++ {
		for j := i + 1; j < live; j++ {
			if vals[j] > vals[i] {
				vals[i], vals[j] = vals[j], vals[i]
			}
		}
	}
	for i := 0; i < MaxLex; i++ {
		if i < live {
			s.D[i] = vals[i]
		} else {
			s.D[i] = negInf
		}
	}
	return s
}

// TestMergeProperties checks the join algebra with randomized inputs:
// commutativity, associativity (the property that justifies pairwise
// k-ary folding), and the defining top-k-of-multiset semantics.
func TestMergeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, depth := range []int{1, 2, 3, 5} {
		m := Mode{LexDepth: depth}
		for trial := 0; trial < 500; trial++ {
			a, b, c := randSig(rng, depth), randSig(rng, depth), randSig(rng, depth)
			ab := merge(m, &a, &b)
			ba := merge(m, &b, &a)
			if ab != ba {
				t.Fatalf("depth %d: merge not commutative:\n%v\n%v", depth, ab, ba)
			}
			abc1 := merge(m, &ab, &c)
			bc := merge(m, &b, &c)
			abc2 := merge(m, &a, &bc)
			if abc1 != abc2 {
				t.Fatalf("depth %d: merge not associative:\n%v\n%v", depth, abc1, abc2)
			}
			// Top-k-of-multiset semantics.
			var pool []float64
			for i := 0; i < depth; i++ {
				for _, s := range []*Sig{&a, &b} {
					if s.D[i] != negInf {
						pool = append(pool, s.D[i])
					}
				}
			}
			for i := 0; i < len(pool); i++ {
				for j := i + 1; j < len(pool); j++ {
					if pool[j] > pool[i] {
						pool[i], pool[j] = pool[j], pool[i]
					}
				}
			}
			for i := 0; i < depth; i++ {
				want := negInf
				if i < len(pool) {
					want = pool[i]
				}
				if ab.D[i] != want {
					t.Fatalf("depth %d: merged D[%d] = %v, want %v (pool %v)",
						depth, i, ab.D[i], want, pool)
				}
			}
		}
	}
}

// TestMergeMonotoneInvariant: merged vectors stay sorted descending —
// the invariant the lexicographic dominance test relies on.
func TestMergeMonotoneInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := Mode{LexDepth: 4}
	for trial := 0; trial < 1000; trial++ {
		a, b := randSig(rng, 4), randSig(rng, 4)
		out := merge(m, &a, &b)
		for i := 1; i < 4; i++ {
			if out.D[i] > out.D[i-1] {
				t.Fatalf("merged vector not descending: %v", out.D)
			}
		}
	}
}

// TestDominancePartialOrder: dominance is reflexive and transitive,
// and strictly antisymmetric modulo equality — the properties that
// make pruning sound.
func TestDominancePartialOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, m := range []Mode{
		{LexDepth: 1},
		{LexDepth: 3},
		{LexDepth: 1, MC: true},
		{LexDepth: 1, Delay: ElmoreDelay},
		{LexDepth: 2, OverlapControl: true},
	} {
		sigs := make([]Sig, 60)
		for i := range sigs {
			sigs[i] = randSig(rng, max(1, m.LexDepth))
			sigs[i].TC = float64(rng.Intn(10))
			sigs[i].R = float64(rng.Intn(5))
		}
		for i := range sigs {
			if !dominates(m, &sigs[i], &sigs[i]) {
				t.Fatalf("mode %+v: dominance not reflexive", m)
			}
		}
		for i := range sigs {
			for j := range sigs {
				for k := range sigs {
					if dominates(m, &sigs[i], &sigs[j]) && dominates(m, &sigs[j], &sigs[k]) &&
						!dominates(m, &sigs[i], &sigs[k]) {
						t.Fatalf("mode %+v: dominance not transitive", m)
					}
				}
			}
		}
	}
}

// TestAugmentMonotone: augmenting across an edge never decreases cost
// or any live arrival component, for every delay model.
func TestAugmentMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range []Mode{
		{LexDepth: 3},
		{LexDepth: 2, Delay: QuadraticDelay},
		{LexDepth: 1, Delay: ElmoreDelay, GateR: 1},
	} {
		for trial := 0; trial < 500; trial++ {
			s := randSig(rng, max(1, m.LexDepth))
			s.R = float64(rng.Intn(4))
			e := Edge{Cost: 0.5 + rng.Float64(), Delay: rng.Float64() * 3}
			out := augment(m, s, e)
			if out.Cost <= s.Cost {
				t.Fatalf("augment did not increase cost")
			}
			for i := 0; i < m.lexDepth(); i++ {
				if s.D[i] != negInf && out.D[i] < s.D[i] {
					t.Fatalf("augment decreased D[%d]: %v -> %v", i, s.D[i], out.D[i])
				}
			}
			if out.Branch != 0 {
				t.Fatal("augmented solutions must be non-branching")
			}
			if out.Peak < s.Peak {
				t.Fatal("augment must preserve peak stacking")
			}
		}
	}
}

// TestQuadraticAugmentExact: extending a stem accumulates exactly the
// square of the total length, independent of segmentation.
func TestQuadraticAugmentExact(t *testing.T) {
	m := Mode{LexDepth: 1, Delay: QuadraticDelay}
	segment := func(lengths []float64) float64 {
		s := newLeafSig(m, 0, false)
		for _, l := range lengths {
			s = augment(m, s, Edge{Cost: 1, Delay: l})
		}
		return s.D[0]
	}
	f := func(a, b, c uint8) bool {
		la, lb, lc := float64(a%8), float64(b%8), float64(c%8)
		total := la + lb + lc
		got := segment([]float64{la, lb, lc})
		return math.Abs(got-total*total) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFinishJoinGateDelay: the gate delay lands on every live
// component and the load-model state resets.
func TestFinishJoinGateDelay(t *testing.T) {
	m := Mode{LexDepth: 3, Delay: ElmoreDelay, GateR: 2.5}
	s := randSig(rand.New(rand.NewSource(5)), 3)
	s.R = 7
	out := finishJoin(m, s, 1.5, 2)
	if out.Cost != s.Cost+1.5 {
		t.Errorf("cost = %v, want %v", out.Cost, s.Cost+1.5)
	}
	for i := 0; i < 3; i++ {
		if s.D[i] == negInf {
			continue
		}
		if out.D[i] != s.D[i]+2 {
			t.Errorf("D[%d] = %v, want %v", i, out.D[i], s.D[i]+2)
		}
	}
	if out.R != 2.5 {
		t.Errorf("R after gate = %v, want GateR 2.5", out.R)
	}
	if out.Branch != s.Branch+1 {
		t.Errorf("Branch = %d, want %d", out.Branch, s.Branch+1)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// merge is the by-value form of mergeInto.
func merge(m Mode, a, b *Sig) Sig {
	var out Sig
	mergeInto(m, &out, a, b)
	return out
}

// finishJoin is the by-value form of finishJoinInto.
func finishJoin(m Mode, s Sig, placeCost, intrinsic float64) Sig {
	finishJoinInto(m, &s, &s, placeCost, intrinsic)
	return s
}

// augment is the by-value form of augmentInto.
func augment(m Mode, s Sig, e Edge) Sig {
	var out Sig
	augmentInto(m, &out, &s, &e)
	return out
}
