package embed

import (
	"math"
	"math/rand"
	"testing"
)

// refHeap is the by-value wavefront heap the key/arena heap replaced:
// it sifts whole queueItems and compares them with heapLess. It is the
// reference the equivalence test holds waveHeap to.
type refHeap struct {
	mode  Mode
	items []queueItem
}

func (h *refHeap) init() {
	n := len(h.items)
	for i := n/2 - 1; i >= 0; i-- {
		h.siftDown(i, n)
	}
}

func (h *refHeap) push(it queueItem) {
	h.items = append(h.items, it)
	h.siftUp(len(h.items) - 1)
}

func (h *refHeap) pop() queueItem {
	n := len(h.items) - 1
	h.items[0], h.items[n] = h.items[n], h.items[0]
	h.siftDown(0, n)
	it := h.items[n]
	h.items = h.items[:n]
	return it
}

func (h *refHeap) less(i, j int) bool {
	return heapLess(h.mode, &h.items[i].sol.sig, &h.items[j].sol.sig)
}

func (h *refHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *refHeap) siftDown(i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
}

// tieItem draws an item from a tiny value grid so that exact (cost,
// d0) ties — and, in Lex modes, ties deeper in the arrival vector — are
// the common case. id is carried in prevIdx to identify the item.
func tieItem(rng *rand.Rand, id int32) queueItem {
	s := Sig{Cost: float64(rng.Intn(3)), Branch: int32(rng.Intn(2)), Peak: 1}
	s.D[0] = float64(rng.Intn(3))
	for k := 1; k < MaxLex; k++ {
		if rng.Intn(4) == 0 {
			s.D[k] = negInf
		} else {
			s.D[k] = float64(rng.Intn(2))
		}
	}
	return queueItem{
		sol:    solution{sig: s, kind: kindAugment, prevIdx: id},
		vertex: Vertex(rng.Intn(5)),
	}
}

// TestWaveHeapMatchesReference drives the key/arena heap and the
// by-value reference heap through identical seeded push/pop sequences
// (heapified seeds, bursts of tied pushes, popped slots recycled in a
// scrambled order) and requires the same item to pop at every step:
// the pop order, ties included, is what keeps solver output bit-exact.
func TestWaveHeapMatchesReference(t *testing.T) {
	for _, m := range []Mode{{LexDepth: 1}, {LexDepth: 3}} {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var id int32
			ref := refHeap{mode: m}
			h := waveHeap{depth: m.lexDepth()}
			for i := rng.Intn(30); i > 0; i-- {
				it := tieItem(rng, id)
				id++
				ref.items = append(ref.items, it)
				h.items = append(h.items, it)
			}
			ref.init()
			h.init()
			var held []int32 // popped slots not yet released
			for step := 0; step < 2000; step++ {
				if len(ref.items) > 0 && rng.Intn(5) < 2 {
					want := ref.pop()
					r := h.pop()
					if got := h.items[r]; got != want {
						t.Fatalf("mode %+v seed %d step %d: popped id %d %+v, reference popped id %d %+v",
							m, seed, step, got.sol.prevIdx, got.sol.sig, want.sol.prevIdx, want.sol.sig)
					}
					held = append(held, r)
				} else {
					it := tieItem(rng, id)
					id++
					ref.push(it)
					slot := h.alloc()
					h.items[slot] = it
					h.push(slot)
				}
				// Release a random subset of held slots so allocation
				// order diverges from pop order.
				for len(held) > 0 && rng.Intn(3) == 0 {
					k := rng.Intn(len(held))
					h.release(held[k])
					held[k] = held[len(held)-1]
					held = held[:len(held)-1]
				}
				if len(h.keys) != len(ref.items) {
					t.Fatalf("mode %+v seed %d step %d: size %d, reference %d",
						m, seed, step, len(h.keys), len(ref.items))
				}
			}
			for _, r := range held {
				h.release(r)
			}
			if live := len(h.items) - len(h.free); live != len(h.keys) {
				t.Fatalf("mode %+v seed %d: %d arena slots in use, %d keys live", m, seed, live, len(h.keys))
			}
		}
	}
}

// ordSample draws a float64 for the ordKey property test: signed zeros,
// infinities, subnormals, extremes and a small integer grid (so exact
// ties are common), or an arbitrary non-NaN bit pattern.
func ordSample(rng *rand.Rand) float64 {
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1030, // subnormal
		math.MaxFloat64, -math.MaxFloat64, 1, -1,
	}
	switch rng.Intn(3) {
	case 0:
		return special[rng.Intn(len(special))]
	case 1:
		return float64(rng.Intn(7) - 3)
	}
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) {
			return f
		}
	}
}

// TestOrdKeyPreservesOrder holds the integer heap keys to the float
// order they replace: for every pair, ordKey's unsigned order and
// equality answer exactly as the float comparisons do, and the 128-bit
// borrow of keyBorrow answers as the (cost, d0) lexicographic order.
func TestOrdKeyPreservesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		a, b := ordSample(rng), ordSample(rng)
		ka, kb := ordKey(a), ordKey(b)
		if (ka < kb) != (a < b) || (ka == kb) != (a == b) {
			t.Fatalf("ordKey(%g)=%#x, ordKey(%g)=%#x disagree with the float order", a, ka, b, kb)
		}
		c, d := ordSample(rng), ordSample(rng)
		x := heapKey{hi: ka, lo: ordKey(c)}
		y := heapKey{hi: kb, lo: ordKey(d)}
		want := a < b || a == b && c < d
		if got := keyBorrow(&x, &y) == 1; got != want {
			t.Fatalf("keyBorrow((%g,%g), (%g,%g)) = %v, want %v", a, c, b, d, got, want)
		}
	}
}
