package embed

import (
	"math"
	"math/bits"
)

// heapKey is what the wavefront heap moves: order-preserving integer
// images of the two leading heapLess components (hi of Cost, lo of
// D[0]) plus the arena slot holding the full queueItem. Sifting swaps
// 24-byte keys instead of 104-byte items, and compares (hi, lo) as one
// unsigned 128-bit value; the Lex tail D[1..depth) is read through ref
// only when both images tie exactly.
type heapKey struct {
	hi, lo uint64
	ref    int32
}

// ordKey maps a float64 to a uint64 whose unsigned order is the float
// order: ordKey(a) < ordKey(b) iff a < b, and ordKey(a) == ordKey(b)
// iff a == b. −0 folds onto +0 (they compare equal), then the
// sign-magnitude bits become an offset binary: a set sign flips every
// bit, a clear one sets the sign. NaN has no place in the order; the
// replassert build checks that no key is ever made from one.
func ordKey(f float64) uint64 {
	b := math.Float64bits(f)
	if b == 1<<63 {
		b = 0
	}
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// keyOf builds the heap key for arena slot ref.
func keyOf(s *Sig, ref int32) heapKey {
	if assertEnabled {
		assertKeyable(s)
	}
	return heapKey{hi: ordKey(s.Cost), lo: ordKey(s.D[0]), ref: ref}
}

// keyBorrow is 1 when (a.hi, a.lo) < (b.hi, b.lo) as a 128-bit
// unsigned value, else 0: the borrow out of a − b.
func keyBorrow(a, b *heapKey) uint64 {
	_, borrow := bits.Sub64(a.lo, b.lo, 0)
	_, borrow = bits.Sub64(a.hi, b.hi, borrow)
	return borrow
}

// waveHeap is a typed binary min-heap of heapKeys ordered by heapLess
// on the items they reference. The items live in an arena (items) whose
// slots are recycled through a free-list, so the arena stays at the
// size of the live heap rather than growing with every push. All three
// slices live in the solver scratch and are reused across Solve calls.
//
// The sifts make the same comparisons as the textbook swap-based heap
// and less returns exactly heapLess's answer, so the key permutation —
// and with it the pop order, ties included — is a function of the
// comparison results alone: slot numbers never influence which item
// pops next.
type waveHeap struct {
	depth int
	keys  []heapKey
	items []queueItem
	free  []int32
}

// init takes the staged arena as the live set (one key per slot, in
// slot order) and establishes the heap invariant bottom-up in O(n).
func (h *waveHeap) init() {
	h.keys = h.keys[:0]
	h.free = h.free[:0]
	for i := range h.items {
		h.keys = append(h.keys, keyOf(&h.items[i].sol.sig, int32(i)))
	}
	n := len(h.keys)
	for i := n/2 - 1; i >= 0; i-- {
		h.siftDown(i, n)
	}
}

// alloc returns a free arena slot, growing the arena when the free-list
// is empty. The returned slot's contents are stale; the caller fills it
// before push. Pointers into items are invalidated by alloc.
func (h *waveHeap) alloc() int32 {
	if n := len(h.free); n > 0 {
		ref := h.free[n-1]
		h.free = h.free[:n-1]
		return ref
	}
	h.items = append(h.items, queueItem{})
	return int32(len(h.items) - 1)
}

// release returns a popped slot to the free-list.
func (h *waveHeap) release(ref int32) { h.free = append(h.free, ref) }

// push enqueues the filled arena slot ref.
func (h *waveHeap) push(ref int32) {
	h.keys = append(h.keys, keyOf(&h.items[ref].sol.sig, ref))
	h.siftUp(len(h.keys) - 1)
}

// pop removes the minimum and returns its arena slot, which stays
// valid until the caller releases it.
func (h *waveHeap) pop() int32 {
	n := len(h.keys) - 1
	top := h.keys[0].ref
	if n > 0 {
		h.keys[0] = h.keys[n]
	}
	h.keys = h.keys[:n]
	h.siftDown(0, n)
	return top
}

// less is heapLess over the referenced items: cost, then the
// lexicographic arrival vector, whose first entry rides in the key.
// Only an exact (cost, d0) tie in a Lex mode reads the arena.
func (h *waveHeap) less(a, b *heapKey) bool {
	if a.hi == b.hi && a.lo == b.lo {
		return h.depth > 1 && h.tailLess(a.ref, b.ref)
	}
	return keyBorrow(a, b) != 0
}

// tailLess compares D[1..depth) of two arena items. It stays out of
// line so that siftDown's loop stays small.
//
//replint:floatcmp-helper
//go:noinline
func (h *waveHeap) tailLess(a, b int32) bool {
	sa, sb := &h.items[a].sol.sig, &h.items[b].sol.sig
	for k := 1; k < h.depth; k++ {
		if sa.D[k] != sb.D[k] {
			return sa.D[k] < sb.D[k]
		}
	}
	return false
}

// siftUp and siftDown are the textbook swap-based sifts with the
// moving key held aside instead of swapped at every level: each
// comparison sees the same two keys as in the swapping form, so the
// resulting permutation is identical.
func (h *waveHeap) siftUp(i int) {
	keys := h.keys
	x := keys[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(&x, &keys[parent]) {
			break
		}
		keys[i] = keys[parent]
		i = parent
	}
	keys[i] = x
}

// siftDown carries every pop, so both of its comparisons are less
// spelled out by hand. The min-child select adds the borrow of
// right − left to the left index, so it takes no branch; only an exact
// key tie in a Lex mode falls back to the tail comparison.
func (h *waveHeap) siftDown(i, n int) {
	if n == 0 {
		return
	}
	keys := h.keys[:n]
	x := keys[i]
	lex := h.depth > 1
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n {
			a, b := &keys[r], &keys[l]
			if lex && a.hi == b.hi && a.lo == b.lo {
				if h.tailLess(a.ref, b.ref) {
					m = r
				}
			} else {
				m += int(keyBorrow(a, b))
			}
		}
		c := &keys[m]
		if lex && c.hi == x.hi && c.lo == x.lo {
			if !h.tailLess(c.ref, x.ref) {
				break
			}
		} else if keyBorrow(c, &x) == 0 {
			break
		}
		keys[i] = *c
		i = m
	}
	keys[i] = x
}
