package embed

// heapKey is what the wavefront heap moves: the two leading heapLess
// components plus the arena slot holding the full queueItem. Sifting
// swaps 24-byte keys instead of 104-byte items; the Lex tail D[1..depth)
// is read through ref only when cost and max arrival tie exactly.
type heapKey struct {
	cost, d0 float64
	ref      int32
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
		s := &h.items[i].sol.sig
		h.keys = append(h.keys, heapKey{cost: s.Cost, d0: s.D[0], ref: int32(i)})
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
	s := &h.items[ref].sol.sig
	h.keys = append(h.keys, heapKey{cost: s.Cost, d0: s.D[0], ref: ref})
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
//
//replint:floatcmp-helper
func (h *waveHeap) less(a, b *heapKey) bool {
	return a.cost < b.cost || a.cost == b.cost &&
		(a.d0 < b.d0 || a.d0 == b.d0 && h.depth > 1 && h.tailLess(a.ref, b.ref))
}

// tailLess compares D[1..depth) of two arena items. It stays out of
// line so that siftDown, which spells less out by hand, stays small.
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

// siftDown carries every pop, so its two comparisons are less inlined
// by hand (the tail call keeps the compiler from inlining less).
//
//replint:floatcmp-helper
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
			if a.cost < b.cost || a.cost == b.cost &&
				(a.d0 < b.d0 || a.d0 == b.d0 && lex && h.tailLess(a.ref, b.ref)) {
				m = r
			}
		}
		c := &keys[m]
		if !(c.cost < x.cost || c.cost == x.cost &&
			(c.d0 < x.d0 || c.d0 == x.d0 && lex && h.tailLess(c.ref, x.ref))) {
			break
		}
		keys[i] = *c
		i = m
	}
	keys[i] = x
}
