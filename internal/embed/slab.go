package embed

import (
	"math/bits"
	"sync"
)

// slabPool recycles the tables of a node memo's released nodes: the
// solution slabs, and the offset tables and join pools (both []int32),
// each kind in one LIFO list per size class. A slab's class is its
// capacity rounded down to a class size, and a request is served from
// the class of its length rounded up, so any slab found there is large
// enough and less than a quarter larger than the request (see
// slabClass).
//
// The pool never holds more than one generation: at each release it
// first drops its oldest slabs until what stays, plus what the release
// adds, fits in the capacity of the largest generation the memo has
// released. The pool is safe for concurrent use, because runLevels
// compacts the nodes of one level from several goroutines at once. The
// replassert build poisons every solution slab the pool takes back, so
// a Result read after its memo's next solve trips the heap-key
// assertion once a stale set reaches a wavefront.
type slabPool struct {
	mu   sync.Mutex
	sols slabLists[solution]
	ints slabLists[int32]
	// limit is the capacity of the largest generation released so far.
	limit slabCaps
}

// slabCaps is the capacity of a set of nodes' tables, in elements:
// solution slabs, and offset tables plus join pools.
type slabCaps struct {
	sols, ints int
}

func (c *slabCaps) add(ns nodeSols) {
	c.sols += cap(ns.sols)
	c.ints += cap(ns.off) + cap(ns.joinPool)
}

// slabLists holds the pooled slabs of one element type: per size class
// a list in the order they came back, the most recent last, and the
// total capacity held.
type slabLists[T any] struct {
	byClass [][]pooledSlab[T]
	held    int
	seq     uint64
}

// pooledSlab is an empty slab and its return number, which orders
// slabs by age across classes.
type pooledSlab[T any] struct {
	s   []T
	seq uint64
}

// slabClass returns the size class of an n-element request and the
// capacity of that class's slabs: n itself up to 4, above that n
// rounded up to the next of 4, 5, 6 or 7 × 2^k, so the class size is
// less than 1.25·n.
func slabClass(n int) (class, size int) {
	if n <= 4 {
		return n, n
	}
	e := bits.Len(uint(n)) - 1 // 2^e <= n < 2^(e+1), e >= 2
	step := 1 << (e - 2)
	j := (n - 1<<e + step - 1) / step // quarter steps above 2^e, 0..4
	class = 4*(e-1) + j
	return class, classSize(class)
}

// classSize is the slab capacity of a size class.
func classSize(class int) int {
	if class <= 4 {
		return class
	}
	e := class/4 + 1
	return 1<<e + (class%4)<<(e-2)
}

// floorClass is the largest class whose size fits in capacity c, the
// class a returned slab of that capacity joins.
func floorClass(c int) int {
	class, size := slabClass(c)
	if size > c {
		class--
	}
	return class
}

// refill takes back the tables of the nodes a release drops, gen being
// the capacity of the whole released generation (dropped nodes and the
// ones the memo keeps). The replassert build first fills the solution
// slabs with NaN-cost poison.
func (sp *slabPool) refill(gen slabCaps, dropped []nodeSols) {
	var in slabCaps
	for _, ns := range dropped {
		in.add(ns)
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.limit.sols = max(sp.limit.sols, gen.sols)
	sp.limit.ints = max(sp.limit.ints, gen.ints)
	sp.sols.trim(sp.limit.sols - in.sols)
	sp.ints.trim(sp.limit.ints - in.ints)
	for _, ns := range dropped {
		if assertEnabled {
			poisonSlab(ns.sols[:cap(ns.sols)])
		}
		sp.sols.push(ns.sols)
		sp.ints.push(ns.off)
		sp.ints.push(ns.joinPool)
	}
}

// get returns a node's empty solution slab with room for nsol
// solutions, its offset table of length noff, and its empty join pool
// with room for njoin references. A nil pool (a solve without a memo,
// or the root, which no memo keeps) allocates them at exact size.
func (sp *slabPool) get(nsol, noff, njoin int) ([]solution, []int32, []int32) {
	if sp == nil {
		return make([]solution, 0, nsol), make([]int32, noff), make([]int32, 0, njoin)
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.sols.pop(nsol), sp.ints.pop(noff)[:noff], sp.ints.pop(njoin)
}

// push adds s, emptied, to the list of its class.
func (l *slabLists[T]) push(s []T) {
	c := cap(s)
	if c == 0 {
		return
	}
	class := floorClass(c)
	if class >= len(l.byClass) {
		l.byClass = append(l.byClass, make([][]pooledSlab[T], class+1-len(l.byClass))...)
	}
	l.seq++
	l.byClass[class] = append(l.byClass[class], pooledSlab[T]{s: s[:0], seq: l.seq})
	l.held += c
}

// pop returns an empty slab with capacity at least n: the most recent
// one of n's class, or a new one of the class size.
func (l *slabLists[T]) pop(n int) []T {
	class, size := slabClass(n)
	if class < len(l.byClass) {
		if k := len(l.byClass[class]); k > 0 {
			list := l.byClass[class]
			s := list[k-1].s
			list[k-1] = pooledSlab[T]{}
			l.byClass[class] = list[:k-1]
			l.held -= cap(s)
			return s
		}
	}
	return make([]T, 0, size)
}

// trim drops the oldest slabs, whatever their class, until the lists
// hold at most limit elements.
func (l *slabLists[T]) trim(limit int) {
	for l.held > limit {
		oldest := -1
		for c, list := range l.byClass {
			if len(list) > 0 && (oldest < 0 || list[0].seq < l.byClass[oldest][0].seq) {
				oldest = c
			}
		}
		list := l.byClass[oldest]
		l.held -= cap(list[0].s)
		k := copy(list, list[1:])
		list[k] = pooledSlab[T]{}
		l.byClass[oldest] = list[:k]
	}
}
