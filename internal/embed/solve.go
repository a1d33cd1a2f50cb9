package embed

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Problem is one fanin-tree embedding instance.
type Problem struct {
	G    *Graph
	T    *Tree
	Mode Mode
	// PlaceCost returns p_ij, the cost of placing internal tree node i
	// at vertex j (Section II-A). nil means zero everywhere. Return
	// +Inf to forbid a location for one node. A solve calls it once per
	// (node, unblocked vertex): for the non-root nodes up front on the
	// calling goroutine, for the root from the root join. Must be safe
	// for concurrent calls when Parallelism > 1.
	PlaceCost func(node NodeID, v Vertex) float64
	// Capacity returns the remaining capacity of the slot at v for the
	// overlap-control scheme; nil means capacity 1 everywhere. Only
	// consulted when Mode.OverlapControl is set. Must be safe for
	// concurrent calls when Parallelism > 1.
	Capacity func(v Vertex) int
	// MaxPerVertex caps the solution list kept per (node, vertex);
	// 0 keeps every non-dominated solution (exact). When the cap is
	// hit, a new solution is accepted only if it improves the current
	// fastest arrival by more than DelayQuantum — a documented
	// approximation for very large instances.
	MaxPerVertex int
	DelayQuantum float64
	// Parallelism is the worker count for the join fan-out and for
	// processing independent subtrees concurrently. 0 or 1 runs the
	// exact serial path; any value produces bit-identical results
	// (joins are sharded over vertex ranges and merged back in vertex
	// order, and sibling subtrees are data-independent).
	Parallelism int
	// Memo, when non-nil, serves repeated DP nodes from earlier solves
	// and from earlier in the same solve (see NodeMemo); the result is
	// bit-identical to a solve without it. The memo recycles the node
	// sets it releases, so the Result is valid only until the memo's
	// next solve.
	Memo *NodeMemo
}

func (p *Problem) workers() int {
	if p.Parallelism <= 1 {
		return 1
	}
	return p.Parallelism
}

// capacity is the overlap-control capacity of the slot at v.
func (p *Problem) capacity(v Vertex) int {
	if p.Capacity == nil {
		return 1
	}
	return p.Capacity(v)
}

type solKind uint8

const (
	kindLeaf solKind = iota
	kindJoin
	kindAugment
)

// solution couples a signature with the provenance needed to
// reconstruct the embedding top-down after a solution is chosen.
type solution struct {
	sig  Sig
	kind solKind
	// kindAugment: predecessor solution.
	prevVertex Vertex
	prevIdx    int32
	// kindJoin: children solution indices at the same vertex, stored
	// in nodeSols.joinPool[joinRef : joinRef+len(children)].
	joinRef int32
}

// nodeSols holds the accepted non-dominated solution sets A[i][j] for
// one tree node, plus the flattened child references of its join
// solutions. All of a node's accepted solutions sit in one slab in
// vertex order; A[i][v] is sols[off[v]:off[v+1]].
type nodeSols struct {
	sols     []solution
	off      []int32
	joinPool []int32
}

// at returns A[i][v]. Every node is compacted before anything reads
// it: a node that a cancellation skipped is never joined or extracted,
// because the cancelled run stops and fails first.
func (ns *nodeSols) at(v Vertex) []solution {
	return ns.sols[ns.off[v]:ns.off[v+1]]
}

// compact copies the join pool and the accepted lists staged in the
// scratch (sc.pool, and sc.acc for the first nv vertices) into the
// node's tables, taken from slabs (nil: allocated at exact size), and
// empties them, keeping their capacity for the next node.
func (ns *nodeSols) compact(sc *solverScratch, nv int, slabs *slabPool) {
	ns.sols, ns.off, ns.joinPool = slabs.get(sc.nacc, nv+1, len(sc.pool))
	ns.joinPool = append(ns.joinPool, sc.pool...)
	sc.pool = sc.pool[:0]
	for v, list := range sc.acc[:nv] {
		ns.off[v] = int32(len(ns.sols))
		ns.sols = append(ns.sols, list...)
		sc.acc[v] = list[:0]
	}
	ns.off[nv] = int32(len(ns.sols))
	sc.nacc = 0
}

// Result is the outcome of Solve: the non-dominated cost/arrival
// tradeoff at the root ("Frontier"), plus enough state to extract any
// chosen solution's full embedding. A Result solved with a Problem.Memo
// is valid only until that memo's next solve; the frozen copy a Cache
// keeps has no such limit.
type Result struct {
	p        *Problem
	sols     []nodeSols
	Frontier []FrontierSol
	// frozen, set only on a frozen copy, holds the embedding of each
	// Frontier point, index for index; p and sols are then nil.
	frozen []*Embedding

	// ctx and aborted implement cooperative cancellation: workers poll
	// the flag (set once ctx is done) at amortized intervals and bail
	// out; the partial DP state is discarded and SolveContext returns
	// ctx.Err(). Results are never partial: a run either completes
	// bit-identically to the uncancelled one or fails with the
	// context's error.
	ctx     context.Context
	aborted atomic.Bool

	// place is the per-solve vector of p_ij for the non-root internal
	// nodes, node id's costs starting at placeOff[id] (-1 for leaves
	// and the root). Both borrow the solving goroutine's scratch and are
	// dropped when the solve returns.
	place    []float64
	placeOff []int
	// dom is the dominance test of p.Mode.
	dom dominance
}

// ctxCheckStride amortizes ctx.Err polls over this many wavefront pops
// or join vertices per worker; the flag check between strides is a
// single atomic load.
const ctxCheckStride = 512

// cancelled polls the context (amortized by the caller) and latches the
// abort flag so sibling workers stop at their next stride boundary.
func (r *Result) cancelled() bool {
	if r.aborted.Load() {
		return true
	}
	if r.ctx != nil && r.ctx.Err() != nil {
		r.aborted.Store(true)
		return true
	}
	return false
}

// FrontierSol is one point on the root tradeoff curve.
type FrontierSol struct {
	Sig Sig
	// Vertex is where the root was placed (always the fixed root
	// vertex unless the root was free, the FF-relocation mode).
	Vertex Vertex
	idx    int32
}

// solverScratch bundles the reusable per-solve buffers: the wavefront
// heap and its item arena, the accepted lists of the node being
// expanded, the join fold (cross product, sort permutation, pruned
// combos and the flat child-index arenas behind them), and the prune
// staircase. It is pooled so repeated Solve calls inside the engine
// loop stop churning the garbage collector.
type solverScratch struct {
	// items is the wavefront arena (seeded by the join, then recycled
	// through free); keys is the heap over it.
	items []queueItem
	keys  []heapKey
	free  []int32
	// acc[v] is A[id][v] while node id's wavefront runs, nacc the
	// number of solutions across them, and pool the node's join child
	// references; compact moves them into the node's tables and leaves
	// them empty.
	acc  [][]solution
	nacc int
	pool []int32
	// combos is the join fold's cross product, perm the order
	// pruneCombos sorts it in, and kept the pruned combos; arena holds
	// the child indices behind them, double-buffered across fold steps.
	combos []combo
	perm   []int32
	kept   []combo
	arena  [2][]int32
	// stairBranch / stairs are the branch-classed prune staircases:
	// one monotone (d0, peak) staircase per distinct Branch value seen
	// among the combos of one join (see pruneCombos2D).
	stairBranch []int32
	stairs      [][]stairStep
	// place and placeOff back Result.place and Result.placeOff; nodeFP
	// holds each node's memo key and dupOf the earlier node of the same
	// solve a repeated node copies (-1 for none).
	place    []float64
	placeOff []int
	nodeFP   []Fingerprint
	dupOf    []NodeID
}

var scratchPool = sync.Pool{New: func() any { return new(solverScratch) }}

func getScratch() *solverScratch { return scratchPool.Get().(*solverScratch) }

// putScratch returns sc to the pool. The replassert build first fills
// the scratch's solution buffers with NaN-cost poison, so a caller that
// keeps reading a slice backed by a released scratch trips the key
// assertions in waveHeap.
func putScratch(sc *solverScratch) {
	if assertEnabled {
		poisonScratch(sc)
	}
	scratchPool.Put(sc)
}

// accFor sizes the accepted lists for an nv-vertex graph.
func (sc *solverScratch) accFor(nv int) {
	if n := len(sc.acc); n < nv {
		sc.acc = append(sc.acc, make([][]solution, nv-n)...)
	}
}

// Solve runs the embedding DP of Fig. 6 and returns the root tradeoff
// curve sorted by increasing cost. With Parallelism > 1 independent
// subtrees and join fan-outs run on a worker pool; the result is
// bit-identical to the serial path.
func (p *Problem) Solve() (*Result, error) {
	return p.SolveContext(context.Background())
}

// SolveContext is Solve under a context: the DP polls for cancellation
// at amortized intervals in the level scheduler, join fan-out, and
// wavefront expansion, abandons the run, and returns ctx.Err(). All
// worker goroutines exit before the call returns, cancelled or not.
func (p *Problem) SolveContext(ctx context.Context) (*Result, error) {
	if err := p.T.Validate(p.G.NumVertices()); err != nil {
		return nil, err
	}
	r := &Result{p: p, ctx: ctx, sols: make([]nodeSols, len(p.T.Nodes)), dom: p.Mode.dominance()}
	order := p.T.PostOrder()
	sc := getScratch()
	defer putScratch(sc)
	r.prepare(order, sc)
	workers := p.workers()
	if workers > 1 {
		r.runLevels(order, workers, sc)
	} else {
		for _, id := range order {
			if id == p.T.Root || r.cancelled() {
				break // root is handled in finish; cancel abandons the DP
			}
			if !r.memoPending(id, sc) {
				r.memoCopy(id, sc)
				continue
			}
			r.processNode(id, 1, sc)
			r.memoStore(id, sc)
		}
	}
	res, err := r.finish(workers, sc)
	r.memoCommit()
	r.place, r.placeOff = nil, nil
	return res, err
}

// prepare runs before any node is computed. It evaluates p_ij once per
// (non-root internal node, unblocked vertex) into the per-solve vector
// joinSpan reads. With a memo it also keys every non-root node bottom-up
// (the placement costs go into an internal node's key), looks each one
// up, and then releases the memo's previous generation.
func (r *Result) prepare(order []NodeID, sc *solverScratch) {
	p := r.p
	t := p.T
	nv := p.G.NumVertices()
	internal := 0
	for i := range t.Nodes {
		if NodeID(i) != t.Root && !t.Nodes[i].IsLeaf() {
			internal++
		}
	}
	sc.place = slices.Grow(sc.place[:0], internal*nv)[:internal*nv]
	sc.placeOff = slices.Grow(sc.placeOff[:0], len(t.Nodes))[:len(t.Nodes)]
	r.place, r.placeOff = sc.place, sc.placeOff
	m := p.Memo
	var base Hasher
	if m != nil {
		base = p.memoBase()
		sc.nodeFP = slices.Grow(sc.nodeFP[:0], len(t.Nodes))[:len(t.Nodes)]
		sc.dupOf = slices.Grow(sc.dupOf[:0], len(t.Nodes))[:len(t.Nodes)]
	}
	off := 0
	for _, id := range order {
		sc.placeOff[id] = -1
		if id == t.Root {
			continue
		}
		h := base
		if m != nil {
			r.memoNode(&h, id, sc)
		}
		if !t.Nodes[id].IsLeaf() {
			sc.placeOff[id] = off
			for v := range nv {
				if p.G.Blocked(Vertex(v)) {
					continue
				}
				pc := 0.0
				if p.PlaceCost != nil {
					pc = p.PlaceCost(id, Vertex(v))
				}
				sc.place[off+v] = pc
				h.F64(pc)
			}
			off += nv
		}
		if m != nil {
			sc.nodeFP[id] = h.Sum()
			r.memoLookup(id, sc)
		}
	}
	if m != nil {
		m.memoRelease()
	}
}

// placeCost returns p_ij: from the per-solve vector for a non-root
// internal node, by a direct PlaceCost call for the root.
func (r *Result) placeCost(id NodeID, v Vertex) float64 {
	if off := r.placeOff[id]; off >= 0 {
		return r.place[off+int(v)]
	}
	if r.p.PlaceCost == nil {
		return 0
	}
	return r.p.PlaceCost(id, v)
}

// processNode computes one non-root node's accepted solution sets:
// ComputeInitial (line b2) for leaves or JoinTree (line c2) for
// internal nodes, followed by the wavefront expansion. par > 1 shards
// the join across vertex ranges.
func (r *Result) processNode(id NodeID, par int, sc *solverScratch) {
	if r.cancelled() {
		return
	}
	n := &r.p.T.Nodes[id]
	switch {
	case n.IsLeaf():
		init := solution{sig: newLeafSig(r.p.Mode, n.Arr, n.Critical), kind: kindLeaf}
		sc.items = append(sc.items[:0], queueItem{sol: init, vertex: n.Vertex})
	case par > 1:
		sc.items = r.joinParallel(id, &sc.pool, sc.items[:0], par)
	default:
		sc.items = r.joinSpan(id, 0, r.p.G.NumVertices(), nil, &sc.pool, sc.items[:0], sc)
	}
	r.runWavefront(id, sc)
}

// runLevels processes the tree bottom-up in dependency levels: a node
// is ready once all its children are done, so the nodes of one level
// are data-independent and run concurrently. Levels with a single node
// instead parallelize the join fan-out across vertices. Only the
// calling goroutine, whose scratch is sc, touches the memo: prepare
// served its hits before the levels run, and each level's computed
// nodes are stored, and its repeats copied, after the level's
// wg.Wait. Nodes with equal keys have equal subtree heights, so a
// repeat sits in the level of the node it copies.
func (r *Result) runLevels(order []NodeID, workers int, sc *solverScratch) {
	t := r.p.T
	depth := make([]int32, len(t.Nodes))
	maxd := int32(0)
	for _, id := range order {
		d := int32(0)
		for _, c := range t.Nodes[id].Children {
			if depth[c]+1 > d {
				d = depth[c] + 1
			}
		}
		depth[id] = d
		if id != t.Root && d > maxd {
			maxd = d
		}
	}
	levels := make([][]NodeID, maxd+1)
	for _, id := range order {
		if id == t.Root {
			continue
		}
		levels[depth[id]] = append(levels[depth[id]], id)
	}
	sem := make(chan struct{}, workers)
	var todo []NodeID
	for _, nodes := range levels {
		if r.cancelled() {
			return // later levels would only consume abandoned inputs
		}
		todo = todo[:0]
		for _, id := range nodes {
			if r.memoPending(id, sc) {
				todo = append(todo, id)
			}
		}
		r.runLevel(todo, workers, sem)
		for _, id := range todo {
			r.memoStore(id, sc)
		}
		for _, id := range nodes {
			r.memoCopy(id, sc)
		}
	}
}

// runLevel computes the data-independent nodes of one level: a single
// node shards its join over the workers, several run one goroutine
// each under sem.
func (r *Result) runLevel(nodes []NodeID, workers int, sem chan struct{}) {
	switch len(nodes) {
	case 0:
	case 1:
		sc := getScratch()
		r.processNode(nodes[0], workers, sc)
		putScratch(sc)
	default:
		var wg sync.WaitGroup
		for _, id := range nodes {
			wg.Add(1)
			sem <- struct{}{}
			//replint:ignore hotalloc -- one launch per tree node, amortized over that node's whole wavefront
			go func(id NodeID) {
				defer wg.Done()
				sc := getScratch()
				//replint:ignore shardwrite -- processNode writes only r.sols[id], this worker's own per-node slot
				r.processNode(id, 1, sc)
				putScratch(sc)
				<-sem
			}(id)
		}
		wg.Wait()
	}
}

// finish joins at the root (A[t][root] = A^b[t][root] — the sink
// consumes the signal; no onward propagation) and assembles the global
// non-dominated frontier. A fixed root joins at its vertex only; a
// free root joins everywhere and the frontier spans all vertices. sc is
// the solving goroutine's scratch.
func (r *Result) finish(workers int, sc *solverScratch) (*Result, error) {
	if r.cancelled() {
		return nil, r.ctx.Err()
	}
	p := r.p
	rootNode := &p.T.Nodes[p.T.Root]
	ns := &r.sols[p.T.Root]
	var seeds []queueItem
	switch {
	case rootNode.Vertex >= 0:
		seeds = r.joinSpan(p.T.Root, 0, 0, []Vertex{rootNode.Vertex}, &sc.pool, sc.items[:0], sc)
	case workers > 1:
		seeds = r.joinParallel(p.T.Root, &sc.pool, sc.items[:0], workers)
	default:
		seeds = r.joinSpan(p.T.Root, 0, p.G.NumVertices(), nil, &sc.pool, sc.items[:0], sc)
	}
	nv := p.G.NumVertices()
	sc.accFor(nv)
	for _, it := range seeds {
		sc.acc[it.vertex] = append(sc.acc[it.vertex], it.sol)
	}
	sc.nacc = len(seeds)
	ns.compact(sc, nv, nil)
	sc.items = seeds[:0]
	if r.cancelled() {
		// The root join itself was cut short; its seed set may be
		// partial, so the run fails rather than return a wrong curve.
		return nil, r.ctx.Err()
	}

	// Collect the global non-dominated frontier.
	all := make([]FrontierSol, 0, len(ns.sols))
	for v := 0; v < nv; v++ {
		list := ns.at(Vertex(v))
		for i := range list {
			all = append(all, FrontierSol{Sig: list[i].sig, Vertex: Vertex(v), idx: int32(i)})
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("embed: no feasible embedding (root unreachable from leaves)")
	}
	// Canonical frontier order: totalCmp refines the dominance partial
	// order, so the forward-only dominance scan below keeps exactly the
	// minimal antichain (a dominating solution always sorts first). It
	// is cost-major, preserving SelectByBound's cheapest-first contract,
	// and breaks cost/arrival ties toward less gate stacking so that
	// selection never picks an overlap the legalizer must undo.
	slices.SortFunc(all, func(a, b FrontierSol) int {
		return totalCmp(p.Mode, &a.Sig, &b.Sig)
	})
	if rootNode.Vertex < 0 {
		// Free root (FF relocation, Section V-D): the caller needs
		// "the tradeoff curve composed of solutions at all possible
		// locations for the critical sink" — cross-vertex dominance
		// would discard exactly the alternative locations the
		// relocation heuristic must weigh against the sink's outgoing
		// paths, so per-vertex curves are kept. Each vertex's curve
		// still needs a post-join prune: the pre-join combo prune is
		// not enough, because finishJoin can make two incomparable
		// combos comparable (Branch grows by one and folds into Peak),
		// as the brute-force oracle demonstrates on small instances.
		for _, f := range all {
			dominated := false
			for i := range r.Frontier {
				if r.Frontier[i].Vertex == f.Vertex && r.dom.test(&r.Frontier[i].Sig, &f.Sig) {
					dominated = true
					break
				}
			}
			if !dominated {
				r.Frontier = append(r.Frontier, f)
			}
		}
		if assertEnabled {
			assertFrontier(p.Mode, r.Frontier, true)
		}
		return r, nil
	}
	for _, f := range all {
		dominated := false
		for i := range r.Frontier {
			if r.dom.test(&r.Frontier[i].Sig, &f.Sig) {
				dominated = true
				break
			}
		}
		if !dominated {
			r.Frontier = append(r.Frontier, f)
		}
	}
	if assertEnabled {
		assertFrontier(p.Mode, r.Frontier, false)
	}
	return r, nil
}

// joinSpan computes the branching solutions A^b[id][j] (JoinTree
// line c2) for the vertices [lo, hi) — or the explicit list, when
// non-nil — by folding the children's accepted sets pairwise, then
// applying placement cost and gate delay. Seeds are appended with
// joinRef relative to *pool, so shards can build private pools that a
// deterministic merge rebases later.
func (r *Result) joinSpan(id NodeID, lo, hi int, list []Vertex, pool *[]int32, seeds []queueItem, sc *solverScratch) []queueItem {
	p := r.p
	n := &p.T.Nodes[id]
	k := int32(len(n.Children))
	join := func(v Vertex) {
		if p.G.Blocked(v) {
			return
		}
		pc := r.placeCost(id, v)
		if math.IsInf(pc, 1) {
			return
		}
		combos, arena, feasible := r.foldVertex(id, v, sc)
		if !feasible {
			return
		}
		for ci := range combos {
			cb := &combos[ci]
			// The join adds this gate to Branch (finishJoinInto).
			if p.Mode.OverlapControl && int(cb.sig.Branch+1) > p.capacity(v) {
				continue // would overfill the slot (Section II-A)
			}
			ref := int32(len(*pool))
			// Each caller passes a private pool/seed pair: join workers
			// the shard slot they claimed, tree-node goroutines their
			// own scratch. Shards merge after wg.Wait.
			*pool = append(*pool, arena[cb.off:cb.off+k]...)
			seeds = append(seeds, queueItem{sol: solution{kind: kindJoin, joinRef: ref}, vertex: v})
			finishJoinInto(p.Mode, &seeds[len(seeds)-1].sol.sig, &cb.sig, pc, n.Intrinsic)
		}
	}
	if list != nil {
		for _, v := range list {
			join(v)
		}
	} else {
		for v := lo; v < hi; v++ {
			if (v-lo)%ctxCheckStride == 0 && r.cancelled() {
				return seeds
			}
			join(Vertex(v))
		}
	}
	return seeds
}

// joinParallel shards joinSpan over contiguous vertex ranges on a
// worker pool, then merges the shard outputs back in vertex order, so
// the seed list and joinPool layout are bit-identical to the serial
// fold.
func (r *Result) joinParallel(id NodeID, pool *[]int32, seeds []queueItem, workers int) []queueItem {
	nv := r.p.G.NumVertices()
	chunk := (nv + workers*4 - 1) / (workers * 4)
	if chunk < 16 {
		chunk = 16
	}
	nchunks := (nv + chunk - 1) / chunk
	if nchunks <= 1 || workers <= 1 {
		sc := getScratch()
		seeds = r.joinSpan(id, 0, nv, nil, pool, seeds, sc)
		putScratch(sc)
		return seeds
	}
	type shard struct {
		seeds []queueItem
		pool  []int32
	}
	outs := make([]shard, nchunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	nw := workers
	if nw > nchunks {
		nw = nchunks
	}
	for w := 0; w < nw; w++ {
		wg.Add(1)
		//replint:ignore hotalloc -- one launch per join worker, amortized over the worker's chunk stream
		go func() {
			defer wg.Done()
			sc := getScratch()
			defer putScratch(sc)
			for {
				ci := int(next.Add(1)) - 1
				if ci >= nchunks {
					return
				}
				lo := ci * chunk
				hi := lo + chunk
				if hi > nv {
					hi = nv
				}
				// Chunk indices come from the atomic counter: each
				// worker claims a distinct ci, so the outs entries
				// written here are disjoint across workers.
				outs[ci].seeds = r.joinSpan(id, lo, hi, nil, &outs[ci].pool, outs[ci].seeds, sc)
			}
		}()
	}
	wg.Wait()
	for ci := range outs {
		base := int32(len(*pool))
		// The merge runs after wg.Wait, and across the per-node
		// wavefront goroutines each node folds into its own
		// goroutine's scratch.
		*pool = append(*pool, outs[ci].pool...)
		for _, it := range outs[ci].seeds {
			it.sol.joinRef += base
			seeds = append(seeds, it)
		}
	}
	return seeds
}

// foldVertex folds node id's children at vertex v: a pairwise
// cross-product with dominance pruning at each step (the paper's 2-D
// join is a linear merge; the pairwise cross-product with pruning is
// the general form that also covers the Lex and load-dependent
// signatures). The first step merges the first two children's accepted
// lists directly. The returned combos and their child-index arena live
// in sc and are valid until the next foldVertex call on that scratch.
func (r *Result) foldVertex(id NodeID, v Vertex, sc *solverScratch) ([]combo, []int32, bool) {
	m := r.p.Mode
	children := r.p.T.Nodes[id].Children
	for _, c := range children {
		if len(r.sols[c].at(v)) == 0 {
			return nil, nil, false
		}
	}
	first := r.sols[children[0]].at(v)
	if len(children) == 1 {
		kept, arena := sc.kept[:0], sc.arena[0][:0]
		for i := range first {
			kept = append(kept, combo{sig: first[i].sig, off: int32(i)})
			arena = append(arena, int32(i))
		}
		sc.kept, sc.arena[0] = kept, arena
		return kept, arena, true
	}
	second := r.sols[children[1]].at(v)
	n := len(first) * len(second)
	combos := slices.Grow(sc.combos[:0], n)[:n]
	arena := slices.Grow(sc.arena[0][:0], 2*n)[:2*n]
	k := 0
	for i := range first {
		for j := range second {
			cb := &combos[k]
			mergeInto(m, &cb.sig, &first[i].sig, &second[j].sig)
			cb.off = int32(2 * k)
			arena[2*k], arena[2*k+1] = int32(i), int32(j)
			k++
		}
	}
	sc.combos, sc.arena[0] = combos, arena
	kept := pruneCombos(m, combos, sc)
	cur := 0
	for ci := 2; ci < len(children); ci++ {
		sols := r.sols[children[ci]].at(v)
		nxt := 1 - cur
		n, w := len(kept)*len(sols), ci+1
		combos := slices.Grow(sc.combos[:0], n)[:n]
		arena := slices.Grow(sc.arena[nxt][:0], n*w)[:n*w]
		k := 0
		for ti := range kept {
			prev := &kept[ti]
			prefix := sc.arena[cur][prev.off : prev.off+int32(ci)]
			for i := range sols {
				cb := &combos[k]
				mergeInto(m, &cb.sig, &prev.sig, &sols[i].sig)
				cb.off = int32(k * w)
				copy(arena[k*w:], prefix)
				arena[k*w+ci] = int32(i)
				k++
			}
		}
		sc.combos, sc.arena[nxt] = combos, arena
		cur = nxt
		kept = pruneCombos(m, combos, sc)
	}
	return kept, sc.arena[cur], true
}

// combo is a partial join: a merged signature plus the offset of the
// child solution indices that produced it in the fold arena.
type combo struct {
	sig Sig
	off int32
}

// stairStep is one step of the 2-D prune staircase: among kept combos
// with arrival <= d0, the minimum peak is peak.
type stairStep struct {
	d0   float64
	peak int32
}

// pruneCombos removes dominated combinations and returns the survivors,
// copied into sc.kept in totalCmp order. It sorts a permutation of
// indices into in, not the combos themselves: the sort's decisions
// depend only on comparison answers, so the permutation is the one a
// sort of the combos would apply, and equal signatures keep the same
// survivor. totalCmp is a total order refining dominance, so the
// forward-only scans below yield the canonical minimal antichain
// regardless of input order. For the common plain signature
// (LexDepth 1, linear delay, no MC) the post-sort scan is a near-linear
// sweep over branch-classed staircases; the general quadratic scan
// covers Lex-N, Lex-mc and load-dependent modes.
func pruneCombos(m Mode, in []combo, sc *solverScratch) []combo {
	perm := sc.perm[:0]
	for i := range in {
		perm = append(perm, int32(i))
	}
	slices.SortFunc(perm, func(a, b int32) int { return totalCmp(m, &in[a].sig, &in[b].sig) })
	sc.perm = perm
	out := sc.kept[:0]
	if dom := m.dominance(); dom.plain {
		out = pruneCombos2D(in, perm, out, sc)
	} else {
		for _, i := range perm {
			dominated := false
			for j := range out {
				if dom.test(&out[j].sig, &in[i].sig) {
					dominated = true
					break
				}
			}
			if !dominated {
				out = append(out, in[i])
			}
		}
	}
	sc.kept = out
	if assertEnabled {
		assertNonDominatedCombos(m, out)
	}
	return out
}

// pruneCombos2D appends to out the combos of in, taken in the totalCmp
// order perm, that survive the plain-mode dominance test (cost, arrival,
// branch, peak — cost ordering is given by the sort, so dominance
// reduces to a query over the remaining dimensions): a combo is
// dominated iff some kept combo has arrival, branch and peak all no
// worse. Kept combos live in one monotone (d0, peak) staircase per
// distinct Branch value — a join sees only a handful of distinct branch
// counts, so a dominance query is a binary search per no-worse branch
// class instead of a scan over all kept combos. Each staircase keeps d0
// non-decreasing and peak strictly decreasing, so the best peak at
// arrival <= x is the last step with d0 <= x.
func pruneCombos2D(in []combo, perm []int32, out []combo, sc *solverScratch) []combo {
	branches := sc.stairBranch[:0]
	for _, i := range perm {
		d0, br, peak := in[i].sig.D[0], in[i].sig.Branch, in[i].sig.Peak
		dominated := false
		for c := range branches {
			if branches[c] > br {
				continue
			}
			stair := sc.stairs[c]
			// pos: first step with d0 > x.d0.
			pos := sort.Search(len(stair), func(j int) bool { return stair[j].d0 > d0 }) //replint:ignore hotalloc -- sort.Search predicate does not escape; the compiler stack-allocates it
			if pos > 0 && stair[pos-1].peak <= peak {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		out = append(out, in[i])
		// Find (or open) this branch value's staircase, then splice the
		// new step in, dropping the now-redundant steps that follow it
		// with an equal-or-worse peak.
		cls := -1
		for c := range branches {
			if branches[c] == br {
				cls = c
				break
			}
		}
		if cls < 0 {
			cls = len(branches)
			branches = append(branches, br)
			if len(sc.stairs) <= cls {
				sc.stairs = append(sc.stairs, nil)
			}
			sc.stairs[cls] = sc.stairs[cls][:0]
		}
		stair := sc.stairs[cls]
		pos := sort.Search(len(stair), func(j int) bool { return stair[j].d0 > d0 }) //replint:ignore hotalloc -- sort.Search predicate does not escape; the compiler stack-allocates it
		j := pos
		for j < len(stair) && stair[j].peak >= peak {
			j++
		}
		if j == pos {
			stair = append(stair, stairStep{})
			copy(stair[pos+1:], stair[pos:])
			stair[pos] = stairStep{d0: d0, peak: peak}
		} else {
			stair[pos] = stairStep{d0: d0, peak: peak}
			stair = append(stair[:pos+1], stair[j:]...)
		}
		sc.stairs[cls] = stair
	}
	if assertEnabled {
		for c := range branches {
			assertStaircase(sc.stairs[c])
		}
	}
	sc.stairBranch = branches[:0]
	return out
}

// queueItem is a pending candidate in the wavefront priority queue.
type queueItem struct {
	sol    solution
	vertex Vertex
}

// runWavefront is GenDijkstra (Fig. 6): a multi-source generalized
// Dijkstra expansion seeded with the node's branching solutions, which
// processNode has staged in sc.items. Because items pop in
// non-decreasing (cost, arrival) order, a popped candidate not
// dominated by the already-accepted set at its vertex is itself
// non-dominated and final.
//
// A[id][v] accumulates in the scratch lists sc.acc while the wavefront
// runs and is compacted into the node's slab when it ends. Children are
// built in place in their arena slots from the accepted copy in
// sc.acc[v], which stays put while they are pushed (pushes grow the
// arena, never the accepted list), so the popped slot is recycled
// before its first child is allocated.
func (r *Result) runWavefront(id NodeID, sc *solverScratch) {
	p := r.p
	m := p.Mode
	nv := p.G.NumVertices()
	sc.accFor(nv)
	h := waveHeap{depth: m.lexDepth(), keys: sc.keys, items: sc.items, free: sc.free}
	h.init()
	var lastPop Sig
	havePop := false
	pops := 0
	for len(h.keys) > 0 {
		if pops%ctxCheckStride == 0 && r.cancelled() {
			break // abandon this node's expansion; Solve will fail
		}
		pops++
		ref := h.pop()
		it := &h.items[ref]
		if assertEnabled {
			assertWaveOrder(m, &lastPop, havePop, &it.sol.sig)
			lastPop, havePop = it.sol.sig, true
		}
		v := it.vertex
		accepted := r.accept(sc, v, &it.sol)
		h.release(ref)
		if !accepted {
			continue
		}
		idx := int32(len(sc.acc[v]) - 1)
		src := &sc.acc[v][idx].sig
		adj := p.G.Adj(v)
		for ei := range adj {
			e := &adj[ei]
			if p.G.Blocked(e.To) {
				continue
			}
			cref := h.alloc()
			next := &h.items[cref]
			augmentInto(m, &next.sol.sig, src, e)
			next.sol.kind = kindAugment
			next.sol.prevVertex = v
			next.sol.prevIdx = idx
			next.sol.joinRef = 0
			next.vertex = e.To
			h.push(cref)
		}
	}
	sc.items, sc.keys, sc.free = h.items[:0], h.keys[:0], h.free[:0]
	r.sols[id].compact(sc, nv, r.memoSlabs())
}

// accept appends the solution to A[id][v], staged in sc.acc[v], unless
// dominated (line d7). It enforces the per-vertex cap with the
// delay-quantum rule.
func (r *Result) accept(sc *solverScratch, v Vertex, s *solution) bool {
	list := sc.acc[v]
	for i := range list {
		if r.dom.test(&list[i].sig, &s.sig) {
			return false
		}
	}
	if r.p.MaxPerVertex > 0 && len(list) >= r.p.MaxPerVertex {
		// Only worth keeping if it beats the current best arrival by
		// more than the quantum.
		best := math.Inf(1)
		for i := range list {
			if list[i].sig.D[0] < best {
				best = list[i].sig.D[0]
			}
		}
		if s.sig.D[0] >= best-r.p.DelayQuantum {
			return false
		}
	}
	if assertEnabled {
		assertNoReverseDomination(r.p.Mode, list, &s.sig)
	}
	sc.acc[v] = append(list, *s)
	sc.nacc++
	return true
}

// SolutionsAt exposes the accepted signature set A[node][v]; used by
// tests to check the DP against the paper's worked example. A frozen
// Result keeps no node sets and does not support it.
func (r *Result) SolutionsAt(node NodeID, v Vertex) []Sig {
	list := r.sols[node].at(v)
	out := make([]Sig, len(list))
	for i := range list {
		out[i] = list[i].sig
	}
	return out
}

// SelectByBound picks from the frontier the cheapest solution whose max
// arrival beats the bound — "the cheapest solution that is fast enough"
// (Section II-C). When no solution meets the bound (or the frontier is
// empty) it returns the zero FrontierSol and ok=false; callers decide
// the fallback (the engine falls back to SelectFastest) instead of
// silently receiving whichever solution fell out.
func (r *Result) SelectByBound(bound float64) (FrontierSol, bool) {
	// Frontier is cost-sorted: first hit is the cheapest fast-enough.
	for i := range r.Frontier {
		if r.Frontier[i].Sig.D[0] <= bound {
			return r.Frontier[i], true
		}
	}
	return FrontierSol{}, false
}

// SelectFastest returns the frontier solution with the smallest max
// arrival, breaking arrival ties toward the cheaper (earlier-sorted)
// solution; ok=false when the frontier is empty.
func (r *Result) SelectFastest() (FrontierSol, bool) {
	best := -1
	for i := range r.Frontier {
		if best < 0 || r.Frontier[i].Sig.D[0] < r.Frontier[best].Sig.D[0] {
			best = i
		}
	}
	if best < 0 {
		return FrontierSol{}, false
	}
	return r.Frontier[best], true
}

// Embedding is a fully reconstructed solution.
type Embedding struct {
	// NodeVertex gives each tree node's chosen vertex.
	NodeVertex []Vertex
	// Routes[i] is the wire route from node i's vertex to the vertex
	// where its signal is consumed by the parent's join, inclusive of
	// both endpoints (length 1 when the parent joins where i sits).
	Routes [][]Vertex
	// WireCost is the total edge cost of all routes.
	WireCost float64
}

// Extract reconstructs the embedding behind a frontier solution by
// retracing the DP choices top-down (Section II: "the actual embedding
// is reconstructed in a top-down process"). On a frozen Result it
// returns a copy of the embedding extracted when it was frozen. Either
// way the caller owns the returned Embedding.
func (r *Result) Extract(f FrontierSol) *Embedding {
	if r.frozen != nil {
		return r.frozenAt(f).clone()
	}
	emb := &Embedding{
		NodeVertex: make([]Vertex, len(r.p.T.Nodes)),
		Routes:     make([][]Vertex, len(r.p.T.Nodes)),
	}
	for i := range emb.NodeVertex {
		emb.NodeVertex[i] = -1
	}
	r.extract(f.Vertex, int32(f.idx), r.p.T.Root, emb)
	return emb
}

// freeze returns a copy of r that keeps only what selection and
// extraction read: the frontier, and every frontier point's embedding,
// extracted now. It holds no node sets and no Problem, so it stays
// valid after the memo's next solve and costs its holder a few small
// slices per point instead of the DP's solution slabs.
func (r *Result) freeze() *Result {
	f := &Result{Frontier: slices.Clone(r.Frontier), frozen: make([]*Embedding, len(r.Frontier))}
	for i := range r.Frontier {
		f.frozen[i] = r.Extract(r.Frontier[i])
	}
	return f
}

// frozenAt returns the stored embedding of frontier point f.
func (r *Result) frozenAt(f FrontierSol) *Embedding {
	for i := range r.Frontier {
		if r.Frontier[i].Vertex == f.Vertex && r.Frontier[i].idx == f.idx {
			return r.frozen[i]
		}
	}
	panic(fmt.Sprintf("embed: Extract of a point not on the frozen frontier (vertex %d)", f.Vertex))
}

// clone deep-copies an embedding.
func (e *Embedding) clone() *Embedding {
	c := &Embedding{
		NodeVertex: slices.Clone(e.NodeVertex),
		Routes:     make([][]Vertex, len(e.Routes)),
		WireCost:   e.WireCost,
	}
	for i, route := range e.Routes {
		c.Routes[i] = slices.Clone(route)
	}
	return c
}

func (r *Result) extract(v Vertex, idx int32, node NodeID, emb *Embedding) {
	ns := &r.sols[node]
	// Walk the augment chain back to the branching point, recording
	// the route (in consumption-to-branch order, reversed at the end).
	route := []Vertex{v}
	sol := ns.at(v)[idx]
	//replint:ignore ctxstride -- reconstruction after the DP completes; bounded by the augment-chain length
	for sol.kind == kindAugment {
		pv, pi := sol.prevVertex, sol.prevIdx
		route = append(route, pv)
		v, idx = pv, pi
		sol = ns.at(v)[idx]
	}
	for i, j := 0, len(route)-1; i < j; i, j = i+1, j-1 {
		route[i], route[j] = route[j], route[i]
	}
	emb.NodeVertex[node] = v
	emb.Routes[node] = route
	emb.WireCost += routeCost(r.p.G, route)
	if sol.kind == kindLeaf {
		return
	}
	children := r.p.T.Nodes[node].Children
	refs := ns.joinPool[sol.joinRef : sol.joinRef+int32(len(children))]
	for i, c := range children {
		r.extract(v, refs[i], c, emb)
	}
}

func routeCost(g *Graph, route []Vertex) float64 {
	total := 0.0
	for i := 1; i < len(route); i++ {
		if c, ok := g.EdgeCost(route[i-1], route[i]); ok {
			total += c
		}
	}
	return total
}
