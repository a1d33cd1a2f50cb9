package embed

// NodeMemo is a per-node frontier memo shared by the solves of one
// caller: a DP node's accepted sets A[i][·] depend only on its own
// subtree's inputs, so a node whose content repeats one already solved
// is looked up instead of re-run through the join and the wavefront.
//
// The key of a non-root node is a fingerprint over the solve-wide
// inputs (graph, mode, MaxPerVertex, DelayQuantum and, under overlap
// control, every vertex's capacity), the node's own fields (vertex,
// arrival, intrinsic delay, critical flag), its children's keys in
// order and, for an internal node, its placement cost at every
// unblocked vertex. A bounded solve (Problem.Bound) adds the bound T
// and the root vertex to the solve-wide inputs and the node's gate term
// (its ancestors' intrinsic delay) to the node's own: what the prune
// keeps of a node depends on all three. Stored sets hold only
// node-relative indices, so a hit is shared read-only under any NodeID
// and by every Result that reads it while the memo keeps it.
//
// The memo holds exactly the nodes of the last completed solve. A
// solve looks every node up before it computes any, moves the hits
// into the current generation and releases the rest of the previous
// generation before the first miss is computed: their solution slabs,
// offset tables and join pools go into the memo's slab pool, and this
// solve's misses are compacted into them (see slabPool). Peak live
// memory stays about two generations: the memo's and a pool no larger
// than the largest one. Repeats inside one solve are computed once. A
// cancelled solve empties the memo, and a node cut short is never
// stored. Not safe for concurrent use; each engine owns one.
//
// The root is keyed the same way, its placement cost read only at the
// vertices the root join reads: the pinned vertex, or every unblocked
// vertex of a free root. A one-entry slot keeps the root of the last
// completed, feasible, uncancelled solve: its key, its sets and its
// frontier. A solve whose root key matches the slot serves its frontier
// from there and skips the root join. Only the previous problem ever
// repeats in the engine's traffic, so one entry is enough: with
// core.Config.Incremental a repeat of a reverted iteration is replayed
// without a solve, so the repeats the slot serves are mostly those that
// follow an applied iteration, which leaves new live objects. The root's
// tables are allocated at exact size and never pooled, so the slot
// stays valid while the memo recycles slabs, and the served Result is
// bound to the new Problem: Extract walks the new tree, whose children
// at each position repeat the old ones under any NodeIDs.
//
// Because released slabs are reused, a Result solved with a memo is
// valid only until that memo's next solve: its node sets may by then
// hold another problem's solutions.
type NodeMemo struct {
	last, next map[Fingerprint]nodeSols
	// lastKeys and nextKeys list each generation's keys in the order
	// they entered it, so a release walks the generation in a fixed
	// order.
	lastKeys, nextKeys []Fingerprint
	// first maps each key this solve will compute to its first node,
	// so a later node with that key copies the first's sets.
	first map[Fingerprint]NodeID
	// slabs holds released tables for this solve's misses; dropped
	// stages a release.
	slabs   slabPool
	dropped []nodeSols
	// root is the root slot; its frontier is empty until a solve
	// completes.
	root struct {
		key      Fingerprint
		sols     nodeSols
		frontier []FrontierSol
	}
	// Stats counts non-root nodes served from the memo (Hits) and
	// computed (Misses); Roots counts root-slot hits and misses.
	Stats, Roots MemoStats
}

// NewNodeMemo returns an empty memo.
func NewNodeMemo() *NodeMemo {
	return &NodeMemo{
		last:  make(map[Fingerprint]nodeSols),
		next:  make(map[Fingerprint]nodeSols),
		first: make(map[Fingerprint]NodeID),
	}
}

// memoBase hashes the inputs every node of the solve shares.
func (r *Result) memoBase() Hasher {
	p := r.p
	h := NewHasher()
	p.G.Fingerprint(&h)
	p.Mode.Fingerprint(&h)
	h.Int(p.MaxPerVertex)
	h.F64(p.DelayQuantum)
	if p.Mode.OverlapControl {
		for v := range p.G.NumVertices() {
			h.Int(p.capacity(Vertex(v)))
		}
	}
	if r.bound != nil {
		h.F64(p.Bound)
		h.U64(uint64(uint32(p.T.Nodes[p.T.Root].Vertex)))
	}
	return h
}

// memoNode folds node id's own fields and its children's keys onto the
// solve-wide base; prepare adds the placement costs of an internal node.
func (r *Result) memoNode(h *Hasher, id NodeID, sc *solverScratch) {
	n := &r.p.T.Nodes[id]
	h.U64(uint64(uint32(n.Vertex)))
	h.F64(n.Arr)
	h.F64(n.Intrinsic)
	h.Bool(n.Critical)
	if r.bound != nil {
		h.F64(r.bound.anc[id])
	}
	h.Int(len(n.Children))
	for _, c := range n.Children {
		h.U64(sc.nodeFP[c].Hi)
		h.U64(sc.nodeFP[c].Lo)
	}
}

// memoLookup runs before any node is computed: it serves node id from
// either generation, moving a previous-generation hit into the current
// one, or marks it as a copy of an earlier node of this solve with the
// same key, or as the first node to compute that key.
func (r *Result) memoLookup(id NodeID, sc *solverScratch) {
	m := r.p.Memo
	k := sc.nodeFP[id]
	sc.dupOf[id] = -1
	if ns, ok := m.next[k]; ok {
		r.sols[id] = ns
		m.Stats.Hits++
		return
	}
	if ns, ok := m.last[k]; ok {
		r.sols[id] = ns
		m.next[k] = ns
		m.nextKeys = append(m.nextKeys, k)
		m.Stats.Hits++
		return
	}
	if first, ok := m.first[k]; ok {
		sc.dupOf[id] = first
		m.Stats.Hits++
		return
	}
	m.first[k] = id
	m.Stats.Misses++
}

// memoRelease runs once every node is looked up, before the first miss
// is computed: the previous generation's nodes that no lookup hit go
// into the slab pool, and the generation is dropped.
func (m *NodeMemo) memoRelease() {
	var gen slabCaps
	for _, k := range m.lastKeys {
		ns := m.last[k]
		gen.add(ns)
		if _, hit := m.next[k]; !hit {
			m.dropped = append(m.dropped, ns)
		}
	}
	m.slabs.refill(gen, m.dropped)
	clear(m.dropped)
	m.dropped = m.dropped[:0]
	clear(m.last)
	m.lastKeys = m.lastKeys[:0]
	clear(m.first)
}

// memoRoot looks up the root, keyed by prepare, in the root slot and
// counts the outcome.
func (r *Result) memoRoot(sc *solverScratch) bool {
	m := r.p.Memo
	if m == nil {
		return false
	}
	if len(m.root.frontier) > 0 && m.root.key == sc.nodeFP[r.p.T.Root] {
		m.Roots.Hits++
		return true
	}
	m.Roots.Misses++
	return false
}

// serveRoot completes a solve whose root hit the slot: the root's sets
// and frontier are the slot's. The frontier is capped at its length so
// that a caller's append cannot write into the slot.
func (r *Result) serveRoot() (*Result, error) {
	if r.cancelled() {
		return nil, r.ctx.Err()
	}
	m := r.p.Memo
	r.sols[r.p.T.Root] = m.root.sols
	r.Frontier = m.root.frontier[:len(m.root.frontier):len(m.root.frontier)]
	return r, nil
}

// memoSlabs is the pool node id's tables are taken from: the memo's,
// or nil (fresh allocations) without a memo.
func (r *Result) memoSlabs() *slabPool {
	if m := r.p.Memo; m != nil {
		return &m.slabs
	}
	return nil
}

// memoPending reports whether node id must be computed: it has no
// memo, or the memo neither served it nor marked it as a repeat of an
// earlier node of this solve.
func (r *Result) memoPending(id NodeID, sc *solverScratch) bool {
	return r.p.Memo == nil || (sc.dupOf[id] < 0 && r.sols[id].off == nil)
}

// memoCopy shares the sets of a repeated node's first node, once that
// node is computed; it does nothing for any other node.
func (r *Result) memoCopy(id NodeID, sc *solverScratch) {
	if r.p.Memo != nil && sc.dupOf[id] >= 0 {
		r.sols[id] = r.sols[sc.dupOf[id]]
	}
}

// memoStore keeps a computed node in the current generation, unless a
// cancellation may have cut it short.
func (r *Result) memoStore(id NodeID, sc *solverScratch) {
	if m := r.p.Memo; m != nil && !r.aborted.Load() {
		k := sc.nodeFP[id]
		m.next[k] = r.sols[id]
		m.nextKeys = append(m.nextKeys, k)
	}
}

// memoCommit ends a solve: a completed one becomes the memo's previous
// generation, and its root, when feasible, fills the root slot; a
// cancelled one empties the memo and leaves the slot as it was.
func (r *Result) memoCommit(sc *solverScratch, feasible bool) {
	m := r.p.Memo
	if m == nil {
		return
	}
	if r.aborted.Load() {
		clear(m.next)
		m.nextKeys = m.nextKeys[:0]
		return
	}
	m.last, m.next = m.next, m.last
	m.lastKeys, m.nextKeys = m.nextKeys, m.lastKeys
	if feasible {
		m.root.key = sc.nodeFP[r.p.T.Root]
		m.root.sols = r.sols[r.p.T.Root]
		m.root.frontier = r.Frontier
	}
}
