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
// unblocked vertex. Stored sets hold only node-relative indices, so a
// hit is shared read-only under any NodeID and by every Result that
// reads it while the memo keeps it.
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
// Because released slabs are reused, a Result solved with a memo is
// valid only until that memo's next solve: its node sets may by then
// hold another problem's solutions. A caller that keeps a frontier
// longer keeps a frozen copy (see Cache).
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
	// Stats counts nodes served from the memo (Hits) and nodes
	// computed (Misses).
	Stats CacheStats
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
func (p *Problem) memoBase() Hasher {
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
// generation, a cancelled one empties the memo.
func (r *Result) memoCommit() {
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
}
