package timing

import (
	"math"

	"repro/internal/arch"
	"repro/internal/netlist"
)

// SPTCacheStats counts cache outcomes across one engine run.
type SPTCacheStats struct {
	// Hits are requests served entirely from cache (no cone cell's
	// timing or location changed since the tree was built).
	Hits int
	// Patches are requests served by re-running the SPT kernel over
	// only the cone cells whose endpoint timing or location changed.
	Patches int
	// Rebuilds are from-scratch constructions: first request per sink,
	// structural changes, and evictions.
	Rebuilds int
	// PatchedCells is the cumulative number of cone cells touched by
	// patch sweeps (the full build touches the whole cone).
	PatchedCells int
}

// defaultSPTCacheCap bounds cached trees; the engine revisits at most
// a handful of distinct critical sinks between structural changes.
const defaultSPTCacheCap = 4

// SPTCache keeps slowest-paths trees alive between engine iterations
// and patches, rather than rebuilds, the ones whose cones were only
// locally disturbed. It is driven by an Incremental analyzer's change
// generations: a cached tree is patched by re-running the shared
// sptDown kernel over exactly the cone cells whose location moved (or
// that feed a moved cell) since the tree was built, propagating
// upstream while recomputed values change bits, and refreshing
// PathThrough where arrivals changed. Cells with bitwise-unchanged
// kernel inputs keep bitwise-unchanged values, so a patched tree is
// Float64bits-identical to BuildSPT run from scratch. Any structural
// change (StructGen) rebuilds: cone membership may have shifted.
type SPTCache struct {
	inc     *Incremental
	cap     int
	entries map[netlist.CellID]*sptEntry
	fifo    []netlist.CellID
	Stats   SPTCacheStats
}

type sptEntry struct {
	// The tree and its cone indexes are only bitwise-trustworthy while
	// builtGen matches the analyzer's generation; every mutation must
	// re-stamp builtGen before returning (a patch that escapes without
	// the stamp would be served as a false cache hit next Get).
	spt       *SPT
	downT     map[netlist.CellID]float64
	cone      map[netlist.CellID]bool
	coneOrder []netlist.CellID
	builtGen  uint64
	// dirty is the patch sweep's per-entry scratch, reused across
	// patches to keep steady-state iterations allocation-light.
	dirty map[netlist.CellID]uint8
}

// dirty marks for the patch sweep.
const (
	dirtyDown uint8 = 1 << iota // recompute downT/Parent/PathThrough
	dirtyPT                     // refresh PathThrough only (Arr changed)
)

// NewSPTCache returns a cache bound to the incremental analyzer whose
// generations drive invalidation; capacity 0 selects the default.
func NewSPTCache(inc *Incremental, capacity int) *SPTCache {
	if capacity <= 0 {
		capacity = defaultSPTCacheCap
	}
	return &SPTCache{
		inc:     inc,
		cap:     capacity,
		entries: make(map[netlist.CellID]*sptEntry, capacity),
	}
}

// Get returns the slowest-paths tree for sink over analysis a,
// patching or reusing a cached tree when the change log proves it
// valid. The returned tree is owned by the cache: it is valid until
// the next Get.
func (c *SPTCache) Get(nl *netlist.Netlist, pl Locator, dm arch.DelayModel, a *Analysis, sink netlist.CellID) *SPT {
	e := c.entries[sink]
	if e == nil || c.inc.StructGen() > e.builtGen {
		return c.rebuild(nl, pl, dm, a, sink, e)
	}
	return c.patch(nl, pl, dm, a, e)
}

// rebuild constructs the tree from scratch and (re)inserts it.
func (c *SPTCache) rebuild(nl *netlist.Netlist, pl Locator, dm arch.DelayModel, a *Analysis, sink netlist.CellID, old *sptEntry) *SPT {
	spt, downT, cone, coneOrder := buildSPT(nl, pl, dm, a, sink)
	e := old
	if e == nil {
		if len(c.entries) >= c.cap {
			victim := c.fifo[0]
			c.fifo = c.fifo[1:]
			delete(c.entries, victim)
		}
		e = &sptEntry{}
		c.entries[sink] = e
		c.fifo = append(c.fifo, sink)
	}
	e.spt, e.downT, e.cone, e.coneOrder = spt, downT, cone, coneOrder
	e.builtGen = c.inc.Gen()
	c.Stats.Rebuilds++
	return spt
}

// patch brings a structurally valid cached tree up to date with the
// analyzer's current generation.
func (c *SPTCache) patch(nl *netlist.Netlist, pl Locator, dm arch.DelayModel, a *Analysis, e *sptEntry) *SPT {
	s := e.spt
	sink := s.Sink
	if e.dirty == nil {
		e.dirty = make(map[netlist.CellID]uint8)
	} else {
		clear(e.dirty)
	}
	dirty := e.dirty

	// Seed scan: O(cone) integer generation compares. A moved cell
	// invalidates its own downstream delay (outgoing wires) and that of
	// every cone driver feeding it (their wire to it changed); a cell
	// with changed arrival only needs its PathThrough refreshed.
	any := false
	for _, u := range e.coneOrder {
		if c.inc.MovedSince(u, e.builtGen) {
			any = true
			if u != sink {
				dirty[u] |= dirtyDown
			}
			for _, net := range nl.Cell(u).Fanin {
				if net == netlist.None {
					continue
				}
				if w := nl.Net(net).Driver; e.cone[w] {
					dirty[w] |= dirtyDown
				}
			}
		}
		if c.inc.ArrChangedSince(u, e.builtGen) {
			any = true
			dirty[u] |= dirtyPT
		}
	}
	if !any {
		e.builtGen = c.inc.Gen()
		c.Stats.Hits++
		return s
	}

	// Patch sweep in reverse topological order over the cone: dirty
	// cells re-run the shared kernel; a changed downstream delay marks
	// the cone drivers feeding the cell, which appear later in the
	// sweep. Key sets never change here — reachability to the sink is
	// structural, and structural changes rebuilt above.
	touched := 0
	for i := len(e.coneOrder) - 1; i >= 0; i-- {
		u := e.coneOrder[i]
		m := dirty[u]
		if m == 0 {
			continue
		}
		touched++
		if u == sink {
			s.SinkArr = a.SinkArr[sink]
			s.PathThrough[sink] = a.SinkArr[sink]
			continue
		}
		if m&dirtyDown == 0 {
			// Arrival-only change: downstream delay is intact.
			if _, ok := e.downT[u]; ok {
				s.PathThrough[u] = a.Arr[u] + e.downT[u]
			}
			continue
		}
		best, bestV := sptDown(nl, pl, dm, e.cone, e.downT, u, sink)
		if bestV == netlist.None {
			continue // u does not reach the sink combinationally
		}
		changed := math.Float64bits(e.downT[u]) != math.Float64bits(best)
		e.downT[u] = best
		s.Parent[u] = bestV
		s.PathThrough[u] = a.Arr[u] + best
		if !changed {
			continue
		}
		for _, net := range nl.Cell(u).Fanin {
			if net == netlist.None {
				continue
			}
			if w := nl.Net(net).Driver; e.cone[w] {
				dirty[w] |= dirtyDown
			}
		}
	}
	e.builtGen = c.inc.Gen()
	c.Stats.Patches++
	c.Stats.PatchedCells += touched
	return s
}
