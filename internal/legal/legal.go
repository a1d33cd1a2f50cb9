// Package legal implements the timing-driven legalizer of Section V-A:
// after embedding and replication some slots hold more cells than their
// capacity; the legalizer resolves one overlap at a time by rippling
// cells along a max-gain monotone path from the congested slot to a
// nearby free slot, where the per-move gain combines wiring and timing
// cost (C = α·C_T + (1−α)·C_W, α = 0.95 in the paper's experiments).
// Cells move at most one slot per ripple step, keeping them close to
// the locations the (much stronger) embedder chose. A cell rippled
// onto a slot holding a logically equivalent cell is unified with it
// and the pass stops.
package legal

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/arch"
	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/timing"
)

// Legalizer resolves placement overlaps. It keeps per-search scratch
// state, so it is not safe for concurrent use: each engine owns one.
type Legalizer struct {
	// Alpha weighs timing versus wiring cost (paper: 0.95).
	Alpha float64
	// TimingWindow is the fraction of the critical delay within which
	// a cell's slowest path contributes timing cost (paper: 0.40).
	TimingWindow float64
	// MaxPasses bounds the number of single-overlap passes as a
	// safety net against pathological placements.
	MaxPasses int

	// cache prices every slot of one search from per-cell terms.
	cache costCache
	// Search scratch, reused across searches.
	targets, path, bestPath []arch.Loc
	gain                    []float64
	parent                  []int
}

// New returns a legalizer with the paper's parameters.
func New() *Legalizer {
	return &Legalizer{Alpha: 0.95, TimingWindow: 0.40, MaxPasses: 100000, cache: costCache{gen: 1}}
}

// Stats reports what a Run did.
type Stats struct {
	// Passes is the number of single-overlap legalization passes.
	Passes int
	// Moves is the total number of single-slot cell moves.
	Moves int
	// Unified counts cells removed by ripple-move unification.
	Unified int
}

// Run legalizes the placement in place. The analysis provides arrival
// and downstream delays for the timing cost; it may be slightly stale
// during a multi-move pass, which matches the paper's flow (STA is
// refreshed once per optimization iteration, not per ripple move).
func (l *Legalizer) Run(nl *netlist.Netlist, pl *placement.Placement, dm arch.DelayModel, a *timing.Analysis) (Stats, error) {
	var st Stats
	for ; st.Passes < l.MaxPasses; st.Passes++ {
		over := pl.OverCapacity()
		if len(over) == 0 {
			return st, nil
		}
		// "If we have more than one overlap, we pick the first one we
		// encounter while we scan the placement."
		congested := over[0]
		if !pl.FPGA().IsLogic(congested) {
			return st, fmt.Errorf("legal: overfull I/O slot %v (pads cannot ripple)", congested)
		}
		moves, unified, err := l.resolveOne(nl, pl, dm, a, congested)
		st.Moves += moves
		st.Unified += unified
		if err != nil {
			return st, err
		}
	}
	return st, fmt.Errorf("legal: pass limit (%d) exceeded", l.MaxPasses)
}

// resolveOne relieves one congested slot by a single ripple move.
func (l *Legalizer) resolveOne(nl *netlist.Netlist, pl *placement.Placement, dm arch.DelayModel, a *timing.Analysis, congested arch.Loc) (moves, unified int, err error) {
	// Candidate targets: the paper's four quadrant-nearest free slots,
	// widened with the overall nearest free slots — in very dense
	// placements the extra candidates often offer a far less damaging
	// ripple direction.
	targets := append(l.targets[:0], pl.QuadrantFreeSlots(congested)...)
	for _, s := range pl.NearestFreeSlots(congested, 8) {
		if !slices.Contains(targets, s) {
			targets = append(targets, s)
		}
	}
	l.targets = targets
	if len(targets) == 0 {
		return 0, 0, fmt.Errorf("legal: no free slot to relieve %v (device full)", congested)
	}
	// The placement is fixed for the whole search.
	l.cache.reset()
	bestPath := l.bestPath[:0]
	bestGain := math.Inf(-1)
	for _, free := range targets {
		path, gain, ok := l.maxGainPath(nl, pl, dm, a, congested, free)
		if ok && gain > bestGain {
			bestGain = gain
			bestPath = append(bestPath[:0], path...)
		}
	}
	l.bestPath = bestPath
	if len(bestPath) == 0 {
		return 0, 0, fmt.Errorf("legal: no ripple path from %v", congested)
	}
	// Execute the ripple from the free end backward: each cell moves
	// exactly one slot toward the free slot. "The best gain value
	// could still be negative (i.e., we may lose some quality)" — the
	// move happens regardless, because legality is mandatory.
	for i := len(bestPath) - 1; i > 0; i-- {
		moved, unify := l.step(nl, pl, dm, a, bestPath[i-1], bestPath[i])
		if unify {
			return moves, unified + 1, nil
		}
		if moved {
			moves++
		}
	}
	return moves, unified, nil
}

// step is one ripple move: the best cell at `from` moves to the
// adjacent slot `to`, or is unified with an equivalent cell already
// there. It does nothing if `from` is empty (emptied by an earlier
// unification).
func (l *Legalizer) step(nl *netlist.Netlist, pl *placement.Placement, dm arch.DelayModel, a *timing.Analysis, from, to arch.Loc) (moved, unify bool) {
	// Earlier steps moved cells: drop the terms that read them.
	l.cache.reset()
	id, ok := l.pickCell(nl, pl, dm, a, from, to)
	if !ok {
		return false, false
	}
	// Unify-on-collision (Section V-A).
	if eq := l.equivalentAt(nl, pl, id, to); eq != netlist.None {
		pl.Remove(id)
		nl.Unify(eq, id)
		return false, true
	}
	pl.Place(id, to)
	return true, false
}

// equivalentAt returns a cell at slot `to` logically equivalent to id,
// or netlist.None.
func (l *Legalizer) equivalentAt(nl *netlist.Netlist, pl *placement.Placement, id netlist.CellID, to arch.Loc) netlist.CellID {
	for _, other := range pl.At(to) {
		if other != id && nl.Equivalent(other, id) {
			return other
		}
	}
	return netlist.None
}

// pickCell chooses which cell at `from` moves to `to`: the one whose
// move has the highest gain (for singly occupied slots this is just
// the resident cell).
func (l *Legalizer) pickCell(nl *netlist.Netlist, pl *placement.Placement, dm arch.DelayModel, a *timing.Analysis, from, to arch.Loc) (netlist.CellID, bool) {
	cells := pl.At(from)
	if len(cells) == 0 {
		return 0, false
	}
	best := cells[0]
	bestGain := math.Inf(-1)
	for _, id := range cells {
		g := l.cellCost(nl, pl, dm, a, id, from) - l.cellCost(nl, pl, dm, a, id, to)
		if g > bestGain {
			bestGain = g
			best = id
		}
	}
	return best, true
}

// maxGainPath builds the gain graph between the congested slot and one
// free slot (Fig. 12) — all monotone staircase paths inside their
// bounding rectangle — and returns the max-gain path with its total
// gain, or ok == false if the free slot is unreachable. Edge gain is
// the cost delta of moving the cell resident at the edge's source one
// slot toward the target. The path is scratch, valid until the next
// call.
func (l *Legalizer) maxGainPath(nl *netlist.Netlist, pl *placement.Placement, dm arch.DelayModel, a *timing.Analysis, congested, free arch.Loc) (path []arch.Loc, total float64, ok bool) {
	dx := sign(int(free.X) - int(congested.X))
	dy := sign(int(free.Y) - int(congested.Y))
	w := abs(int(free.X)-int(congested.X)) + 1
	h := abs(int(free.Y)-int(congested.Y)) + 1

	slot := func(i, j int) arch.Loc {
		return arch.Loc{
			X: congested.X + int16(i*dx),
			Y: congested.Y + int16(j*dy),
		}
	}
	gain := slices.Grow(l.gain[:0], w*h)[:w*h]
	parent := slices.Grow(l.parent[:0], w*h)[:w*h]
	l.gain, l.parent = gain, parent
	for idx := range gain {
		gain[idx] = math.Inf(-1)
		parent[idx] = -1
	}
	gain[0] = 0
	// Relax in monotone (i+j) order.
	for s := 0; s < w+h-1; s++ {
		for i := 0; i <= s && i < w; i++ {
			j := s - i
			if j >= h {
				continue
			}
			cur := j*w + i
			if math.IsInf(gain[cur], -1) {
				continue
			}
			here := slot(i, j)
			for _, step := range [2][2]int{{1, 0}, {0, 1}} {
				ni, nj := i+step[0], j+step[1]
				if ni >= w || nj >= h {
					continue
				}
				next := slot(ni, nj)
				g := l.moveGain(nl, pl, dm, a, here, next)
				nIdx := nj*w + ni
				if total := gain[cur] + g; total > gain[nIdx] {
					gain[nIdx] = total
					parent[nIdx] = cur
				}
			}
		}
	}
	last := (h-1)*w + (w - 1)
	if math.IsInf(gain[last], -1) {
		return nil, 0, false
	}
	path = l.path[:0]
	for idx := last; idx >= 0; idx = parent[idx] {
		path = append(path, slot(idx%w, idx/w))
		if idx == 0 {
			break
		}
	}
	// Reverse into congested-to-free order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	l.path = path
	return path, gain[last], true
}

// moveGain is the gain of moving the (best) resident of `from` to the
// neighboring slot `to`: Gain = C_curr − C_new (Section V-A).
func (l *Legalizer) moveGain(nl *netlist.Netlist, pl *placement.Placement, dm arch.DelayModel, a *timing.Analysis, from, to arch.Loc) float64 {
	cells := pl.At(from)
	if len(cells) == 0 {
		// Nothing to move; the ripple step is free.
		return 0
	}
	best := math.Inf(-1)
	for _, id := range cells {
		g := l.cellCost(nl, pl, dm, a, id, from) - l.cellCost(nl, pl, dm, a, id, to)
		if g > best {
			best = g
		}
	}
	return best
}

// cellCost is the composite cost of having the cell at loc:
// C = α·C_T + (1−α)·C_W.
func (l *Legalizer) cellCost(nl *netlist.Netlist, pl *placement.Placement, dm arch.DelayModel, a *timing.Analysis, id netlist.CellID, loc arch.Loc) float64 {
	return float64(l.Alpha*l.timingCost(nl, pl, dm, a, id, loc)) +
		float64((1-l.Alpha)*l.wireCost(nl, pl, id, loc))
}

// wireCost sums the corrected half-perimeter lengths of the nets the
// cell drives or reads, with the cell hypothetically at loc: each is
// q(n) times the half-perimeter of its other pins' box grown by loc.
func (l *Legalizer) wireCost(nl *netlist.Netlist, pl *placement.Placement, id netlist.CellID, loc arch.Loc) float64 {
	total := 0.0
	for _, t := range l.cache.wireTerms(nl, pl, id) {
		total += float64(t.q * float64(t.box.Expand(loc).HalfPerim()))
	}
	return total
}

// timingCost is "the squared delay of the slowest path through the
// current cell if such delay approaches the current critical delay
// (within 40%) and zero otherwise".
func (l *Legalizer) timingCost(nl *netlist.Netlist, pl *placement.Placement, dm arch.DelayModel, a *timing.Analysis, id netlist.CellID, loc arch.Loc) float64 {
	th := l.throughAt(nl, pl, dm, a, id, loc)
	if th < (1-l.TimingWindow)*a.Period {
		return 0
	}
	return th * th
}

// arrOf and downOf read the analysis arrays defensively: cells created
// after the analysis (fresh replicas) have no entry and default to
// arrival 0 / no downstream data. The engine refreshes STA every
// iteration, so this staleness is bounded to one legalization pass.
func arrOf(a *timing.Analysis, id netlist.CellID) float64 {
	if int(id) < len(a.Arr) {
		return a.Arr[id]
	}
	return 0
}

func downOf(a *timing.Analysis, id netlist.CellID) float64 {
	if int(id) < len(a.Down) {
		return a.Down[id]
	}
	return math.Inf(-1)
}

// throughAt estimates the slowest path through the cell with the cell
// at loc, splicing the cached arrival/downstream delays of its
// neighbors around the new wire lengths.
func (l *Legalizer) throughAt(nl *netlist.Netlist, pl *placement.Placement, dm arch.DelayModel, a *timing.Analysis, id netlist.CellID, loc arch.Loc) float64 {
	e := l.cache.timingTerms(nl, pl, dm, a, id)
	// Worst input arrival at loc.
	in := 0.0
	haveIn := false
	for _, f := range l.cache.fanins[e.fanins.lo:e.fanins.hi] {
		t := f.arr + dm.WireDelay(arch.Dist(f.loc, loc))
		if !haveIn || t > in {
			in = t
			haveIn = true
		}
	}
	through := math.Inf(-1)
	if e.isSink && haveIn {
		through = in + e.intrinsic
	}
	// Worst downstream tail from loc.
	if e.hasOut {
		start := 0.0
		if !e.isSource {
			if !haveIn {
				return 0
			}
			start = in + e.intrinsic
		}
		for _, s := range l.cache.sinks[e.sinks.lo:e.sinks.hi] {
			wireD := dm.WireDelay(arch.Dist(loc, s.loc))
			var tail float64
			if s.sink {
				tail = wireD + s.val
			} else {
				tail = wireD + dm.LUTDelay + s.val
			}
			if t := start + tail; t > through {
				through = t
			}
		}
	}
	if math.IsInf(through, -1) {
		return 0
	}
	return through
}

func sign(x int) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
