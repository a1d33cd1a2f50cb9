package timing

import (
	"math"
	"sort"

	"repro/internal/arch"
	"repro/internal/netlist"
)

// SPT is a slowest-paths tree rooted at a timing sink: for every cell
// in the sink's fanin cone, Parent gives the next cell on the slowest
// path from that cell toward the sink (Section III: "the result of
// finding a longest paths tree from the critical sink in the timing
// graph with the edges reversed").
type SPT struct {
	Sink netlist.CellID
	// SinkArr is the arrival time at the sink (the tree's path delay).
	SinkArr float64
	// Parent maps each cone cell to its tree parent (the sink maps to
	// nothing).
	Parent map[netlist.CellID]netlist.CellID
	// PathThrough maps each cone cell u to the delay of the slowest
	// source-to-sink path passing through u *and ending at this sink*.
	PathThrough map[netlist.CellID]float64
}

// BuildSPT derives the slowest-paths tree for the given sink from a
// completed analysis.
func BuildSPT(nl *netlist.Netlist, pl Locator, dm arch.DelayModel, a *Analysis, sink netlist.CellID) *SPT {
	cone := nl.FaninCone(sink)
	s := &SPT{
		Sink:        sink,
		SinkArr:     a.SinkArr[sink],
		Parent:      make(map[netlist.CellID]netlist.CellID, len(cone)),
		PathThrough: make(map[netlist.CellID]float64, len(cone)),
	}
	// downT[u]: worst delay from u's output to the sink's path end,
	// restricted to cone-internal edges. Computed in reverse
	// topological order.
	downT := make(map[netlist.CellID]float64, len(cone))
	s.PathThrough[sink] = a.SinkArr[sink]

	order := a.Order
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		if u == sink || !cone[u] {
			continue
		}
		uc := nl.Cell(u)
		if uc.Out == netlist.None {
			continue
		}
		best := math.Inf(-1)
		var bestV netlist.CellID = netlist.None
		for _, p := range nl.Net(uc.Out).Sinks {
			v := p.Cell
			if !cone[v] {
				continue
			}
			wire := dm.WireDelay(arch.Dist(pl.Loc(u), pl.Loc(v)))
			var tail float64
			if v == sink {
				tail = wire + Intrinsic(dm, nl.Cell(v))
			} else {
				dv, ok := downT[v]
				if !ok {
					continue
				}
				tail = wire + dm.LUTDelay + dv
			}
			if tail > best {
				best = tail
				bestV = v
			}
		}
		if bestV == netlist.None {
			continue // u does not reach the sink combinationally
		}
		downT[u] = best
		s.Parent[u] = bestV
		s.PathThrough[u] = a.Arr[u] + best
	}
	return s
}

// Epsilon returns the node set of the ε-SPT: the sink plus every cone
// cell whose slowest path to this sink is within eps of the sink's
// arrival time. By construction of the SPT the set is connected via
// Parent edges.
func (s *SPT) Epsilon(eps float64) map[netlist.CellID]bool {
	nodes := map[netlist.CellID]bool{s.Sink: true}
	for u, pt := range s.PathThrough {
		if pt >= s.SinkArr-eps {
			nodes[u] = true
		}
	}
	return nodes
}

// Children inverts the parent relation over a node subset, returning
// each member's tree children in deterministic (ascending ID) order.
// Members are visited in sorted-ID order, so each child list comes out
// ascending by construction — no map-order dependence, no per-key sort.
func (s *SPT) Children(members map[netlist.CellID]bool) map[netlist.CellID][]netlist.CellID {
	ids := make([]netlist.CellID, 0, len(members))
	for u := range members {
		ids = append(ids, u)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	ch := make(map[netlist.CellID][]netlist.CellID)
	for _, u := range ids {
		if u == s.Sink {
			continue
		}
		p := s.Parent[u]
		if members[p] {
			ch[p] = append(ch[p], u)
		}
	}
	return ch
}
