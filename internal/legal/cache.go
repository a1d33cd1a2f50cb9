package legal

import (
	"math"
	"slices"

	"repro/internal/arch"
	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/timing"
	"repro/internal/wire"
)

// costCache holds, for each cell queried during one search, the inputs
// of wireCost and throughAt that do not depend on the probed location:
// every slot of a search is then priced from them without walking the
// netlist again. The entries read the placement, so they are valid only
// while it is unchanged; reset drops them all in O(1) by bumping the
// generation. Entries are generation-stamped arrays indexed by CellID,
// and their terms live in flat buffers that reset truncates, so the
// steady state allocates nothing.
type costCache struct {
	// gen is the current generation; it starts at 1 so that zeroed
	// stamps never read as valid.
	gen    uint32
	wire   []wireEntry
	time   []timeEntry
	nets   []netTerm
	fanins []faninTerm
	sinks  []sinkTerm
}

// span is a half-open range of a term buffer.
type span struct{ lo, hi int32 }

type wireEntry struct {
	gen  uint32
	nets span
}

// netTerm is one net of a cell: its q(n) and the bounding box of the
// pins on other cells (emptyBox if there are none).
type netTerm struct {
	q   float64
	box wire.BBox
}

type timeEntry struct {
	gen              uint32
	fanins, sinks    span
	intrinsic        float64
	isSink, isSource bool
	hasOut           bool
}

// faninTerm is one input pin's driver: its location and arrival.
type faninTerm struct {
	loc arch.Loc
	arr float64
}

// sinkTerm is one fanout of the cell's output net. For a timing sink
// val is its intrinsic delay; otherwise it is its downstream delay
// (fanouts with none are not cached).
type sinkTerm struct {
	loc  arch.Loc
	sink bool
	val  float64
}

// emptyBox expands to exactly the first location added to it.
var emptyBox = wire.BBox{Xmin: math.MaxInt16, Xmax: math.MinInt16, Ymin: math.MaxInt16, Ymax: math.MinInt16}

// reset invalidates every entry.
func (c *costCache) reset() {
	c.gen++
	if c.gen == 0 { // wrapped: old stamps could read as valid again
		clear(c.wire)
		clear(c.time)
		c.gen = 1
	}
	c.nets, c.fanins, c.sinks = c.nets[:0], c.fanins[:0], c.sinks[:0]
}

// fit extends the entry arrays to cover every cell ID of nl; replicas
// created since the last call have IDs beyond them.
func (c *costCache) fit(nl *netlist.Netlist, id netlist.CellID) {
	if int(id) < len(c.wire) {
		return
	}
	n := nl.Cap()
	c.wire = append(c.wire, make([]wireEntry, n-len(c.wire))...)
	c.time = append(c.time, make([]timeEntry, n-len(c.time))...)
}

// wireTerms returns the cell's nets: its output net, then each distinct
// fanin net.
func (c *costCache) wireTerms(nl *netlist.Netlist, pl *placement.Placement, id netlist.CellID) []netTerm {
	c.fit(nl, id)
	e := &c.wire[id]
	if e.gen != c.gen {
		lo := len(c.nets)
		cell := nl.Cell(id)
		if cell.Out != netlist.None {
			c.addNet(nl, pl, id, cell.Out)
		}
		for k, in := range cell.Fanin {
			if in == netlist.None || in == cell.Out || slices.Contains(cell.Fanin[:k], in) {
				continue
			}
			c.addNet(nl, pl, id, in)
		}
		*e = wireEntry{gen: c.gen, nets: span{int32(lo), int32(len(c.nets))}}
	}
	return c.nets[e.nets.lo:e.nets.hi]
}

func (c *costCache) addNet(nl *netlist.Netlist, pl *placement.Placement, id netlist.CellID, n netlist.NetID) {
	net := nl.Net(n)
	box := emptyBox
	if net.Driver != id {
		box = box.Expand(pl.Loc(net.Driver))
	}
	for _, p := range net.Sinks {
		if p.Cell != id {
			box = box.Expand(pl.Loc(p.Cell))
		}
	}
	c.nets = append(c.nets, netTerm{q: wire.Q(1 + len(net.Sinks)), box: box})
}

// timingTerms returns the cell's timing entry; its fanins and sinks
// index the fanins and sinks buffers.
func (c *costCache) timingTerms(nl *netlist.Netlist, pl *placement.Placement, dm arch.DelayModel, a *timing.Analysis, id netlist.CellID) timeEntry {
	c.fit(nl, id)
	e := &c.time[id]
	if e.gen == c.gen {
		return *e
	}
	cell := nl.Cell(id)
	*e = timeEntry{
		gen:       c.gen,
		intrinsic: timing.Intrinsic(dm, cell),
		isSink:    cell.IsSink(),
		isSource:  cell.IsSource(),
		hasOut:    cell.Out != netlist.None,
	}
	lo := len(c.fanins)
	for _, net := range cell.Fanin {
		if net == netlist.None {
			continue
		}
		// A cell that drives itself reads its real location here.
		u := nl.Net(net).Driver
		c.fanins = append(c.fanins, faninTerm{loc: pl.Loc(u), arr: arrOf(a, u)})
	}
	e.fanins = span{int32(lo), int32(len(c.fanins))}
	lo = len(c.sinks)
	// throughAt never reads the sinks of a non-source without inputs.
	if e.hasOut && (e.isSource || e.fanins.hi > e.fanins.lo) {
		for _, p := range nl.Net(cell.Out).Sinks {
			v := p.Cell
			vc := nl.Cell(v)
			if vc.IsSink() {
				c.sinks = append(c.sinks, sinkTerm{loc: pl.Loc(v), sink: true, val: timing.Intrinsic(dm, vc)})
			} else if down := downOf(a, v); !math.IsInf(down, -1) {
				c.sinks = append(c.sinks, sinkTerm{loc: pl.Loc(v), val: down})
			}
		}
	}
	e.sinks = span{int32(lo), int32(len(c.sinks))}
	return *e
}
