// Package wire estimates net wire length at the placement level using
// the half-perimeter (bounding box) metric augmented by the net-size
// correction factor q(n) of Cheng/VPR, the estimator the paper's
// legalizer cost and the VPR-style placer both use ("wire length
// estimation is given by the half-perimeter metric augmented by a net
// size coefficient from [18]").
package wire

import (
	"repro/internal/arch"
	"repro/internal/netlist"
	"repro/internal/timing"
)

// qTable holds the crossing-count correction factors for nets with
// 1..50 terminals, from C.E. Cheng's "RISA: Accurate and efficient
// placement routability modeling" as adopted by VPR.
var qTable = [51]float64{
	0, // unused (no 0-terminal nets)
	1.0000, 1.0000, 1.0000, 1.0828, 1.1536, 1.2206, 1.2823, 1.3385,
	1.3991, 1.4493, 1.4974, 1.5455, 1.5937, 1.6418, 1.6899, 1.7304,
	1.7709, 1.8114, 1.8519, 1.8924, 1.9288, 1.9652, 2.0015, 2.0379,
	2.0743, 2.1061, 2.1379, 2.1698, 2.2016, 2.2334, 2.2646, 2.2958,
	2.3271, 2.3583, 2.3895, 2.4187, 2.4479, 2.4772, 2.5064, 2.5356,
	2.5610, 2.5864, 2.6117, 2.6371, 2.6625, 2.6887, 2.7148, 2.7410,
	2.7671, 2.7933,
}

// Q returns the correction factor for a net with n terminals (driver +
// sinks). Beyond 50 terminals it extrapolates linearly as VPR does.
func Q(n int) float64 {
	if n <= 0 {
		return 1
	}
	if n <= 50 {
		return qTable[n]
	}
	return qTable[50] + 0.02616*float64(n-50)
}

// BBox is a net bounding box.
type BBox struct {
	Xmin, Xmax, Ymin, Ymax int16
}

// HalfPerim returns the half-perimeter of the box.
func (b BBox) HalfPerim() int {
	return int(b.Xmax-b.Xmin) + int(b.Ymax-b.Ymin)
}

// Expand grows the box to include l.
func (b BBox) Expand(l arch.Loc) BBox {
	if l.X < b.Xmin {
		b.Xmin = l.X
	}
	if l.X > b.Xmax {
		b.Xmax = l.X
	}
	if l.Y < b.Ymin {
		b.Ymin = l.Y
	}
	if l.Y > b.Ymax {
		b.Ymax = l.Y
	}
	return b
}

// NetBBox computes the bounding box of a net's terminals under the
// given locator. The optional override relocates one cell
// hypothetically (used by "what if this cell moved here" cost probes);
// pass override == nil for the plain box.
func NetBBox(nl *netlist.Netlist, pl timing.Locator, netID netlist.NetID, override func(netlist.CellID) (arch.Loc, bool)) BBox {
	net := nl.Net(netID)
	locOf := func(id netlist.CellID) arch.Loc {
		if override != nil {
			if l, ok := override(id); ok {
				return l
			}
		}
		return pl.Loc(id)
	}
	l := locOf(net.Driver)
	b := BBox{Xmin: l.X, Xmax: l.X, Ymin: l.Y, Ymax: l.Y}
	for _, p := range net.Sinks {
		b = b.Expand(locOf(p.Cell))
	}
	return b
}

// NetCost returns the corrected half-perimeter wire cost of a net:
// q(terminals) · HPWL.
func NetCost(nl *netlist.Netlist, pl timing.Locator, netID netlist.NetID, override func(netlist.CellID) (arch.Loc, bool)) float64 {
	net := nl.Net(netID)
	b := NetBBox(nl, pl, netID, override)
	return Q(1+len(net.Sinks)) * float64(b.HalfPerim())
}

// TotalCost sums NetCost over all live nets — the placer's wirelength
// objective.
func TotalCost(nl *netlist.Netlist, pl timing.Locator) float64 {
	total := 0.0
	nl.Nets(func(net *netlist.Net) {
		total += NetCost(nl, pl, net.ID, nil)
	})
	return total
}
