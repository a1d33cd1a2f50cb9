package wire

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/netlist"
)

type mapLoc map[netlist.CellID]arch.Loc

func (m mapLoc) Loc(id netlist.CellID) arch.Loc { return m[id] }

func TestQ(t *testing.T) {
	if Q(1) != 1 || Q(2) != 1 || Q(3) != 1 {
		t.Error("q(n) must be 1 for nets up to 3 terminals")
	}
	if Q(4) != 1.0828 {
		t.Errorf("Q(4) = %v, want 1.0828", Q(4))
	}
	if Q(50) != 2.7933 {
		t.Errorf("Q(50) = %v, want 2.7933", Q(50))
	}
	if Q(51) <= Q(50) {
		t.Error("extrapolation beyond 50 must increase")
	}
	// Monotone nondecreasing.
	mono := func(n uint8) bool {
		k := int(n)%100 + 1
		return Q(k+1) >= Q(k)
	}
	if err := quick.Check(mono, nil); err != nil {
		t.Error(err)
	}
}

func buildNet(t *testing.T) (*netlist.Netlist, mapLoc, netlist.NetID) {
	t.Helper()
	n := netlist.New("w")
	d := n.AddCell("d", netlist.IPad, 0)
	a := n.AddCell("a", netlist.LUT, 1)
	n.ConnectByName(a.ID, 0, "d")
	b := n.AddCell("b", netlist.LUT, 1)
	n.ConnectByName(b.ID, 0, "d")
	o := n.AddCell("o", netlist.OPad, 1)
	n.ConnectByName(o.ID, 0, "a")
	o2 := n.AddCell("o2", netlist.OPad, 1)
	n.ConnectByName(o2.ID, 0, "b")
	loc := mapLoc{
		d.ID: {X: 0, Y: 0}, a.ID: {X: 4, Y: 2}, b.ID: {X: 1, Y: 5},
		o.ID: {X: 6, Y: 2}, o2.ID: {X: 1, Y: 6},
	}
	return n, loc, n.Cell(d.ID).Out
}

func TestNetBBoxAndCost(t *testing.T) {
	n, loc, net := buildNet(t)
	b := NetBBox(n, loc, net)
	if b.Xmin != 0 || b.Xmax != 4 || b.Ymin != 0 || b.Ymax != 5 {
		t.Errorf("bbox = %+v, want x[0,4] y[0,5]", b)
	}
	if b.HalfPerim() != 9 {
		t.Errorf("HPWL = %d, want 9", b.HalfPerim())
	}
	// 3 terminals: q = 1.
	if got := NetCost(n, loc, net); got != 9 {
		t.Errorf("NetCost = %v, want 9", got)
	}
}

func TestTotalCost(t *testing.T) {
	n, loc, _ := buildNet(t)
	got := TotalCost(n, loc)
	// Net d: 9. Net a: (4..6,2) = 2. Net b: (1,5..6) = 1.
	if got != 12 {
		t.Errorf("TotalCost = %v, want 12", got)
	}
}
