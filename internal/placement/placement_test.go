package placement

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/netlist"
)

func tinyNetlist(t *testing.T) *netlist.Netlist {
	t.Helper()
	n := netlist.New("tiny")
	n.AddCell("i0", netlist.IPad, 0)
	n.AddCell("i1", netlist.IPad, 0)
	l0 := n.AddCell("l0", netlist.LUT, 2)
	n.ConnectByName(l0.ID, 0, "i0")
	n.ConnectByName(l0.ID, 1, "i1")
	l1 := n.AddCell("l1", netlist.LUT, 1)
	n.ConnectByName(l1.ID, 0, "l0")
	o := n.AddCell("o", netlist.OPad, 1)
	n.ConnectByName(o.ID, 0, "l1")
	return n
}

func TestPlaceAndLookup(t *testing.T) {
	n := tinyNetlist(t)
	f := arch.New(4)
	p := New(f, n)
	l0, _ := n.CellByName("l0")
	if p.Placed(l0) {
		t.Error("fresh placement should have unplaced cells")
	}
	p.Place(l0, arch.Loc{X: 2, Y: 3})
	if !p.Placed(l0) || p.Loc(l0) != (arch.Loc{X: 2, Y: 3}) {
		t.Error("Place/Loc mismatch")
	}
	if p.Usage(arch.Loc{X: 2, Y: 3}) != 1 {
		t.Error("usage should be 1")
	}
	// Re-placing moves the cell.
	p.Place(l0, arch.Loc{X: 1, Y: 1})
	if p.Usage(arch.Loc{X: 2, Y: 3}) != 0 {
		t.Error("old slot should be empty after move")
	}
	if p.Loc(l0) != (arch.Loc{X: 1, Y: 1}) {
		t.Error("move did not update location")
	}
}

func TestOverCapacityAndLegal(t *testing.T) {
	n := tinyNetlist(t)
	f := arch.New(4)
	p := New(f, n)
	l0, _ := n.CellByName("l0")
	l1, _ := n.CellByName("l1")
	slot := arch.Loc{X: 2, Y: 2}
	p.Place(l0, slot)
	if !p.Legal() {
		t.Error("single occupancy should be legal")
	}
	p.Place(l1, slot)
	over := p.OverCapacity()
	if len(over) != 1 || over[0] != slot {
		t.Errorf("OverCapacity = %v, want [%v]", over, slot)
	}
	if p.Legal() {
		t.Error("double occupancy of capacity-1 CLB should be illegal")
	}
	// IO slots hold IORat pads legally.
	i0, _ := n.CellByName("i0")
	i1, _ := n.CellByName("i1")
	io := arch.Loc{X: 0, Y: 1}
	p.Place(i0, io)
	p.Place(i1, io)
	for _, l := range p.OverCapacity() {
		if l == io {
			t.Error("two pads in one IO slot (IORat=2) should be legal")
		}
	}
}

func TestRemove(t *testing.T) {
	n := tinyNetlist(t)
	p := New(arch.New(4), n)
	l0, _ := n.CellByName("l0")
	p.Place(l0, arch.Loc{X: 1, Y: 2})
	p.Remove(l0)
	if p.Placed(l0) {
		t.Error("cell should be unplaced after Remove")
	}
	if p.Usage(arch.Loc{X: 1, Y: 2}) != 0 {
		t.Error("slot should be empty after Remove")
	}
	p.Remove(l0) // idempotent
}

func TestGrowForReplicas(t *testing.T) {
	n := tinyNetlist(t)
	p := New(arch.New(4), n)
	l0, _ := n.CellByName("l0")
	p.Place(l0, arch.Loc{X: 1, Y: 1})
	rep := n.Replicate(l0)
	p.Place(rep.ID, arch.Loc{X: 2, Y: 2}) // must not panic
	if p.Loc(rep.ID) != (arch.Loc{X: 2, Y: 2}) {
		t.Error("replica placement lost")
	}
}

func TestNearestFreeLogic(t *testing.T) {
	n := tinyNetlist(t)
	f := arch.New(3)
	p := New(f, n)
	center := arch.Loc{X: 2, Y: 2}
	got, ok := p.NearestFreeLogic(center)
	if !ok || got != center {
		t.Errorf("empty grid: nearest free to center = %v, want %v", got, center)
	}
	l0, _ := n.CellByName("l0")
	p.Place(l0, center)
	got, ok = p.NearestFreeLogic(center)
	if !ok || arch.Dist(got, center) != 1 {
		t.Errorf("nearest free should be at distance 1, got %v", got)
	}
}

func TestNearestFreeLogicFullDevice(t *testing.T) {
	nl := netlist.New("full")
	f := arch.New(2)
	p := New(f, nl)
	for i, s := range f.LogicSlots() {
		c := nl.AddCell(string(rune('a'+i)), netlist.LUT, 0)
		p.Place(c.ID, s)
	}
	if _, ok := p.NearestFreeLogic(arch.Loc{X: 1, Y: 1}); ok {
		t.Error("full device should report no free slot")
	}
}

func TestQuadrantFreeSlots(t *testing.T) {
	nl := netlist.New("q")
	f := arch.New(5)
	p := New(f, nl)
	center := arch.Loc{X: 3, Y: 3}
	slots := p.QuadrantFreeSlots(center)
	if len(slots) != 4 {
		t.Fatalf("empty grid should yield 4 quadrant slots, got %d", len(slots))
	}
	// Each returned slot should be free, and they must cover 4
	// distinct quadrants.
	quads := map[int]bool{}
	for _, s := range slots {
		if !p.FreeLogicSlot(s) {
			t.Errorf("slot %v not free", s)
		}
		q := 0
		if s.X < center.X {
			q |= 1
		}
		if s.Y < center.Y {
			q |= 2
		}
		quads[q] = true
	}
	if len(quads) != 4 {
		t.Errorf("slots cover %d quadrants, want 4", len(quads))
	}
}

func TestCloneIndependent(t *testing.T) {
	n := tinyNetlist(t)
	p := New(arch.New(4), n)
	l0, _ := n.CellByName("l0")
	p.Place(l0, arch.Loc{X: 1, Y: 1})
	c := p.Clone()
	c.Place(l0, arch.Loc{X: 2, Y: 2})
	if p.Loc(l0) != (arch.Loc{X: 1, Y: 1}) {
		t.Error("clone edit leaked into original")
	}
}

func TestValidate(t *testing.T) {
	n := tinyNetlist(t)
	f := arch.New(4)
	p := New(f, n)
	if err := p.Validate(n); err == nil {
		t.Error("unplaced netlist should fail validation")
	}
	// Place everything properly.
	ioSlots := f.IOSlots()
	ioIdx := 0
	logic := f.LogicSlots()
	logicIdx := 0
	n.Cells(func(c *netlist.Cell) {
		if c.Kind == netlist.LUT {
			p.Place(c.ID, logic[logicIdx])
			logicIdx++
		} else {
			p.Place(c.ID, ioSlots[ioIdx])
			ioIdx++
		}
	})
	if err := p.Validate(n); err != nil {
		t.Errorf("valid placement rejected: %v", err)
	}
	// A pad on a logic slot must be rejected.
	i0, _ := n.CellByName("i0")
	p.Place(i0, arch.Loc{X: 1, Y: 1})
	if err := p.Validate(n); err == nil {
		t.Error("pad on logic slot should fail validation")
	}
}

func TestOccupancyConsistencyRandomized(t *testing.T) {
	// Property: after any sequence of Place/Remove, Usage sums to the
	// number of placed cells and every placed cell appears at its slot.
	rng := rand.New(rand.NewSource(7))
	nl := netlist.New("rand")
	var ids []netlist.CellID
	for i := 0; i < 40; i++ {
		c := nl.AddCell(string(rune('A'+i%26))+string(rune('a'+i/26)), netlist.LUT, 0)
		ids = append(ids, c.ID)
	}
	f := arch.New(6)
	p := New(f, nl)
	logic := f.LogicSlots()
	for step := 0; step < 500; step++ {
		id := ids[rng.Intn(len(ids))]
		if rng.Intn(4) == 0 {
			p.Remove(id)
		} else {
			p.Place(id, logic[rng.Intn(len(logic))])
		}
	}
	placed := 0
	total := 0
	for _, s := range logic {
		total += p.Usage(s)
	}
	for _, id := range ids {
		if p.Placed(id) {
			placed++
			found := false
			for _, c := range p.At(p.Loc(id)) {
				if c == id {
					found = true
				}
			}
			if !found {
				t.Fatalf("cell %d not in occupancy of its own slot", id)
			}
		}
	}
	if placed != total {
		t.Errorf("placed cells %d != total occupancy %d", placed, total)
	}
}

func TestPlot(t *testing.T) {
	n := tinyNetlist(t)
	f := arch.New(3)
	p := New(f, n)
	l0, _ := n.CellByName("l0")
	l1, _ := n.CellByName("l1")
	i0, _ := n.CellByName("i0")
	p.Place(l0, arch.Loc{X: 2, Y: 2})
	p.Place(l1, arch.Loc{X: 2, Y: 2}) // overfull
	p.Place(i0, arch.Loc{X: 0, Y: 1})
	out := p.Plot(n, map[netlist.CellID]bool{})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // header + 5 rows (N+2)
		t.Fatalf("plot has %d lines:\n%s", len(lines), out)
	}
	// Row for y=2 is lines[3] (printed top-down from y=4).
	row2 := lines[3]
	if row2[2] != '*' {
		t.Errorf("overfull slot should render '*':\n%s", out)
	}
	row1 := lines[4]
	if row1[0] != 'i' {
		t.Errorf("input pad should render 'i':\n%s", out)
	}
	// Highlighting wins.
	out = p.Plot(n, map[netlist.CellID]bool{l0: true})
	if !strings.Contains(out, "+") {
		t.Errorf("highlight missing:\n%s", out)
	}
}

// refPlacement is the map-based occupancy model the dense table
// replaced: cells per location, swap-with-last removal, and an emptied
// location deleted.
type refPlacement struct {
	f   *arch.FPGA
	loc map[netlist.CellID]arch.Loc
	occ map[arch.Loc][]netlist.CellID
}

func newRef(f *arch.FPGA) *refPlacement {
	return &refPlacement{f: f, loc: map[netlist.CellID]arch.Loc{}, occ: map[arch.Loc][]netlist.CellID{}}
}

func (r *refPlacement) remove(id netlist.CellID) {
	l, ok := r.loc[id]
	if !ok {
		return
	}
	cells := r.occ[l]
	i := slices.Index(cells, id)
	cells[i] = cells[len(cells)-1]
	if cells = cells[:len(cells)-1]; len(cells) == 0 {
		delete(r.occ, l)
	} else {
		r.occ[l] = cells
	}
	delete(r.loc, id)
}

func (r *refPlacement) place(id netlist.CellID, l arch.Loc) {
	r.remove(id)
	r.loc[id] = l
	r.occ[l] = append(r.occ[l], id)
}

func (r *refPlacement) clone() *refPlacement {
	c := newRef(r.f)
	maps.Copy(c.loc, r.loc)
	for l, cells := range r.occ {
		c.occ[l] = slices.Clone(cells)
	}
	return c
}

func (r *refPlacement) free(l arch.Loc) bool {
	return r.f.IsLogic(l) && len(r.occ[l]) < r.f.CLBCapacity
}

func (r *refPlacement) overCapacity() []arch.Loc {
	var out []arch.Loc
	for y := 0; y <= r.f.N+1; y++ {
		for x := 0; x <= r.f.N+1; x++ {
			l := arch.Loc{X: int16(x), Y: int16(y)}
			if len(r.occ[l]) > r.f.Capacity(l) {
				out = append(out, l)
			}
		}
	}
	return out
}

// ringOrder lists every location within Manhattan radius 2N of center
// in the nearest-slot searches' scan order: by radius, then dx, then
// +dy before -dy.
func ringOrder(f *arch.FPGA, center arch.Loc) []arch.Loc {
	var out []arch.Loc
	for r := 0; r <= 2*f.N; r++ {
		for dx := -r; dx <= r; dx++ {
			dy := r - max(dx, -dx)
			out = append(out, arch.Loc{X: center.X + int16(dx), Y: center.Y + int16(dy)})
			if dy != 0 {
				out = append(out, arch.Loc{X: center.X + int16(dx), Y: center.Y - int16(dy)})
			}
		}
	}
	return out
}

func (r *refPlacement) nearestFree(center arch.Loc, k int) []arch.Loc {
	var out []arch.Loc
	for _, l := range ringOrder(r.f, center) {
		if len(out) < k && r.free(l) {
			out = append(out, l)
		}
	}
	return out
}

func (r *refPlacement) quadrantFree(center arch.Loc) []arch.Loc {
	var best [4]arch.Loc
	var dist [4]int
	for q := range dist {
		dist[q] = 1 << 30
	}
	for _, l := range r.f.LogicSlots() {
		if !r.free(l) {
			continue
		}
		q := 0
		if l.X < center.X {
			q |= 1
		}
		if l.Y < center.Y {
			q |= 2
		}
		if d := arch.Dist(center, l); d < dist[q] {
			best[q], dist[q] = l, d
		}
	}
	var out []arch.Loc
	for q := range best {
		if dist[q] < 1<<30 {
			out = append(out, best[q])
		}
	}
	return out
}

// checkAgainstRef compares every occupancy query of p with the model,
// over the whole grid and a margin of locations off the device.
func checkAgainstRef(t *testing.T, step int, p *Placement, r *refPlacement, ids []netlist.CellID) {
	t.Helper()
	f := r.f
	for _, id := range ids {
		l, ok := r.loc[id]
		if p.Placed(id) != ok || ok && p.Loc(id) != l {
			t.Fatalf("step %d: cell %d placed=%v, model %v at %v", step, id, p.Placed(id), ok, l)
		}
	}
	for y := -2; y <= f.N+3; y++ {
		for x := -2; x <= f.N+3; x++ {
			l := arch.Loc{X: int16(x), Y: int16(y)}
			if got, want := p.At(l), r.occ[l]; !slices.Equal(got, want) {
				t.Fatalf("step %d: At(%v) = %v, model %v", step, l, got, want)
			}
			if !f.InBounds(l) && p.At(l) != nil {
				t.Fatalf("step %d: At(%v) off the device = %v, want nil", step, l, p.At(l))
			}
			if p.Usage(l) != len(r.occ[l]) {
				t.Fatalf("step %d: Usage(%v) = %d, model %d", step, l, p.Usage(l), len(r.occ[l]))
			}
			if p.FreeLogicSlot(l) != r.free(l) {
				t.Fatalf("step %d: FreeLogicSlot(%v) = %v, model %v", step, l, p.FreeLogicSlot(l), r.free(l))
			}
		}
	}
	if got, want := p.OverCapacity(), r.overCapacity(); !slices.Equal(got, want) {
		t.Fatalf("step %d: OverCapacity = %v, model %v", step, got, want)
	}
	for _, c := range []arch.Loc{{X: 1, Y: 1}, {X: int16(f.N / 2), Y: int16(f.N/2 + 1)}, {X: 0, Y: 3}, {X: int16(f.N), Y: int16(f.N + 1)}} {
		if got, want := p.NearestFreeSlots(c, 5), r.nearestFree(c, 5); !slices.Equal(got, want) {
			t.Fatalf("step %d: NearestFreeSlots(%v) = %v, model %v", step, c, got, want)
		}
		if got, want := p.QuadrantFreeSlots(c), r.quadrantFree(c); !slices.Equal(got, want) {
			t.Fatalf("step %d: QuadrantFreeSlots(%v) = %v, model %v", step, c, got, want)
		}
	}
}

// TestOccupancyMatchesMapModel drives random Place, Remove and Clone
// sequences, with more cells than logic slots so tiles overfill and
// replicas past the netlist's initial cell count, and compares every
// occupancy query with the map-based model after each step. A clone
// and its source are checked to stay independent: one keeps being
// edited while the other must not change.
func TestOccupancyMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nl := netlist.New("model")
	var ids []netlist.CellID
	for i := 0; i < 30; i++ {
		ids = append(ids, nl.AddCell("c"+strconv.Itoa(i), netlist.LUT, 0).ID)
	}
	f := arch.New(5)
	p, r := New(f, nl), newRef(f)
	for i := 0; i < 10; i++ {
		ids = append(ids, nl.AddCell("r"+strconv.Itoa(i), netlist.LUT, 0).ID)
	}
	var slots []arch.Loc
	for y := 0; y <= f.N+1; y++ {
		for x := 0; x <= f.N+1; x++ {
			if l := (arch.Loc{X: int16(x), Y: int16(y)}); f.InBounds(l) {
				slots = append(slots, l)
			}
		}
	}
	var frozen *Placement
	var frozenRef *refPlacement
	for step := 0; step < 600; step++ {
		id := ids[rng.Intn(len(ids))]
		switch k := rng.Intn(20); {
		case k < 4:
			p.Remove(id)
			r.remove(id)
		case k == 4:
			c, rc := p.Clone(), r.clone()
			if rng.Intn(2) == 0 {
				frozen, frozenRef = p, r
				p, r = c, rc
			} else {
				frozen, frozenRef = c, rc
			}
		default:
			// Half the moves target the lower-left quarter, so logic
			// tiles overfill.
			l := slots[rng.Intn(len(slots))]
			if rng.Intn(2) == 0 {
				l = arch.Loc{X: int16(1 + rng.Intn(2)), Y: int16(1 + rng.Intn(2))}
			}
			p.Place(id, l)
			r.place(id, l)
		}
		checkAgainstRef(t, step, p, r, ids)
		if frozen != nil {
			checkAgainstRef(t, step, frozen, frozenRef, ids)
		}
	}
	if len(r.overCapacity()) == 0 {
		t.Fatal("the sequence never left an overfull tile")
	}
}

// TestValidateScanOrder corrupts two tiles so both list a cell not
// placed there: Validate must name the first in scan order, every run.
func TestValidateScanOrder(t *testing.T) {
	n := tinyNetlist(t)
	f := arch.New(4)
	p := New(f, n)
	logic, io := f.LogicSlots(), f.IOSlots()
	n.Cells(func(c *netlist.Cell) {
		if c.Kind == netlist.LUT {
			p.Place(c.ID, logic[0])
			logic = logic[1:]
		} else {
			p.Place(c.ID, io[0])
			io = io[1:]
		}
	})
	// Two cells outside the netlist, then their locations lost.
	extra := netlist.CellID(n.Cap())
	p.Place(extra, arch.Loc{X: 3, Y: 4})
	p.Place(extra+1, arch.Loc{X: 2, Y: 2})
	p.loc[extra], p.loc[extra+1] = unplaced, unplaced
	want := fmt.Sprintf("occupancy at %v lists cell %d not placed there", arch.Loc{X: 2, Y: 2}, extra+1)
	for run := 0; run < 20; run++ {
		if err := p.Validate(n); err == nil || err.Error() != want {
			t.Fatalf("run %d: Validate = %v, want %q", run, err, want)
		}
	}
}
