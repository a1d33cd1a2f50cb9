// Package placement maintains the assignment of netlist cells to FPGA
// slots, including the deliberately *illegal* intermediate states the
// optimization flow passes through: the embedder is allowed to place a
// critical cell on top of an occupied slot and let the timing-driven
// legalizer resolve the overlap afterwards (Section II-A of the paper).
package placement

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/netlist"
)

// Placement maps cells to locations and tracks per-slot occupancy.
type Placement struct {
	fpga *arch.FPGA
	// loc[cell] is the cell's location; cells beyond the slice or at
	// unplaced{} are unplaced.
	loc []arch.Loc
	// occ maps a location to the cells currently in it (possibly more
	// than its capacity during illegal intermediate states).
	occ map[arch.Loc][]netlist.CellID
}

var unplaced = arch.Loc{X: -1, Y: -1}

// New returns an empty placement for the given device sized for the
// given netlist.
func New(f *arch.FPGA, n *netlist.Netlist) *Placement {
	p := &Placement{
		fpga: f,
		loc:  make([]arch.Loc, n.Cap()),
		occ:  make(map[arch.Loc][]netlist.CellID),
	}
	for i := range p.loc {
		p.loc[i] = unplaced
	}
	return p
}

// FPGA returns the device this placement targets.
func (p *Placement) FPGA() *arch.FPGA { return p.fpga }

// Placed reports whether the cell has a location.
func (p *Placement) Placed(id netlist.CellID) bool {
	return int(id) < len(p.loc) && p.loc[id] != unplaced
}

// Loc returns the cell's location; it panics if the cell is unplaced.
func (p *Placement) Loc(id netlist.CellID) arch.Loc {
	if !p.Placed(id) {
		panic(fmt.Sprintf("placement: cell %d is unplaced", id))
	}
	return p.loc[id]
}

// grow extends the location table to cover cell IDs created after the
// placement was (replicas).
func (p *Placement) grow(id netlist.CellID) {
	for int(id) >= len(p.loc) {
		p.loc = append(p.loc, unplaced)
	}
}

// Place puts a cell at l, which must be in bounds. Overlap with other
// cells is permitted (see package comment); use OverCapacity to find
// violations.
func (p *Placement) Place(id netlist.CellID, l arch.Loc) {
	if !p.fpga.InBounds(l) {
		panic(fmt.Sprintf("placement: %v out of bounds", l))
	}
	p.grow(id)
	if p.loc[id] != unplaced {
		p.removeOcc(id, p.loc[id])
	}
	p.loc[id] = l
	p.occ[l] = append(p.occ[l], id)
}

// Remove unplaces a cell (used when a replica is deleted by
// unification).
func (p *Placement) Remove(id netlist.CellID) {
	if !p.Placed(id) {
		return
	}
	p.removeOcc(id, p.loc[id])
	p.loc[id] = unplaced
}

func (p *Placement) removeOcc(id netlist.CellID, l arch.Loc) {
	cells := p.occ[l]
	for i, c := range cells {
		if c == id {
			cells[i] = cells[len(cells)-1]
			p.occ[l] = cells[:len(cells)-1]
			if len(p.occ[l]) == 0 {
				delete(p.occ, l)
			}
			return
		}
	}
	panic(fmt.Sprintf("placement: cell %d not at %v", id, l))
}

// At returns the cells occupying location l (shared slice; do not
// mutate).
func (p *Placement) At(l arch.Loc) []netlist.CellID { return p.occ[l] }

// Usage returns the number of cells at l.
func (p *Placement) Usage(l arch.Loc) int { return len(p.occ[l]) }

// OverCapacity returns every location holding more cells than its
// capacity, in scan order (bottom-to-top, left-to-right), matching the
// legalizer's "first overlap we encounter while we scan" rule.
func (p *Placement) OverCapacity() []arch.Loc {
	var out []arch.Loc
	f := p.fpga
	for y := 0; y <= f.N+1; y++ {
		for x := 0; x <= f.N+1; x++ {
			l := arch.Loc{X: int16(x), Y: int16(y)}
			if len(p.occ[l]) > f.Capacity(l) {
				out = append(out, l)
			}
		}
	}
	return out
}

// Legal reports whether no slot exceeds its capacity.
func (p *Placement) Legal() bool { return len(p.OverCapacity()) == 0 }

// FreeLogicSlot reports whether l is a logic slot with spare capacity.
func (p *Placement) FreeLogicSlot(l arch.Loc) bool {
	return p.fpga.IsLogic(l) && len(p.occ[l]) < p.fpga.CLBCapacity
}

// NearestFreeLogic returns the free logic slot nearest to l (ties
// broken deterministically by scan order of increasing radius), or
// false if the device is full.
func (p *Placement) NearestFreeLogic(l arch.Loc) (arch.Loc, bool) {
	f := p.fpga
	maxR := 2 * f.N
	for r := 0; r <= maxR; r++ {
		for dx := -r; dx <= r; dx++ {
			dy := r - abs(dx)
			for _, s := range []arch.Loc{
				{X: l.X + int16(dx), Y: l.Y + int16(dy)},
				{X: l.X + int16(dx), Y: l.Y - int16(dy)},
			} {
				if p.FreeLogicSlot(s) {
					return s, true
				}
				if dy == 0 {
					break // avoid double-checking the same slot
				}
			}
		}
	}
	return arch.Loc{}, false
}

// QuadrantFreeSlots returns up to four free logic slots, the nearest in
// each quadrant around center (paper Section V-A: "identify up to four
// closest free slots, one slot in each quadrant").
func (p *Placement) QuadrantFreeSlots(center arch.Loc) []arch.Loc {
	f := p.fpga
	type best struct {
		l arch.Loc
		d int
	}
	quad := [4]best{{d: 1 << 30}, {d: 1 << 30}, {d: 1 << 30}, {d: 1 << 30}}
	for y := 1; y <= f.N; y++ {
		for x := 1; x <= f.N; x++ {
			l := arch.Loc{X: int16(x), Y: int16(y)}
			if !p.FreeLogicSlot(l) {
				continue
			}
			q := 0
			if l.X < center.X {
				q |= 1
			}
			if l.Y < center.Y {
				q |= 2
			}
			if d := arch.Dist(center, l); d < quad[q].d {
				quad[q] = best{l, d}
			}
		}
	}
	var out []arch.Loc
	for _, b := range quad {
		if b.d < 1<<30 {
			out = append(out, b.l)
		}
	}
	return out
}

// NearestFreeSlots returns up to k free logic slots nearest to center,
// in increasing-distance order (deterministic tie order).
func (p *Placement) NearestFreeSlots(center arch.Loc, k int) []arch.Loc {
	f := p.fpga
	var out []arch.Loc
	maxR := 2 * f.N
	for r := 0; r <= maxR && len(out) < k; r++ {
		for dx := -r; dx <= r; dx++ {
			dy := r - abs(dx)
			cands := [2]arch.Loc{
				{X: center.X + int16(dx), Y: center.Y + int16(dy)},
				{X: center.X + int16(dx), Y: center.Y - int16(dy)},
			}
			n := 2
			if dy == 0 {
				n = 1 // both candidates are the same slot
			}
			for _, s := range cands[:n] {
				if p.FreeLogicSlot(s) {
					out = append(out, s)
					if len(out) == k {
						return out
					}
				}
			}
		}
	}
	return out
}

// Clone returns an independent copy of the placement.
func (p *Placement) Clone() *Placement {
	c := &Placement{
		fpga: p.fpga,
		loc:  append([]arch.Loc(nil), p.loc...),
		occ:  make(map[arch.Loc][]netlist.CellID, len(p.occ)),
	}
	for l, cells := range p.occ {
		c.occ[l] = append([]netlist.CellID(nil), cells...)
	}
	return c
}

// Validate cross-checks the location table against the occupancy map
// and that every live cell of the netlist is placed in a slot of the
// right type.
func (p *Placement) Validate(n *netlist.Netlist) error {
	var err error
	n.Cells(func(c *netlist.Cell) {
		if err != nil {
			return
		}
		if !p.Placed(c.ID) {
			err = fmt.Errorf("cell %s unplaced", c.Name)
			return
		}
		l := p.loc[c.ID]
		isIO := c.Kind != netlist.LUT
		if isIO && !p.fpga.IsIO(l) {
			err = fmt.Errorf("pad %s at non-IO slot %v", c.Name, l)
			return
		}
		if !isIO && !p.fpga.IsLogic(l) {
			err = fmt.Errorf("LUT %s at non-logic slot %v", c.Name, l)
			return
		}
		found := false
		for _, id := range p.occ[l] {
			if id == c.ID {
				found = true
			}
		}
		if !found {
			err = fmt.Errorf("cell %s missing from occupancy at %v", c.Name, l)
		}
	})
	if err != nil {
		return err
	}
	for l, cells := range p.occ {
		for _, id := range cells {
			if int(id) >= len(p.loc) || p.loc[id] != l {
				return fmt.Errorf("occupancy at %v lists cell %d not placed there", l, id)
			}
		}
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
