// Package placement maintains the assignment of netlist cells to FPGA
// slots, including the deliberately *illegal* intermediate states the
// optimization flow passes through: the embedder is allowed to place a
// critical cell on top of an occupied slot and let the timing-driven
// legalizer resolve the overlap afterwards (Section II-A of the paper).
package placement

import (
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/netlist"
)

// Placement maps cells to locations and tracks per-slot occupancy.
type Placement struct {
	fpga *arch.FPGA
	// loc[cell] is the cell's location; cells beyond the slice or at
	// unplaced{} are unplaced.
	loc []arch.Loc
	// occ[y*(N+2)+x] lists the cells at (x, y), possibly more than
	// its capacity during illegal intermediate states. An emptied tile
	// keeps its slice, so refilling it does not allocate.
	occ [][]netlist.CellID
}

var unplaced = arch.Loc{X: -1, Y: -1}

// New returns an empty placement for the given device sized for the
// given netlist.
func New(f *arch.FPGA, n *netlist.Netlist) *Placement {
	p := &Placement{
		fpga: f,
		loc:  make([]arch.Loc, n.Cap()),
		occ:  make([][]netlist.CellID, (f.N+2)*(f.N+2)),
	}
	for i := range p.loc {
		p.loc[i] = unplaced
	}
	return p
}

// tile returns l's index in occ, or -1 outside the (N+2)×(N+2) grid.
func (p *Placement) tile(l arch.Loc) int {
	side := p.fpga.N + 2
	x, y := int(l.X), int(l.Y)
	if uint(x) >= uint(side) || uint(y) >= uint(side) {
		return -1
	}
	return y*side + x
}

// tileLoc is tile's inverse.
func (p *Placement) tileLoc(t int) arch.Loc {
	side := p.fpga.N + 2
	return arch.Loc{X: int16(t % side), Y: int16(t / side)}
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
	t := p.tile(l)
	p.occ[t] = append(p.occ[t], id)
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

// removeOcc swaps id with the tile's last cell and drops it, which
// fixes the order At reports the remaining cells in.
func (p *Placement) removeOcc(id netlist.CellID, l arch.Loc) {
	t := p.tile(l)
	cells := p.occ[t]
	for i, c := range cells {
		if c == id {
			cells[i] = cells[len(cells)-1]
			p.occ[t] = cells[:len(cells)-1]
			return
		}
	}
	panic(fmt.Sprintf("placement: cell %d not at %v", id, l))
}

// At returns the cells occupying location l (shared slice; do not
// mutate), or nil for a location off the device.
func (p *Placement) At(l arch.Loc) []netlist.CellID {
	if t := p.tile(l); t >= 0 {
		return p.occ[t]
	}
	return nil
}

// Usage returns the number of cells at l.
func (p *Placement) Usage(l arch.Loc) int { return len(p.At(l)) }

// Locs returns the location table indexed by cell ID (shared slice;
// do not mutate). Only cells marked placed have a meaningful entry, and
// placing a cell beyond its end replaces the table.
func (p *Placement) Locs() []arch.Loc { return p.loc }

// OverCapacity returns every location holding more cells than its
// capacity, in scan order (bottom-to-top, left-to-right), matching the
// legalizer's "first overlap we encounter while we scan" rule.
func (p *Placement) OverCapacity() []arch.Loc {
	var out []arch.Loc
	for t, cells := range p.occ {
		if len(cells) == 0 {
			continue
		}
		if l := p.tileLoc(t); len(cells) > p.fpga.Capacity(l) {
			out = append(out, l)
		}
	}
	return out
}

// Legal reports whether no slot exceeds its capacity.
func (p *Placement) Legal() bool { return len(p.OverCapacity()) == 0 }

// FreeLogicSlot reports whether l is a logic slot with spare capacity.
func (p *Placement) FreeLogicSlot(l arch.Loc) bool {
	return p.fpga.IsLogic(l) && len(p.occ[p.tile(l)]) < p.fpga.CLBCapacity
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
	side := f.N + 2
	for y := 1; y <= f.N; y++ {
		for x := 1; x <= f.N; x++ {
			if len(p.occ[y*side+x]) >= f.CLBCapacity {
				continue
			}
			l := arch.Loc{X: int16(x), Y: int16(y)}
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

// Clone returns an independent copy of the placement. The copied
// tiles share one backing array, each capped at its own length, so a
// Place into a clone's tile reallocates that tile instead of writing
// into its neighbour's cells.
func (p *Placement) Clone() *Placement {
	c := &Placement{
		fpga: p.fpga,
		loc:  append([]arch.Loc(nil), p.loc...),
		occ:  make([][]netlist.CellID, len(p.occ)),
	}
	n := 0
	for _, cells := range p.occ {
		n += len(cells)
	}
	buf := make([]netlist.CellID, n)
	for t, cells := range p.occ {
		if len(cells) == 0 {
			continue
		}
		k := copy(buf, cells)
		c.occ[t] = buf[:k:k]
		buf = buf[k:]
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
		if !slices.Contains(p.occ[p.tile(l)], c.ID) {
			err = fmt.Errorf("cell %s missing from occupancy at %v", c.Name, l)
		}
	})
	if err != nil {
		return err
	}
	for t, cells := range p.occ {
		for _, id := range cells {
			if l := p.tileLoc(t); int(id) >= len(p.loc) || p.loc[id] != l {
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
