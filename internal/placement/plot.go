package placement

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/netlist"
)

// Plot renders the placement as an ASCII floorplan, one character per
// slot: '.' empty logic, '#' occupied logic, '*' overfull, 'i'/'o'
// pads, '+' highlighted cells (e.g. a critical path or the replicas of
// one equivalence class). The origin is bottom-left, matching the
// coordinate system.
func (p *Placement) Plot(nl *netlist.Netlist, highlight map[netlist.CellID]bool) string {
	f := p.fpga
	var b strings.Builder
	fmt.Fprintf(&b, "placement %dx%d (+IO ring)\n", f.N, f.N)
	for y := f.N + 1; y >= 0; y-- {
		for x := 0; x <= f.N+1; x++ {
			l := arch.Loc{X: int16(x), Y: int16(y)}
			b.WriteByte(p.slotGlyph(nl, l, highlight))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (p *Placement) slotGlyph(nl *netlist.Netlist, l arch.Loc, highlight map[netlist.CellID]bool) byte {
	f := p.fpga
	cells := p.At(l)
	for _, id := range cells {
		if highlight[id] {
			return '+'
		}
	}
	switch {
	case f.IsCorner(l):
		return ' '
	case f.IsLogic(l):
		switch {
		case len(cells) == 0:
			return '.'
		case len(cells) > f.CLBCapacity:
			return '*'
		default:
			return '#'
		}
	case f.IsIO(l):
		if len(cells) == 0 {
			return '-'
		}
		for _, id := range cells {
			if nl.Alive(id) && nl.Cell(id).Kind == netlist.IPad {
				return 'i'
			}
		}
		return 'o'
	default:
		return '?'
	}
}
