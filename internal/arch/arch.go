// Package arch models the target FPGA architecture: a square grid of
// configurable logic blocks (CLBs) surrounded by a ring of I/O pads,
// together with the linear interconnect delay model of Section II-B of
// the paper ("An Approach to Placement-Coupled Logic Replication",
// Hrkić/Lillis/Beraudo).
//
// Coordinates: CLB slots occupy (x, y) with 1 <= x, y <= N. I/O pads sit
// on the perimeter ring where x == 0, x == N+1, y == 0 or y == N+1
// (corners are unusable, as in VPR). Each perimeter position holds up to
// IORat pads.
package arch

import "fmt"

// Loc is a slot coordinate on the FPGA grid.
type Loc struct {
	X, Y int16
}

// Dist returns the Manhattan (rectilinear) distance between two
// locations, the distance metric used throughout the paper.
func Dist(a, b Loc) int {
	dx := int(a.X) - int(b.X)
	if dx < 0 {
		dx = -dx
	}
	dy := int(a.Y) - int(b.Y)
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// DelayModel holds the parameters of the placement-level delay
// estimator. For the buffered-switch FPGA architectures considered in
// the paper, interconnect delay is approximated by a linear function of
// Manhattan wire length (Section II-B); each cell adds an intrinsic
// delay.
type DelayModel struct {
	// SegDelay is the interconnect delay per unit of Manhattan
	// distance.
	SegDelay float64
	// LUTDelay is the intrinsic delay of a logic cell (LUT).
	LUTDelay float64
	// IODelay is the intrinsic delay of an input or output pad.
	IODelay float64
}

// DefaultDelayModel mirrors the relative magnitudes of the VPR
// placement delay estimator: a LUT costs about as much as a couple of
// grid units of wire.
func DefaultDelayModel() DelayModel {
	return DelayModel{SegDelay: 1.0, LUTDelay: 2.0, IODelay: 0.5}
}

// WireDelay returns the estimated interconnect delay for a connection
// spanning the given Manhattan distance.
func (m DelayModel) WireDelay(dist int) float64 {
	return float64(m.SegDelay * float64(dist))
}

// FPGA describes one instance of the target architecture.
type FPGA struct {
	// N is the side of the CLB grid (the FPGA is N x N logic slots).
	N int
	// CLBCapacity is the number of LUTs a single CLB slot can hold.
	CLBCapacity int
	// IORat is the number of I/O pads per perimeter position.
	IORat int
	// Delay is the placement-level delay model.
	Delay DelayModel
}

// New returns an FPGA with an N x N logic grid using default capacity
// (one LUT per slot), VPR's default I/O ratio of two pads per perimeter
// position, and the default delay model.
func New(n int) *FPGA {
	return &FPGA{N: n, CLBCapacity: 1, IORat: 2, Delay: DefaultDelayModel()}
}

// MinSquare returns the smallest FPGA whose logic and I/O capacity can
// accommodate the given cell counts, following the paper's "minimum
// square FPGA able to contain the circuit" rule.
func MinSquare(numLUTs, numIOs int) *FPGA {
	n := 1
	for {
		f := New(n)
		if f.LogicCapacity() >= numLUTs && f.IOCapacity() >= numIOs {
			return f
		}
		n++
	}
}

// LogicCapacity is the total number of LUTs the device can hold.
func (f *FPGA) LogicCapacity() int { return f.N * f.N * f.CLBCapacity }

// IOCapacity is the total number of I/O pads the device can hold.
func (f *FPGA) IOCapacity() int { return 4 * f.N * f.IORat }

// Density is the ratio of used LUTs to available logic capacity, the
// "design density" column of Table I.
func (f *FPGA) Density(numLUTs int) float64 {
	return float64(numLUTs) / float64(f.LogicCapacity())
}

// InBounds reports whether l is a valid slot (logic or I/O) on the
// device.
func (f *FPGA) InBounds(l Loc) bool {
	x, y := int(l.X), int(l.Y)
	if x < 0 || y < 0 || x > f.N+1 || y > f.N+1 {
		return false
	}
	if f.IsCorner(l) {
		return false
	}
	return true
}

// IsLogic reports whether l is a CLB slot.
func (f *FPGA) IsLogic(l Loc) bool {
	x, y := int(l.X), int(l.Y)
	return x >= 1 && x <= f.N && y >= 1 && y <= f.N
}

// IsIO reports whether l is a perimeter I/O position.
func (f *FPGA) IsIO(l Loc) bool {
	return f.InBounds(l) && !f.IsLogic(l)
}

// IsCorner reports whether l is one of the four unusable corner
// positions of the perimeter ring.
func (f *FPGA) IsCorner(l Loc) bool {
	x, y := int(l.X), int(l.Y)
	onX := x == 0 || x == f.N+1
	onY := y == 0 || y == f.N+1
	return onX && onY
}

// Capacity returns the number of cells the slot at l can hold.
func (f *FPGA) Capacity(l Loc) int {
	switch {
	case f.IsLogic(l):
		return f.CLBCapacity
	case f.IsIO(l):
		return f.IORat
	default:
		return 0
	}
}

// LogicSlots returns all CLB slot locations in row-major order.
func (f *FPGA) LogicSlots() []Loc {
	slots := make([]Loc, 0, f.N*f.N)
	for y := 1; y <= f.N; y++ {
		for x := 1; x <= f.N; x++ {
			slots = append(slots, Loc{int16(x), int16(y)})
		}
	}
	return slots
}

// IOSlots returns all perimeter I/O positions (excluding corners) in a
// deterministic clockwise order starting from (1, 0).
func (f *FPGA) IOSlots() []Loc {
	slots := make([]Loc, 0, 4*f.N)
	for x := 1; x <= f.N; x++ { // bottom
		slots = append(slots, Loc{int16(x), 0})
	}
	for y := 1; y <= f.N; y++ { // right
		slots = append(slots, Loc{int16(f.N + 1), int16(y)})
	}
	for x := f.N; x >= 1; x-- { // top
		slots = append(slots, Loc{int16(x), int16(f.N + 1)})
	}
	for y := f.N; y >= 1; y-- { // left
		slots = append(slots, Loc{0, int16(y)})
	}
	return slots
}

// String implements fmt.Stringer, printing the grid dimensions in the
// "N x N" form used by Table I of the paper.
func (f *FPGA) String() string { return fmt.Sprintf("%d x %d", f.N, f.N) }
