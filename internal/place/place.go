// Package place is a VPR-style simulated-annealing FPGA placer — the
// substrate the paper starts from ("we begin from a valid
// timing-driven placement produced by VPR"). It implements the
// T-VPlace algorithm of Marquardt, Betz, and Rose ("Timing-driven
// placement for FPGAs", FPGA 2000): a bounding-box wire cost with
// net-size correction, a criticality-weighted connection-delay timing
// cost, the adaptive annealing schedule of VPR, and a shrinking move
// range limit. A wirelength-driven mode (λ = 0) is included because
// the local-replication baseline of Beraudo and Lillis was originally
// evaluated against it.
package place

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/arch"
	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/timing"
	"repro/internal/wire"
)

// critExp is the criticality exponent (VPR uses up to 8).
const critExp float64 = 8

// Options configures a placement run.
type Options struct {
	// Seed drives all randomized decisions; equal seeds give equal
	// placements.
	Seed int64
	// Lambda is the timing/wirelength tradeoff (VPR default 0.5);
	// 0 gives a pure wirelength-driven placement.
	Lambda float64
	// Effort scales the moves per temperature
	// (moves = Effort · cells^(4/3); VPR uses 10).
	Effort float64
	// Delay is the placement delay model.
	Delay arch.DelayModel
}

// Defaults returns the timing-driven defaults used by the experiments.
func Defaults() Options {
	return Options{
		Seed:   1,
		Lambda: 0.5,
		Effort: 10,
		Delay:  arch.DefaultDelayModel(),
	}
}

// Place anneals a placement of nl onto f.
func Place(nl *netlist.Netlist, f *arch.FPGA, opt Options) (*placement.Placement, error) {
	return PlaceContext(context.Background(), nl, f, opt)
}

// PlaceContext is Place under cooperative cancellation: the annealer
// polls ctx every ctxCheckStride moves and returns ctx.Err() with no
// placement. An uncancelled run is bit-identical to Place.
func PlaceContext(ctx context.Context, nl *netlist.Netlist, f *arch.FPGA, opt Options) (*placement.Placement, error) {
	if nl.NumLUTs() > f.LogicCapacity() || nl.NumIOs() > f.IOCapacity() {
		return nil, fmt.Errorf("place: %s does not fit on %v", nl.Name, f)
	}
	if opt.Effort <= 0 {
		opt.Effort = 10
	}
	s := newState(nl, f, opt)
	s.ctx = ctx
	s.initialRandom()
	if err := s.anneal(); err != nil {
		return nil, err
	}
	return s.pl, nil
}

// ctxCheckStride amortizes the cancellation poll: one atomic-ish ctx
// check per this many annealing moves.
const ctxCheckStride = 1024

// state carries one annealing run.
type state struct {
	nl  *netlist.Netlist
	f   *arch.FPGA
	pl  *placement.Placement
	opt Options
	rng *rand.Rand
	ctx context.Context // non-nil via PlaceContext

	luts    []netlist.CellID
	pads    []netlist.CellID
	ioSlots []arch.Loc

	// Per-net wire cost cache and totals.
	netCost   []float64
	wireTotal float64

	// Timing state, refreshed once per temperature.
	crit        []float64 // per-cell *input* criticality^exp (max over input edges)
	arr         []float64 // cached arrival times
	tail        []float64 // delay from a cell's output to any path end, excluding wire to its first hop
	timingTotal float64
	// edgeCost[slot] is the timing cost of connection (u, v), where
	// slot is v's first input pin reading u's net (pinSlot): one entry
	// per distinct (u, v) pair, however many of v's pins u feeds.
	edgeCost []float64
	pinOff   []int32 // per cell: index of its input pin 0 in pinSlot
	pinSlot  []int32

	// Per-move scratch: the move's affected nets and timing edges,
	// computed once per move and reused by the delta and the commit,
	// and their post-move costs (netNew[i] is nets[i]'s, edgeNew[i] is
	// edges[i]'s), priced by moveDelta and applied by the commit.
	// edgeSeen[slot] == edgeStamp marks an edge already in edges.
	nets      []netlist.NetID
	edges     []edge
	netNew    []float64
	edgeNew   []float64
	edgeSeen  []uint32
	edgeStamp uint32
}

// edge is a timing connection u -> v and its edgeCost slot.
type edge struct {
	u, v netlist.CellID
	slot int32
}

func newState(nl *netlist.Netlist, f *arch.FPGA, opt Options) *state {
	s := &state{
		nl:  nl,
		f:   f,
		pl:  placement.New(f, nl),
		opt: opt,
		rng: rand.New(rand.NewSource(opt.Seed)),
	}
	s.pinOff = make([]int32, nl.Cap())
	nl.Cells(func(c *netlist.Cell) {
		if c.Kind == netlist.LUT {
			s.luts = append(s.luts, c.ID)
		} else {
			s.pads = append(s.pads, c.ID)
		}
		off := len(s.pinSlot)
		s.pinOff[c.ID] = int32(off)
		for _, net := range c.Fanin {
			s.pinSlot = append(s.pinSlot, int32(off+slices.Index(c.Fanin, net)))
		}
	})
	s.ioSlots = f.IOSlots()
	s.netCost = make([]float64, nl.NetCap())
	s.crit = make([]float64, nl.Cap())
	s.tail = make([]float64, nl.Cap())
	s.edgeCost = make([]float64, len(s.pinSlot))
	s.edgeSeen = make([]uint32, len(s.pinSlot))
	return s
}

// slot returns the edgeCost slot of the connection into v's pin.
func (s *state) slot(v netlist.CellID, pin int) int32 {
	return s.pinSlot[int(s.pinOff[v])+pin]
}

// initialRandom scatters cells uniformly (a random permutation of the
// free slots), VPR's starting point.
func (s *state) initialRandom() {
	logic := s.f.LogicSlots()
	s.rng.Shuffle(len(logic), func(i, j int) { logic[i], logic[j] = logic[j], logic[i] })
	for i, id := range s.luts {
		s.pl.Place(id, logic[i])
	}
	// IO slots hold IORat pads each; expand to pad capacity.
	var ioSlots []arch.Loc
	for _, l := range s.f.IOSlots() {
		for k := 0; k < s.f.IORat; k++ {
			ioSlots = append(ioSlots, l)
		}
	}
	s.rng.Shuffle(len(ioSlots), func(i, j int) { ioSlots[i], ioSlots[j] = ioSlots[j], ioSlots[i] })
	for i, id := range s.pads {
		s.pl.Place(id, ioSlots[i])
	}
}

// refreshWire recomputes all net costs from scratch.
func (s *state) refreshWire() {
	s.wireTotal = 0
	s.nl.Nets(func(n *netlist.Net) {
		c := wire.NetCost(s.nl, s.pl, n.ID)
		s.netCost[n.ID] = c
		s.wireTotal += c
	})
}

// refreshTiming runs STA and rebuilds per-edge criticalities and the
// timing cost total. Criticality of connection (u,v) is
// (path through the edge / Dmax)^critExp, equivalent to VPR's
// (1 - slack/Dmax)^exp.
func (s *state) refreshTiming() error {
	a, err := timing.Analyze(s.nl, s.pl, s.opt.Delay)
	if err != nil {
		return err
	}
	s.arr = a.Arr
	clear(s.tail)
	clear(s.crit)
	s.timingTotal = 0
	nl := s.nl
	dmax := a.Period
	nl.Cells(func(vc *netlist.Cell) {
		v := vc.ID
		// tail[v]: delay added after a signal reaches v's input.
		if vc.IsSink() {
			s.tail[v] = timing.Intrinsic(s.opt.Delay, vc)
		}
		if !vc.IsSink() || vc.IsSource() {
			if !math.IsInf(a.Down[v], -1) {
				t := s.opt.Delay.LUTDelay + a.Down[v]
				if vc.Kind != netlist.LUT {
					t = a.Down[v] // pads add no logic delay on the source side
				}
				if t > s.tail[v] {
					s.tail[v] = t
				}
			}
		}
	})
	nl.Cells(func(vc *netlist.Cell) {
		v := vc.ID
		for k, net := range vc.Fanin {
			if net == netlist.None {
				continue
			}
			u := nl.Net(net).Driver
			d := s.opt.Delay.WireDelay(arch.Dist(s.pl.Loc(u), s.pl.Loc(v)))
			through := a.Arr[u] + d + s.tail[v]
			crit := through / dmax
			if crit > 1 {
				crit = 1
			}
			if crit < 0 {
				crit = 0
			}
			w := math.Pow(crit, critExp)
			if w > s.crit[v] {
				s.crit[v] = w
			}
			cost := float64(w * d)
			s.edgeCost[s.slot(v, k)] = cost
			s.timingTotal += cost
		}
	})
	return nil
}

// anneal runs the adaptive VPR schedule.
func (s *state) anneal() error {
	if err := s.refreshTiming(); err != nil {
		return err
	}
	s.refreshWire()

	n := len(s.luts) + len(s.pads)
	movesPerTemp := int(s.opt.Effort * math.Pow(float64(n), 4.0/3.0))
	if movesPerTemp < 32 {
		movesPerTemp = 32
	}
	rlim := float64(s.f.N)

	// Initial temperature: 20 × the standard deviation of the cost of
	// n random moves (VPR).
	t := s.initialTemperature(n)

	for {
		wirePrev := math.Max(s.wireTotal, 1e-9)
		timingPrev := math.Max(s.timingTotal, 1e-9)
		accepted := 0
		for m := 0; m < movesPerTemp; m++ {
			if m%ctxCheckStride == 0 && s.ctx != nil && s.ctx.Err() != nil {
				return s.ctx.Err()
			}
			if s.tryMove(t, rlim, wirePrev, timingPrev) {
				accepted++
			}
		}
		raccept := float64(accepted) / float64(movesPerTemp)
		// VPR's temperature update keeps the acceptance rate near 0.44.
		switch {
		case raccept > 0.96:
			t *= 0.5
		case raccept > 0.8:
			t *= 0.9
		case raccept > 0.15 && rlim > 1.01:
			t *= 0.95
		default:
			t *= 0.8
		}
		rlim *= 1 - 0.44 + raccept
		if rlim < 1 {
			rlim = 1
		}
		if rlim > float64(s.f.N) {
			rlim = float64(s.f.N)
		}
		if err := s.refreshTiming(); err != nil {
			return err
		}
		s.refreshWire()
		// Exit criterion: VPR stops when T drops below a small fraction
		// of the cost per net; with normalized deltas (each move's ΔC
		// is a fraction of total cost) the equivalent scale is 1/nets.
		if t < 0.005/float64(s.nl.NumNets()+1) {
			break
		}
	}
	return nil
}

// initialTemperature probes n random moves and returns 20σ of their
// cost deltas.
func (s *state) initialTemperature(n int) float64 {
	wirePrev := math.Max(s.wireTotal, 1e-9)
	timingPrev := math.Max(s.timingTotal, 1e-9)
	var sum, sumSq float64
	count := 0
	for i := 0; i < n; i++ {
		d, ok := s.probeMove(float64(s.f.N), wirePrev, timingPrev)
		if !ok {
			continue
		}
		sum += d
		sumSq += float64(d * d)
		count++
	}
	if count < 2 {
		return 1
	}
	mean := sum / float64(count)
	variance := sumSq/float64(count) - float64(mean*mean)
	if variance < 0 {
		variance = 0
	}
	return 20 * math.Sqrt(variance)
}

// probeMove evaluates a random move's delta without committing it.
func (s *state) probeMove(rlim float64, wirePrev, timingPrev float64) (float64, bool) {
	mv, ok := s.pickMove(rlim)
	if !ok {
		return 0, false
	}
	s.affected(mv)
	return s.moveDelta(mv, wirePrev, timingPrev), true
}

// move is a proposed relocation: cell a moves to slot to; if cell b is
// present there, it swaps into a's slot.
type move struct {
	a    netlist.CellID
	b    netlist.CellID // None when the target has spare capacity
	from arch.Loc
	to   arch.Loc
}

// pickMove selects a random cell and a random in-range, type-compatible
// target slot.
func (s *state) pickMove(rlim float64) (move, bool) {
	var id netlist.CellID
	isLUT := true
	total := len(s.luts) + len(s.pads)
	if s.rng.Intn(total) < len(s.luts) {
		id = s.luts[s.rng.Intn(len(s.luts))]
	} else {
		id = s.pads[s.rng.Intn(len(s.pads))]
		isLUT = false
	}
	from := s.pl.Loc(id)
	r := int(rlim)
	if r < 1 {
		r = 1
	}
	var to arch.Loc
	if isLUT {
		// Random logic slot within the range window.
		for try := 0; try < 8; try++ {
			dx := s.rng.Intn(2*r+1) - r
			dy := s.rng.Intn(2*r+1) - r
			to = arch.Loc{X: from.X + int16(dx), Y: from.Y + int16(dy)}
			if s.f.IsLogic(to) && to != from {
				break
			}
			to = from
		}
		if to == from {
			return move{}, false
		}
	} else {
		to = s.ioSlots[s.rng.Intn(len(s.ioSlots))]
		if to == from {
			return move{}, false
		}
	}
	m := move{a: id, b: netlist.None, from: from, to: to}
	// Occupancy at the target: swap with a random resident if full.
	res := s.pl.At(to)
	if len(res) >= s.f.Capacity(to) && len(res) > 0 {
		m.b = res[s.rng.Intn(len(res))]
	}
	return m, true
}

// locOf returns id's location once the move is made.
func (m *move) locOf(loc []arch.Loc, id netlist.CellID) arch.Loc {
	switch id {
	case m.a:
		return m.to
	case m.b:
		return m.from
	}
	return loc[id]
}

// moveDelta computes the normalized cost delta of a move whose nets
// and edges affected has collected: λ·ΔT/Tprev + (1-λ)·ΔW/Wprev. It
// leaves each net's and edge's post-move cost in netNew and edgeNew
// for the commit. Both are priced by the expressions refreshWire and
// refreshTiming use (wire.NetCost's q·HPWL, crit·WireDelay), so a
// committed cost is bit-equal to a recomputed one.
func (s *state) moveDelta(m move, wirePrev, timingPrev float64) float64 {
	loc := s.pl.Locs()
	// Wire delta over the union of affected nets.
	s.netNew = s.netNew[:0]
	dWire := 0.0
	for _, id := range s.nets {
		net := s.nl.Net(id)
		l := m.locOf(loc, net.Driver)
		b := wire.BBox{Xmin: l.X, Xmax: l.X, Ymin: l.Y, Ymax: l.Y}
		for _, p := range net.Sinks {
			b = b.Expand(m.locOf(loc, p.Cell))
		}
		c := float64(wire.Q(1+len(net.Sinks)) * float64(b.HalfPerim()))
		s.netNew = append(s.netNew, c)
		dWire += c - s.netCost[id]
	}
	// Timing delta over edges touching the moved cells.
	dTiming := 0.0
	if s.opt.Lambda > 0 {
		s.edgeNew = s.edgeNew[:0]
		for _, e := range s.edges {
			d := s.opt.Delay.WireDelay(arch.Dist(m.locOf(loc, e.u), m.locOf(loc, e.v)))
			c := float64(s.crit[e.v] * d)
			s.edgeNew = append(s.edgeNew, c)
			dTiming += c - s.edgeCost[e.slot]
		}
	}
	return s.opt.Lambda*dTiming/timingPrev + (1-s.opt.Lambda)*dWire/wirePrev
}

// tryMove proposes, evaluates, and (per Metropolis) commits one move.
func (s *state) tryMove(t, rlim, wirePrev, timingPrev float64) bool {
	m, ok := s.pickMove(rlim)
	if !ok {
		return false
	}
	s.affected(m)
	delta := s.moveDelta(m, wirePrev, timingPrev)
	if delta > 0 {
		if t <= 0 {
			return false
		}
		if s.rng.Float64() >= math.Exp(-delta/t) {
			return false
		}
	}
	// Commit: update placement, and apply the costs moveDelta priced.
	s.pl.Place(m.a, m.to)
	if m.b != netlist.None {
		s.pl.Place(m.b, m.from)
	}
	for i, net := range s.nets {
		c := s.netNew[i]
		s.wireTotal += c - s.netCost[net]
		s.netCost[net] = c
	}
	if s.opt.Lambda > 0 {
		for i, e := range s.edges {
			c := s.edgeNew[i]
			s.timingTotal += c - s.edgeCost[e.slot]
			s.edgeCost[e.slot] = c
		}
	}
	return true
}

// affected fills s.nets with the nets whose bounding box the move can
// change and, when timing is weighted, s.edges with the timing edges
// whose wire delay it can change. Both keep first-occurrence order —
// a's nets or edges before b's — since it fixes the order the deltas
// are summed in.
func (s *state) affected(m move) {
	s.nets = s.nets[:0]
	s.addCellNets(m.a)
	if m.b != netlist.None {
		s.addCellNets(m.b)
	}
	if s.opt.Lambda <= 0 {
		return
	}
	s.edges = s.edges[:0]
	if s.edgeStamp == math.MaxUint32 {
		clear(s.edgeSeen)
		s.edgeStamp = 0
	}
	s.edgeStamp++
	s.addCellEdges(m.a)
	if m.b != netlist.None {
		s.addCellEdges(m.b)
	}
}

// addCellNets adds the cell's output net and then its fanin nets.
func (s *state) addCellNets(id netlist.CellID) {
	c := s.nl.Cell(id)
	if c.Out != netlist.None {
		s.addNet(c.Out)
	}
	for _, net := range c.Fanin {
		if net != netlist.None {
			s.addNet(net)
		}
	}
}

func (s *state) addNet(net netlist.NetID) {
	if !slices.Contains(s.nets, net) {
		s.nets = append(s.nets, net)
	}
}

// addCellEdges adds the cell's fanin edges and then its fanout edges.
func (s *state) addCellEdges(id netlist.CellID) {
	c := s.nl.Cell(id)
	for k, net := range c.Fanin {
		if net != netlist.None {
			s.addEdge(s.nl.Net(net).Driver, id, s.slot(id, k))
		}
	}
	if c.Out != netlist.None {
		for _, p := range s.nl.Net(c.Out).Sinks {
			s.addEdge(id, p.Cell, s.slot(p.Cell, int(p.Input)))
		}
	}
}

func (s *state) addEdge(u, v netlist.CellID, slot int32) {
	if s.edgeSeen[slot] == s.edgeStamp {
		return
	}
	s.edgeSeen[slot] = s.edgeStamp
	s.edges = append(s.edges, edge{u, v, slot})
}
