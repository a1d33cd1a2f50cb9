// Package timing performs static timing analysis (STA) over a placed
// netlist under the linear placement-level delay model of Section II-B,
// and derives the structures the replication engine consumes: the
// critical path, the slowest-paths tree (SPT), its ε-restriction
// (ε-SPT, Section III), path-monotonicity statistics, and lower bounds
// on the achievable clock period.
//
// Conventions: Arr[c] is the signal arrival time at the *output* of
// cell c. Timing sources (input pads and registered LUTs) have
// Arr = 0. A connection (u, v) contributes delay
// WireDelay(dist(u,v)) + intrinsic(v). Paths end at timing sinks
// (output pads and the inputs of registered LUTs); SinkArr[c] is the
// path arrival there, including the sink's intrinsic delay. The clock
// period is the maximum SinkArr.
package timing

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/arch"
	"repro/internal/netlist"
)

// Analysis is the result of one STA pass.
type Analysis struct {
	// Arr is the arrival time at each cell's output (0 for sources).
	Arr []float64
	// SinkArr is the path arrival time at each timing sink (math.Inf(-1)
	// for non-sinks).
	SinkArr []float64
	// Through is the delay of the slowest source-to-sink path passing
	// through each cell.
	Through []float64
	// Down is the worst-case delay from each cell's output to any path
	// end (math.Inf(-1) if the cell reaches no sink combinationally).
	Down []float64
	// Period is the clock period: the maximum SinkArr.
	Period float64
	// CritSink is the sink realizing Period.
	CritSink netlist.CellID
	// SecondArr is the worst sink arrival excluding CritSink
	// (math.Inf(-1) when no other sink exists). The engine's selection
	// bound needs it, and folding it into the period reduction gets it
	// for free.
	SecondArr float64
	// SecondSink is the sink realizing SecondArr.
	SecondSink netlist.CellID
	// Order is the combinational topological order used.
	Order []netlist.CellID
}

// Intrinsic returns the intrinsic delay the model assigns to cell c.
func Intrinsic(dm arch.DelayModel, c *netlist.Cell) float64 {
	switch c.Kind {
	case netlist.LUT:
		return dm.LUTDelay
	default:
		return dm.IODelay
	}
}

// EdgeDelay returns the delay of connection (u, v) under placement pl:
// wire delay over the Manhattan distance plus v's intrinsic delay.
func EdgeDelay(nl *netlist.Netlist, pl Locator, dm arch.DelayModel, u, v netlist.CellID) float64 {
	return dm.WireDelay(arch.Dist(pl.Loc(u), pl.Loc(v))) + Intrinsic(dm, nl.Cell(v))
}

// Locator provides cell locations. It is the subset of
// placement.Placement the analyzer needs; the interface keeps this
// package decoupled and lets tests supply synthetic placements.
type Locator interface {
	Loc(netlist.CellID) arch.Loc
}

// WireDelayFunc gives the wire delay of the connection from cell u to
// cell v. Placement-level analysis uses Manhattan distance; post-route
// analysis substitutes actual routed path lengths.
type WireDelayFunc func(u, v netlist.CellID) float64

// ManhattanWire is the placement-level wire delay function.
func ManhattanWire(pl Locator, dm arch.DelayModel) WireDelayFunc {
	return func(u, v netlist.CellID) float64 {
		return dm.WireDelay(arch.Dist(pl.Loc(u), pl.Loc(v)))
	}
}

// Analyze runs a full STA pass using Manhattan wire delays, with the
// default worker count (GOMAXPROCS). Results are independent of the
// worker count.
func Analyze(nl *netlist.Netlist, pl Locator, dm arch.DelayModel) (*Analysis, error) {
	return AnalyzeWorkers(nl, pl, dm, runtime.GOMAXPROCS(0))
}

// AnalyzeWorkers runs a full STA pass using Manhattan wire delays on
// the given number of workers; 1 selects the exact serial path. The
// parallel path levelizes the netlist and fans each level's arrival
// (and, backward, required-time) computations out across goroutines;
// it produces bit-identical results to the serial path because each
// cell's values depend only on earlier (respectively later) levels.
func AnalyzeWorkers(nl *netlist.Netlist, pl Locator, dm arch.DelayModel, workers int) (*Analysis, error) {
	return AnalyzeCustomWorkers(nl, ManhattanWire(pl, dm), dm, workers)
}

// AnalyzeWorkersCtx is AnalyzeWorkers with cooperative cancellation:
// the pass checks ctx between levels (and periodically on the serial
// path) and returns ctx.Err() once the context is done, so a cancelled
// job stops paying for STA over a large netlist.
func AnalyzeWorkersCtx(ctx context.Context, nl *netlist.Netlist, pl Locator, dm arch.DelayModel, workers int) (*Analysis, error) {
	return AnalyzeCustomWorkersCtx(ctx, nl, ManhattanWire(pl, dm), dm, workers)
}

// AnalyzeCustom runs a full STA pass with an arbitrary per-connection
// wire delay function, serially.
func AnalyzeCustom(nl *netlist.Netlist, wireOf WireDelayFunc, dm arch.DelayModel) (*Analysis, error) {
	return AnalyzeCustomWorkers(nl, wireOf, dm, 1)
}

// minParallelCells gates the levelized parallel path: below this size
// the per-level goroutine fan-out costs more than the work it splits.
const minParallelCells = 2048

// minParallelLevel is the smallest level that is worth fanning out.
const minParallelLevel = 256

// AnalyzeCustomWorkers runs a full STA pass with an arbitrary
// per-connection wire delay function on the given number of workers.
// wireOf must be safe for concurrent calls when workers > 1.
func AnalyzeCustomWorkers(nl *netlist.Netlist, wireOf WireDelayFunc, dm arch.DelayModel, workers int) (*Analysis, error) {
	return AnalyzeCustomWorkersCtx(context.Background(), nl, wireOf, dm, workers)
}

// ctxCheckStride is how many serial per-cell steps run between
// cancellation checks; ctx.Err can take a lock, so the check is
// amortized over a stride that still reacts within microseconds of
// work.
const ctxCheckStride = 4096

// AnalyzeCustomWorkersCtx is AnalyzeCustomWorkers under a context.
// Cancellation is cooperative and coarse-grained — between levelized
// passes and every ctxCheckStride cells on the serial path — which
// bounds the overhang to a fraction of one pass. A cancelled analysis
// returns (nil, ctx.Err()) and never a partial Analysis.
func AnalyzeCustomWorkersCtx(ctx context.Context, nl *netlist.Netlist, wireOf WireDelayFunc, dm arch.DelayModel, workers int) (*Analysis, error) {
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}
	a := &Analysis{
		Arr:     make([]float64, nl.Cap()),
		SinkArr: make([]float64, nl.Cap()),
		Through: make([]float64, nl.Cap()),
		Down:    make([]float64, nl.Cap()),
		Order:   order,
		Period:  math.Inf(-1),
	}
	for i := range a.SinkArr {
		a.SinkArr[i] = math.Inf(-1)
	}
	for i := range a.Down {
		a.Down[i] = math.Inf(-1)
	}
	for i := range a.Through {
		a.Through[i] = math.Inf(-1)
	}

	// The serial and levelized paths run the same per-cell kernels, so
	// they evaluate the same float expressions in the same order and
	// agree bit for bit.
	p := &pass{nl: nl, wireOf: wireOf, dm: dm, a: a}

	var regs []netlist.CellID
	for _, id := range order {
		if c := nl.Cell(id); c.IsSource() && c.IsSink() {
			regs = append(regs, id)
		}
	}

	if workers <= 1 || len(order) < minParallelCells {
		for i, id := range order {
			if i%ctxCheckStride == 0 && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			p.forward(id)
		}
		for _, id := range regs {
			p.regArr(id)
		}
		for i := len(order) - 1; i >= 0; i-- {
			if i%ctxCheckStride == 0 && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			p.backward(order[i])
		}
	} else {
		// Levelized parallel passes: all cells of one level depend
		// only on cells of strictly earlier levels (later levels, for
		// the backward pass), so each level fans out across workers.
		// Cancellation is checked between levels: a level's workers
		// always run to completion, so no goroutine outlives the call.
		levels := levelize(nl, order)
		for _, lv := range levels {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			runLevel(lv, workers, p.forward)
		}
		runLevel(regs, workers, p.regArr)
		for i := len(levels) - 1; i >= 0; i-- {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			runLevel(levels[i], workers, p.backward)
		}
	}

	a.reducePeriod(order)
	if math.IsInf(a.Period, -1) {
		return nil, fmt.Errorf("timing: netlist %s has no timing sinks", nl.Name)
	}
	if assertEnabled {
		assertArrivalMonotone(nl, wireOf, dm, a)
	}
	return a, nil
}

// pass bundles the inputs of one STA evaluation. Its methods are the
// per-cell kernels the serial and levelized paths share: each computes
// its cell's outputs with a fixed float expression order from values
// of earlier (forward) or later (backward) cells only, which is what
// lets a level's cells run concurrently with bit-identical results.
type pass struct {
	nl     *netlist.Netlist
	wireOf WireDelayFunc
	dm     arch.DelayModel
	a      *Analysis
}

// worstInput returns the worst arrival over the cell's fanin
// connections and whether any fanin exists.
func (p *pass) worstInput(id netlist.CellID) (float64, bool) {
	c := p.nl.Cell(id)
	worstIn := math.Inf(-1)
	haveIn := false
	for _, net := range c.Fanin {
		if net == netlist.None {
			continue
		}
		u := p.nl.Net(net).Driver
		t := p.a.Arr[u] + p.wireOf(u, id)
		if t > worstIn {
			worstIn = t
		}
		haveIn = true
	}
	return worstIn, haveIn
}

// forward computes one cell's output arrival and, for purely
// combinational sinks, its path arrival. Registered LUTs are both
// source and sink: their output arrival is 0, but their *input*
// arrival depends on drivers that the topological order does not
// place before them (edges into timing sources do not constrain it),
// so it is deferred to regArr, after every Arr is final.
func (p *pass) forward(id netlist.CellID) {
	c := p.nl.Cell(id)
	if c.IsSource() {
		p.a.Arr[id] = 0
		return
	}
	worstIn, haveIn := p.worstInput(id)
	if c.IsSink() {
		if haveIn {
			p.a.SinkArr[id] = worstIn + Intrinsic(p.dm, c)
		} else {
			p.a.SinkArr[id] = math.Inf(-1)
		}
	}
	if c.Kind == netlist.LUT {
		if haveIn {
			p.a.Arr[id] = worstIn + p.dm.LUTDelay
		} else {
			p.a.Arr[id] = 0 // floating LUT: treat as constant source
		}
	}
}

// regArr finishes a registered sink once all arrivals are final.
func (p *pass) regArr(id netlist.CellID) {
	c := p.nl.Cell(id)
	worstIn, haveIn := p.worstInput(id)
	if haveIn {
		p.a.SinkArr[id] = worstIn + Intrinsic(p.dm, c)
	} else {
		p.a.SinkArr[id] = math.Inf(-1)
	}
}

// backward computes one cell's worst downstream delay and Through.
// A registered LUT lies on two kinds of paths — those ending at
// its input (SinkArr) and those starting at its output (Arr +
// downstream) — so Through takes the maximum of both.
func (p *pass) backward(id netlist.CellID) {
	c := p.nl.Cell(id)
	down := math.Inf(-1)
	if c.Out != netlist.None {
		for _, pn := range p.nl.Net(c.Out).Sinks {
			v := pn.Cell
			vc := p.nl.Cell(v)
			wire := p.wireOf(id, v)
			var tail float64
			if vc.IsSink() {
				tail = wire + Intrinsic(p.dm, vc)
			} else if !math.IsInf(p.a.Down[v], -1) {
				tail = wire + p.dm.LUTDelay + p.a.Down[v]
			} else {
				continue // v reaches no sink
			}
			if tail > down {
				down = tail
			}
		}
	}
	p.a.Down[id] = down
	th := math.Inf(-1)
	if c.IsSink() && !math.IsInf(p.a.SinkArr[id], -1) {
		th = p.a.SinkArr[id]
	}
	if !math.IsInf(down, -1) {
		if t := p.a.Arr[id] + down; t > th {
			th = t
		}
	}
	p.a.Through[id] = th
}

// reducePeriod recomputes Period/CritSink and the runner-up
// SecondArr/SecondSink by scanning sink arrivals over ids in
// topological order (first sink to strictly exceed the running maximum
// wins), so serial and parallel passes agree on tie-breaking.
// Non-sinks carry SinkArr = -Inf and are skipped.
func (a *Analysis) reducePeriod(ids []netlist.CellID) {
	a.Period = math.Inf(-1)
	a.CritSink = 0
	a.SecondArr = math.Inf(-1)
	a.SecondSink = 0
	for _, id := range ids {
		t := a.SinkArr[id]
		if math.IsInf(t, -1) {
			continue
		}
		if t > a.Period {
			a.SecondArr = a.Period
			a.SecondSink = a.CritSink
			a.Period = t
			a.CritSink = id
		} else if t > a.SecondArr {
			a.SecondArr = t
			a.SecondSink = id
		}
	}
}

// levelize buckets the live cells by combinational depth: sources at
// level 0, every other cell one past its deepest fanin driver. Within
// a level cells keep their topological order, so chunked reductions
// stay deterministic.
func levelize(nl *netlist.Netlist, order []netlist.CellID) [][]netlist.CellID {
	lvl := make([]int32, nl.Cap())
	maxl := int32(0)
	for _, id := range order {
		c := nl.Cell(id)
		if c.IsSource() {
			continue // level 0
		}
		l := int32(0)
		for _, net := range c.Fanin {
			if net == netlist.None {
				continue
			}
			u := nl.Net(net).Driver
			if lvl[u]+1 > l {
				l = lvl[u] + 1
			}
		}
		lvl[id] = l
		if l > maxl {
			maxl = l
		}
	}
	levels := make([][]netlist.CellID, maxl+1)
	for _, id := range order {
		levels[lvl[id]] = append(levels[lvl[id]], id)
	}
	return levels
}

// runLevel applies fn to every cell of one level, fanning out across
// workers when the level is wide enough to amortize the goroutines.
func runLevel(cells []netlist.CellID, workers int, fn func(netlist.CellID)) {
	if workers <= 1 || len(cells) < minParallelLevel {
		for _, id := range cells {
			fn(id)
		}
		return
	}
	chunk := (len(cells) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(cells); lo += chunk {
		hi := lo + chunk
		if hi > len(cells) {
			hi = len(cells)
		}
		wg.Add(1)
		go func(span []netlist.CellID) {
			defer wg.Done()
			for _, id := range span {
				fn(id)
			}
		}(cells[lo:hi])
	}
	wg.Wait()
}

// Slack returns Period minus the slowest path through cell id; cells on
// the critical path have zero slack.
func (a *Analysis) Slack(id netlist.CellID) float64 { return a.Period - a.Through[id] }

// CriticalPath returns the cells of the slowest path in signal-flow
// order, from a timing source to the critical sink.
func (a *Analysis) CriticalPath(nl *netlist.Netlist, pl Locator, dm arch.DelayModel) []netlist.CellID {
	var rev []netlist.CellID
	cur := a.CritSink
	rev = append(rev, cur)
	// Walk backward, at each step picking the fanin whose arrival plus
	// wire delay realizes the node's input arrival.
	for {
		c := nl.Cell(cur)
		bestU := netlist.CellID(netlist.None)
		bestT := math.Inf(-1)
		for _, net := range c.Fanin {
			if net == netlist.None {
				continue
			}
			u := nl.Net(net).Driver
			t := a.Arr[u] + dm.WireDelay(arch.Dist(pl.Loc(u), pl.Loc(cur)))
			if t > bestT {
				bestT = t
				bestU = u
			}
		}
		if bestU == netlist.None {
			break
		}
		rev = append(rev, bestU)
		if nl.Cell(bestU).IsSource() {
			break
		}
		cur = bestU
	}
	// Reverse into signal-flow order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// PathMonotone reports whether the placed path visits cells in
// non-detouring order: the total wire length equals the source-to-sink
// distance.
func PathMonotone(pl Locator, path []netlist.CellID) bool {
	if len(path) < 2 {
		return true
	}
	total := 0
	for i := 1; i < len(path); i++ {
		total += arch.Dist(pl.Loc(path[i-1]), pl.Loc(path[i]))
	}
	return total == arch.Dist(pl.Loc(path[0]), pl.Loc(path[len(path)-1]))
}

// LocallyMonotone reports whether every length-3 window of the path is
// monotone — the weaker property exploited by the local replication
// baseline and shown insufficient in Fig. 3 of the paper.
func LocallyMonotone(pl Locator, path []netlist.CellID) bool {
	for i := 2; i < len(path); i++ {
		a, b, c := pl.Loc(path[i-2]), pl.Loc(path[i-1]), pl.Loc(path[i])
		if arch.Dist(a, c) < arch.Dist(a, b)+arch.Dist(b, c) {
			return false
		}
	}
	return true
}

// LowerBound computes a lower bound on the achievable arrival time at
// the given sink assuming only the sink and the timing sources stay
// fixed: for every source s in the sink's fanin cone, any s-to-sink
// path must cover at least the source-sink Manhattan distance in wire
// and pass through at least the minimum logic depth in LUTs
// (Section II-C: "limited by distance between PIs and POs and number of
// logic blocks in between").
func LowerBound(nl *netlist.Netlist, pl Locator, dm arch.DelayModel, sink netlist.CellID) float64 {
	depth := minLogicDepth(nl, sink)
	sc := nl.Cell(sink)
	bound := 0.0
	// Sorted cone iteration: max over the cone is order-independent
	// mathematically, but every ordered reduction runs on a sorted
	// sequence, so no result can depend on map order.
	cone := make([]netlist.CellID, 0, len(depth))
	for u := range depth {
		cone = append(cone, u)
	}
	sort.Slice(cone, func(i, j int) bool { return cone[i] < cone[j] })
	for _, u := range cone {
		d := depth[u]
		uc := nl.Cell(u)
		if !uc.IsSource() && uc.Kind != netlist.IPad {
			continue
		}
		lb := dm.WireDelay(arch.Dist(pl.Loc(u), pl.Loc(sink))) +
			float64(d)*dm.LUTDelay + Intrinsic(dm, sc)
		if lb > bound {
			bound = lb
		}
	}
	return bound
}

// minLogicDepth returns, for each cell in the sink's fanin cone, the
// minimum number of (non-registered) LUTs on any path from that cell's
// output to the sink's input.
func minLogicDepth(nl *netlist.Netlist, sink netlist.CellID) map[netlist.CellID]int {
	depth := map[netlist.CellID]int{sink: 0}
	// BFS over reversed edges; because all LUT weights are equal we
	// can process in waves of equal depth (0-1 BFS is unnecessary: the
	// only zero-weight hop is the final edge into the sink, folded in
	// below).
	queue := []netlist.CellID{sink}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		vc := nl.Cell(v)
		if vc.IsSource() && v != sink {
			continue
		}
		// Cost of passing through v on the way to the sink: v itself
		// is a LUT stage unless v is the sink (whose intrinsic is
		// accounted separately).
		stage := 0
		if v != sink && vc.Kind == netlist.LUT {
			stage = 1
		}
		for _, net := range vc.Fanin {
			if net == netlist.None {
				continue
			}
			u := nl.Net(net).Driver
			d := depth[v] + stage
			if old, seen := depth[u]; !seen || d < old {
				depth[u] = d
				queue = append(queue, u)
			}
		}
	}
	return depth
}
