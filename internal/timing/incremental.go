package timing

import (
	"context"
	"math"

	"repro/internal/arch"
	"repro/internal/netlist"
)

// PlacedLocator extends Locator with placement membership, letting the
// incremental engine snapshot locations without panicking on cells the
// engine has not placed yet.
type PlacedLocator interface {
	Locator
	Placed(netlist.CellID) bool
}

// IncrementalStats counts what the incremental analyzer actually did;
// the engine surfaces them through core.Stats and the service layer.
type IncrementalStats struct {
	// Updates counts incremental (dirty-region) analyses applied.
	Updates int
	// FullRuns counts from-scratch analyses: the first pass, passes
	// after Invalidate, and threshold fallbacks.
	FullRuns int
	// Fallbacks counts full runs forced by the dirty frontier
	// exceeding MaxDirtyFrac.
	Fallbacks int
	// Seeds is the cumulative number of dirty seed cells across
	// incremental updates.
	Seeds int
	// CellsForward / CellsBackward are the cumulative cells
	// re-propagated by each pass direction.
	CellsForward  int
	CellsBackward int
	// MaxDirty is the largest single-update dirty cone (forward +
	// backward cells re-propagated).
	MaxDirty int
}

// defaultMaxDirtyFrac bounds the dirty frontier at a quarter of the
// live cells before an update falls back to the full analyzer: past
// that point the worklist bookkeeping costs more than the levelized
// full pass it avoids.
const defaultMaxDirtyFrac = 0.25

// Incremental is a dirty-region STA engine. Analyze behaves exactly
// like AnalyzeWorkersCtx — the returned Analysis is Float64bits-
// identical to a from-scratch pass over the same netlist and placement
// — but after the first call it re-propagates arrivals and downstream
// delays only through the cones affected by cells that moved, were
// rewired, created, or deleted since the previous call.
//
// Change detection is by diffing against a snapshot of the previous
// state (locations, liveness, fanin nets) rather than by trusting
// callers to report mutations: the engine restores whole netlist
// clones on drift-discard and best-restore, and a diff is immune to a
// forgotten notification. Exactness comes from three properties: the
// per-cell kernels are shared with the full pass (same float
// expression order), propagation stops only when a recomputed value is
// bitwise-unchanged (so anything downstream of a truly changed value
// is recomputed), and ordered reductions (Period/CritSink tie-breaks)
// re-run over the same topological sequence the full pass uses.
//
// Incremental is not safe for concurrent use; the engine owns one.
type Incremental struct {
	dm      arch.DelayModel
	workers int
	// MaxDirtyFrac is the dirty-frontier fallback threshold as a
	// fraction of live cells; 0 selects defaultMaxDirtyFrac.
	MaxDirtyFrac float64

	a *Analysis

	// Structure caches, rebuilt on any structural change. They are
	// generation-guarded: downstream consumers (the SPT cache) trust
	// them only while structGen is current, so every mutation must be
	// followed by a structGen advance before returning.
	lvl    []int32
	levels [][]netlist.CellID
	sinks  []netlist.CellID
	live   int

	// Snapshots of the last analyzed state, diffed on each call.
	alive     []bool
	placed    []bool
	locs      []arch.Loc
	faninOff  []int32
	faninFlat []netlist.NetID

	// Generation tracking for downstream caches (the SPT cache derives
	// its patch seeds from these). gen advances on every Analyze;
	// structGen records the last structural change or full run.
	gen        uint64
	structGen  uint64
	changedGen []uint64 // gen when Arr or SinkArr last changed bits
	movedGen   []uint64 // gen when the cell's location last changed

	// Worklist scratch, epoch-stamped so updates never clear arrays.
	stampF   []uint64
	stampB   []uint64
	stampReg []uint64
	buckets  [][]netlist.CellID
	seedB    []netlist.CellID
	regSet   []netlist.CellID

	lastFull bool

	Stats IncrementalStats
}

// NewIncremental returns an incremental analyzer for the given delay
// model; workers bounds the levelized fan-out of full (fallback)
// passes, exactly as in AnalyzeWorkers.
func NewIncremental(dm arch.DelayModel, workers int) *Incremental {
	return &Incremental{dm: dm, workers: workers}
}

// Gen returns the current analysis generation; it advances on every
// Analyze call.
func (inc *Incremental) Gen() uint64 { return inc.gen }

// StructGen returns the generation of the last structural change
// (cells born/died/rewired) or full recompute. Caches keyed on
// structure must rebuild when this passes their build generation.
func (inc *Incremental) StructGen() uint64 { return inc.structGen }

// ArrChangedSince reports whether cell id's Arr or SinkArr changed
// bits strictly after generation g.
func (inc *Incremental) ArrChangedSince(id netlist.CellID, g uint64) bool {
	return int(id) < len(inc.changedGen) && inc.changedGen[id] > g
}

// MovedSince reports whether cell id's location changed strictly after
// generation g.
func (inc *Incremental) MovedSince(id netlist.CellID, g uint64) bool {
	return int(id) < len(inc.movedGen) && inc.movedGen[id] > g
}

// LastFull reports whether the most recent Analyze took the full
// (from-scratch) path.
func (inc *Incremental) LastFull() bool { return inc.lastFull }

// Invalidate drops all incremental state; the next Analyze runs the
// full analyzer. It is cheap and safe to call at any time.
func (inc *Incremental) Invalidate() {
	inc.a = nil
}

// maxDirty returns the dirty-cell budget for one update.
func (inc *Incremental) maxDirty() int {
	frac := inc.MaxDirtyFrac
	if frac <= 0 {
		frac = defaultMaxDirtyFrac
	}
	return int(frac * float64(inc.live))
}

// Analyze returns the timing analysis of (nl, pl), reusing the
// previous call's results where the diff proves them still valid. The
// returned Analysis aliases the analyzer's internal state: it is valid
// until the next Analyze or Invalidate call.
func (inc *Incremental) Analyze(ctx context.Context, nl *netlist.Netlist, pl PlacedLocator) (*Analysis, error) {
	inc.gen++
	if inc.a == nil || nl.Cap() < len(inc.alive) {
		// First run, post-Invalidate, or the netlist shrank (the engine
		// restored an older clone with a smaller cell table — rare, and
		// the analysis arrays must match nl.Cap() exactly).
		return inc.full(ctx, nl, pl)
	}
	d, err := inc.diff(nl, pl)
	if err != nil {
		return nil, err
	}
	if len(d.seedF)+len(d.seedB)+len(d.regs) > inc.maxDirty() {
		inc.Stats.Fallbacks++
		return inc.full(ctx, nl, pl)
	}
	if err := inc.propagate(ctx, nl, pl, d); err != nil {
		if err == errDirtyOverflow {
			inc.Stats.Fallbacks++
			return inc.full(ctx, nl, pl)
		}
		return nil, err
	}
	inc.a.reducePeriod(inc.sinks)
	if math.IsInf(inc.a.Period, -1) {
		inc.Invalidate()
		return nil, errNoSinks(nl)
	}
	if assertEnabled {
		// Under -tags replassert every incremental update is re-derived
		// serially and checked bitwise, same as the full pass.
		assertArrivalMonotone(nl, ManhattanWire(pl, inc.dm), inc.dm, inc.a)
	}
	inc.snapshot(nl, pl)
	inc.lastFull = false
	inc.Stats.Updates++
	inc.Stats.Seeds += len(d.seedF) + len(d.seedB) + len(d.regs)
	return inc.a, nil
}

// full runs the from-scratch analyzer and rebuilds every cache and
// snapshot from its result.
func (inc *Incremental) full(ctx context.Context, nl *netlist.Netlist, pl PlacedLocator) (*Analysis, error) {
	a, err := AnalyzeWorkersCtx(ctx, nl, pl, inc.dm, inc.workers)
	if err != nil {
		inc.Invalidate()
		return nil, err
	}
	inc.a = a
	inc.levels, inc.lvl = levelize(nl, a.Order)
	inc.sinks = inc.sinks[:0]
	for _, id := range a.Order {
		if nl.Cell(id).IsSink() {
			inc.sinks = append(inc.sinks, id)
		}
	}
	inc.live = len(a.Order)
	inc.structGen = inc.gen
	inc.growTracking(nl.Cap())
	inc.snapshot(nl, pl)
	inc.lastFull = true
	inc.Stats.FullRuns++
	return a, nil
}

// growTracking sizes the per-cell generation arrays.
func (inc *Incremental) growTracking(n int) {
	for len(inc.changedGen) < n {
		inc.changedGen = append(inc.changedGen, 0)
	}
	for len(inc.movedGen) < n {
		inc.movedGen = append(inc.movedGen, 0)
	}
}

// snapshot records the state Analyze just analyzed, for the next diff.
func (inc *Incremental) snapshot(nl *netlist.Netlist, pl PlacedLocator) {
	n := nl.Cap()
	if cap(inc.alive) < n {
		inc.alive = make([]bool, n)
		inc.placed = make([]bool, n)
		inc.locs = make([]arch.Loc, n)
		inc.faninOff = make([]int32, n+1)
	}
	inc.alive = inc.alive[:n]
	inc.placed = inc.placed[:n]
	inc.locs = inc.locs[:n]
	inc.faninOff = inc.faninOff[:n+1]
	inc.faninFlat = inc.faninFlat[:0]
	for i := 0; i < n; i++ {
		id := netlist.CellID(i)
		inc.faninOff[i] = int32(len(inc.faninFlat))
		if !nl.Alive(id) {
			inc.alive[i] = false
			inc.placed[i] = false
			continue
		}
		inc.alive[i] = true
		if pl.Placed(id) {
			inc.placed[i] = true
			inc.locs[i] = pl.Loc(id)
		} else {
			inc.placed[i] = false
		}
		inc.faninFlat = append(inc.faninFlat, nl.Cell(id).Fanin...)
	}
	inc.faninOff[n] = int32(len(inc.faninFlat))
}

// delta is one diff's seed sets.
type delta struct {
	seedF []netlist.CellID // forward kernel recompute
	seedB []netlist.CellID // backward kernel recompute
	regs  []netlist.CellID // registered-sink (regArr) recompute
}

// diff compares (nl, pl) against the snapshot of the last analyzed
// state and derives the seed sets for re-propagation. Structural
// changes (births, deaths, rewired pins) also refresh the topological
// order, levelization, and sink list — integer-only work that is cheap
// next to the float passes but required for bit-identical ordered
// reductions.
func (inc *Incremental) diff(nl *netlist.Netlist, pl PlacedLocator) (*delta, error) {
	inc.growStamps(nl.Cap())
	inc.growTracking(nl.Cap()) // born cells stamp their generations mid-scan
	d := &delta{}
	structChanged := false
	oldCap := len(inc.alive)

	// seedRegOrF routes a recompute seed to the right kernel: a
	// registered LUT's input arrival is regArr's job, everything else
	// recomputes forward.
	seedRegOrF := func(id netlist.CellID) {
		c := nl.Cell(id)
		if c.IsSource() {
			if c.IsSink() {
				d.regs = inc.push(d.regs, inc.stampReg, id)
			}
			return // IPads: Arr is constant 0
		}
		d.seedF = inc.push(d.seedF, inc.stampF, id)
	}
	seedB := func(id netlist.CellID) {
		d.seedB = inc.push(d.seedB, inc.stampB, id)
	}
	// seedFanoutOf marks every sink of id's output net: the wire delay
	// of those connections changed.
	seedFanoutOf := func(id netlist.CellID) {
		c := nl.Cell(id)
		if c.Out == netlist.None {
			return
		}
		for _, p := range nl.Net(c.Out).Sinks {
			seedRegOrF(p.Cell)
		}
	}
	// seedFaninDrivers marks the live drivers feeding id: their Down
	// depends on their outgoing edge to id.
	seedFaninDrivers := func(id netlist.CellID) {
		for _, net := range nl.Cell(id).Fanin {
			if net == netlist.None {
				continue
			}
			if u := nl.Net(net).Driver; nl.Alive(u) {
				seedB(u)
			}
		}
	}
	// seedOldDrivers is seedFaninDrivers over the snapshot's pins.
	seedOldDrivers := func(i int) {
		for _, net := range inc.faninFlat[inc.faninOff[i]:inc.faninOff[i+1]] {
			if net == netlist.None {
				continue
			}
			if !nl.NetAlive(net) {
				continue
			}
			if u := nl.Net(net).Driver; nl.Alive(u) {
				seedB(u)
			}
		}
	}

	for i := 0; i < nl.Cap(); i++ {
		id := netlist.CellID(i)
		aliveNow := nl.Alive(id)
		aliveOld := i < oldCap && inc.alive[i]
		switch {
		case !aliveNow && !aliveOld:
			continue
		case aliveNow && !aliveOld: // born
			structChanged = true
			seedRegOrF(id)
			seedB(id)
			seedFaninDrivers(id)
			seedFanoutOf(id)
			inc.changedGen[id] = inc.gen
			inc.movedGen[id] = inc.gen
			continue
		case !aliveNow && aliveOld: // died
			structChanged = true
			inc.resetCell(id)
			seedOldDrivers(i)
			inc.changedGen[id] = inc.gen
			continue
		}
		// Alive in both states: diff pins, then location.
		snap := inc.faninFlat[inc.faninOff[i]:inc.faninOff[i+1]]
		cur := nl.Cell(id).Fanin
		rewired := len(snap) != len(cur)
		if !rewired {
			for p := range cur {
				if cur[p] != snap[p] {
					rewired = true
					break
				}
			}
		}
		if rewired {
			structChanged = true
			seedRegOrF(id)
			seedB(id)
			seedOldDrivers(i)    // lost a sink: their Down shrinks
			seedFaninDrivers(id) // gained a sink: their Down grows
		}
		moved := inc.placed[i] != pl.Placed(id) ||
			(inc.placed[i] && pl.Placed(id) && inc.locs[i] != pl.Loc(id))
		if moved {
			inc.movedGen[id] = inc.gen
			seedRegOrF(id) // in-wires changed
			seedB(id)      // out-wires changed
			seedFanoutOf(id)
			seedFaninDrivers(id)
		}
	}

	if structChanged {
		order, err := nl.TopoOrder()
		if err != nil {
			inc.Invalidate()
			return nil, err
		}
		inc.a.Order = order
		inc.levels, inc.lvl = levelize(nl, order)
		inc.sinks = inc.sinks[:0]
		for _, id := range order {
			if nl.Cell(id).IsSink() {
				inc.sinks = append(inc.sinks, id)
			}
		}
		inc.live = len(order)
		inc.structGen = inc.gen
		inc.growAnalysis(nl.Cap())
		inc.growTracking(nl.Cap())
	}
	return d, nil
}

// resetCell restores a dead cell's analysis entries to the values a
// fresh full pass leaves for cells outside the order.
func (inc *Incremental) resetCell(id netlist.CellID) {
	a := inc.a
	if int(id) >= len(a.Arr) {
		return
	}
	a.Arr[id] = 0
	a.SinkArr[id] = math.Inf(-1)
	a.Down[id] = math.Inf(-1)
	a.Through[id] = math.Inf(-1)
}

// growAnalysis extends the analysis arrays to cover newly created cell
// IDs, with the same defaults a fresh pass initializes.
func (inc *Incremental) growAnalysis(n int) {
	a := inc.a
	for len(a.Arr) < n {
		a.Arr = append(a.Arr, 0)
		a.SinkArr = append(a.SinkArr, math.Inf(-1))
		a.Down = append(a.Down, math.Inf(-1))
		a.Through = append(a.Through, math.Inf(-1))
	}
}

// growStamps sizes the dedup stamps and per-level buckets.
func (inc *Incremental) growStamps(n int) {
	for len(inc.stampF) < n {
		inc.stampF = append(inc.stampF, 0)
		inc.stampB = append(inc.stampB, 0)
		inc.stampReg = append(inc.stampReg, 0)
	}
}

// push appends id to set if not already stamped this generation.
func (inc *Incremental) push(set []netlist.CellID, stamp []uint64, id netlist.CellID) []netlist.CellID {
	if stamp[id] == inc.gen {
		return set
	}
	stamp[id] = inc.gen
	return append(set, id)
}

// errDirtyOverflow aborts an update whose frontier outgrew the budget
// mid-propagation; the caller falls back to the full analyzer.
var errDirtyOverflow = errSentinel("timing: dirty frontier overflow")

type errSentinel string

func (e errSentinel) Error() string { return string(e) }

// propagate runs the levelized dirty-region passes: forward arrivals
// ascending by level, deferred registered-sink arrivals, then
// downstream delays descending by level, recomputing Through alongside.
// A cell re-enters the worklist only when a recomputed input actually
// changed bits, so the passes reach the bitwise fixpoint of the full
// recurrence restricted to the dirty cones.
func (inc *Incremental) propagate(ctx context.Context, nl *netlist.Netlist, pl PlacedLocator, d *delta) error {
	a := inc.a
	p := &pass{nl: nl, wireOf: ManhattanWire(pl, inc.dm), dm: inc.dm, a: a}
	budget := inc.maxDirty()
	dirty := 0

	// Level buckets for the forward pass.
	if len(inc.buckets) < len(inc.levels) {
		inc.buckets = append(inc.buckets, make([][]netlist.CellID, len(inc.levels)-len(inc.buckets))...)
	}
	buckets := inc.buckets[:len(inc.levels)]
	for i := range buckets {
		buckets[i] = buckets[i][:0]
	}
	for _, id := range d.seedF {
		buckets[inc.lvl[id]] = append(buckets[inc.lvl[id]], id)
	}
	inc.seedB = append(inc.seedB[:0], d.seedB...)
	inc.regSet = append(inc.regSet[:0], d.regs...)

	forwardCells := 0
	for l := 0; l < len(buckets); l++ {
		if l%4 == 0 && ctx.Err() != nil {
			inc.Invalidate() // partial writes: state is unusable
			return ctx.Err()
		}
		for n := 0; n < len(buckets[l]); n++ {
			id := buckets[l][n]
			oldArr := math.Float64bits(a.Arr[id])
			oldSink := math.Float64bits(a.SinkArr[id])
			p.forward(id)
			forwardCells++
			dirty++
			if dirty > budget {
				inc.Invalidate()
				return errDirtyOverflow
			}
			sinkChanged := math.Float64bits(a.SinkArr[id]) != oldSink
			arrChanged := math.Float64bits(a.Arr[id]) != oldArr
			if sinkChanged {
				inc.changedGen[id] = inc.gen
				// Through depends on SinkArr.
				inc.seedB = inc.push(inc.seedB, inc.stampB, id)
			}
			if !arrChanged {
				continue
			}
			inc.changedGen[id] = inc.gen
			// Through depends on Arr.
			inc.seedB = inc.push(inc.seedB, inc.stampB, id)
			c := nl.Cell(id)
			if c.Out == netlist.None {
				continue
			}
			for _, pn := range nl.Net(c.Out).Sinks {
				v := pn.Cell
				vc := nl.Cell(v)
				if vc.IsSource() {
					if vc.IsSink() {
						inc.regSet = inc.push(inc.regSet, inc.stampReg, v)
					}
					continue
				}
				if inc.stampF[v] != inc.gen {
					inc.stampF[v] = inc.gen
					buckets[inc.lvl[v]] = append(buckets[inc.lvl[v]], v)
				}
			}
		}
	}

	// Deferred registered-sink arrivals, exactly as the full pass runs
	// them after the forward sweep.
	for _, id := range inc.regSet {
		oldSink := math.Float64bits(a.SinkArr[id])
		p.regArr(id)
		if math.Float64bits(a.SinkArr[id]) != oldSink {
			inc.changedGen[id] = inc.gen
			inc.seedB = inc.push(inc.seedB, inc.stampB, id)
		}
	}

	// Backward pass: bucketize the accumulated seeds, run levels in
	// descending order, and propagate Down changes to fanin drivers.
	for i := range buckets {
		buckets[i] = buckets[i][:0]
	}
	for _, id := range inc.seedB {
		buckets[inc.lvl[id]] = append(buckets[inc.lvl[id]], id)
	}
	backwardCells := 0
	for l := len(buckets) - 1; l >= 0; l-- {
		if l%4 == 0 && ctx.Err() != nil {
			inc.Invalidate()
			return ctx.Err()
		}
		for n := 0; n < len(buckets[l]); n++ {
			id := buckets[l][n]
			oldDown := math.Float64bits(a.Down[id])
			p.backward(id)
			backwardCells++
			dirty++
			if dirty > budget {
				inc.Invalidate()
				return errDirtyOverflow
			}
			if math.Float64bits(a.Down[id]) == oldDown {
				continue
			}
			for _, net := range nl.Cell(id).Fanin {
				if net == netlist.None {
					continue
				}
				u := nl.Net(net).Driver
				if inc.stampB[u] != inc.gen {
					inc.stampB[u] = inc.gen
					buckets[inc.lvl[u]] = append(buckets[inc.lvl[u]], u)
				}
			}
		}
	}

	inc.Stats.CellsForward += forwardCells
	inc.Stats.CellsBackward += backwardCells
	if forwardCells+backwardCells > inc.Stats.MaxDirty {
		inc.Stats.MaxDirty = forwardCells + backwardCells
	}
	return nil
}

func errNoSinks(nl *netlist.Netlist) error {
	return errSentinel("timing: netlist " + nl.Name + " has no timing sinks")
}
