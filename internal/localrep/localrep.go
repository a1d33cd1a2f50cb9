// Package localrep implements the local replication baseline of
// Beraudo and Lillis ("Timing optimization of FPGA placements by logic
// replication", DAC 2003), the algorithm the paper compares against:
// walk the current critical path, find a locally nonmonotone triple
// (v1, v2, v3) — i.e. d(v1,v3) < d(v1,v2) + d(v2,v3), traveling to v2
// creates a detour — replicate v2, let the duplicate drive the
// critical successor (fanout partitioning), place it on a monotone
// position, legalize, and keep the change only if the clock period
// improved. Candidate choice is randomized; the paper runs it three
// times and keeps the best (see BestOf).
//
// Its limitation — Fig. 3 of the paper: a globally nonmonotone path
// whose every window of three cells is locally monotone is invisible
// to this algorithm — is exactly what the replication-tree approach
// lifts.
package localrep

import (
	"math/rand"

	"repro/internal/arch"
	"repro/internal/legal"
	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/timing"
)

// Options configures a run.
type Options struct {
	// Seed drives the randomized candidate selection.
	Seed int64
}

// The original evaluation's run length: maxIters bounds
// accepted+rejected attempts, and patience stops a run after that many
// consecutive non-improvements.
const (
	maxIters int = 300
	patience int = 25
)

// Defaults mirrors the original evaluation's settings.
func Defaults() Options {
	return Options{Seed: 1}
}

// Stats reports what a run did.
type Stats struct {
	Iterations    int
	Replicated    int
	Relocated     int
	InitialPeriod float64
	FinalPeriod   float64
}

// Optimizer carries one local-replication run.
type Optimizer struct {
	Netlist   *netlist.Netlist
	Placement *placement.Placement
	Delay     arch.DelayModel
	Opt       Options

	rng *rand.Rand
	leg *legal.Legalizer
}

// New returns an optimizer over the placed design.
func New(nl *netlist.Netlist, pl *placement.Placement, dm arch.DelayModel, opt Options) *Optimizer {
	return &Optimizer{
		Netlist:   nl,
		Placement: pl,
		Delay:     dm,
		Opt:       opt,
		rng:       rand.New(rand.NewSource(opt.Seed)),
		leg:       legal.New(),
	}
}

// Run optimizes in place and returns statistics.
func (o *Optimizer) Run() (*Stats, error) {
	st := &Stats{}
	a, err := timing.Analyze(o.Netlist, o.Placement, o.Delay)
	if err != nil {
		return nil, err
	}
	st.InitialPeriod = a.Period
	best := a.Period
	dry := 0
	for iter := 0; iter < maxIters && dry < patience; iter++ {
		st.Iterations++
		improved, action, err := o.step(a, best)
		if err != nil {
			return nil, err
		}
		if improved {
			dry = 0
			switch action {
			case actReplicate:
				st.Replicated++
			case actRelocate:
				st.Relocated++
			}
		} else {
			dry++
		}
		a, err = timing.Analyze(o.Netlist, o.Placement, o.Delay)
		if err != nil {
			return nil, err
		}
		if a.Period < best {
			best = a.Period
		}
	}
	st.FinalPeriod = best
	return st, nil
}

type action int

const (
	actNone action = iota
	actReplicate
	actRelocate
)

// step attempts one randomized local replication on the critical path.
func (o *Optimizer) step(a *timing.Analysis, best float64) (bool, action, error) {
	path := a.CriticalPath(o.Netlist, o.Placement, o.Delay)
	type candidate struct {
		v1, v2, v3 netlist.CellID
	}
	var cands []candidate
	for i := 2; i < len(path); i++ {
		v1, v2, v3 := path[i-2], path[i-1], path[i]
		l1, l2, l3 := o.Placement.Loc(v1), o.Placement.Loc(v2), o.Placement.Loc(v3)
		if arch.Dist(l1, l3) >= arch.Dist(l1, l2)+arch.Dist(l2, l3) {
			continue // locally monotone: invisible to this algorithm
		}
		c := o.Netlist.Cell(v2)
		if c.Kind != netlist.LUT || c.Registered {
			continue
		}
		cands = append(cands, candidate{v1, v2, v3})
	}
	if len(cands) == 0 {
		return false, actNone, nil
	}
	cd := cands[o.rng.Intn(len(cands))]

	// Snapshot for revert.
	nlSnap := o.Netlist.Clone()
	plSnap := o.Placement.Clone()

	// Ideal spot: v2 projected into the v1-v3 bounding box (any point
	// there lies on a monotone v1→v3 route).
	l1, l2, l3 := o.Placement.Loc(cd.v1), o.Placement.Loc(cd.v2), o.Placement.Loc(cd.v3)
	ideal := arch.Loc{
		X: clamp16(l2.X, min16(l1.X, l3.X), max16(l1.X, l3.X)),
		Y: clamp16(l2.Y, min16(l1.Y, l3.Y), max16(l1.Y, l3.Y)),
	}
	if !o.Placement.FPGA().IsLogic(ideal) {
		ideal = o.Placement.FPGA().LogicSlots()[0] // degenerate; nearest-free fixes it
	}
	target, ok := o.Placement.NearestFreeLogic(ideal)
	if !ok {
		return false, actNone, nil // device full
	}

	act := actReplicate
	fanout := len(o.Netlist.Net(o.Netlist.Cell(cd.v2).Out).Sinks)
	if fanout <= 1 {
		// Single path through v2: moving it is the whole optimization.
		o.Placement.Place(cd.v2, target)
		act = actRelocate
	} else {
		// Replicate and partition: the duplicate takes the critical
		// successor's pin(s); everything else stays on the original.
		rep := o.Netlist.Replicate(cd.v2)
		o.Placement.Place(rep.ID, target)
		out := o.Netlist.Cell(cd.v2).Out
		sinks := append([]netlist.Pin(nil), o.Netlist.Net(out).Sinks...)
		for _, p := range sinks {
			if p.Cell == cd.v3 {
				o.Netlist.MoveSink(p, rep.ID)
			}
		}
	}

	// Legalize (nearest-free placement keeps this a no-op in the
	// common case, but replication can still collide under races).
	a2, err := timing.Analyze(o.Netlist, o.Placement, o.Delay)
	if err != nil {
		return false, actNone, err
	}
	if _, err := o.leg.Run(o.Netlist, o.Placement, o.Delay, a2); err != nil {
		o.Netlist, o.Placement = nlSnap, plSnap
		return false, actNone, nil
	}
	a3, err := timing.Analyze(o.Netlist, o.Placement, o.Delay)
	if err != nil {
		return false, actNone, err
	}
	if a3.Period < best-1e-9 {
		return true, act, nil
	}
	// No improvement: revert.
	o.Netlist, o.Placement = nlSnap, plSnap
	return false, actNone, nil
}

// BestOf runs the optimizer `runs` times with distinct seeds on copies
// of the design and returns the best outcome — the paper's evaluation
// protocol ("since the local replication algorithm is randomized, we
// ran it three times and took the best result").
func BestOf(nl *netlist.Netlist, pl *placement.Placement, dm arch.DelayModel, opt Options, runs int) (*netlist.Netlist, *placement.Placement, *Stats, error) {
	var bestNL *netlist.Netlist
	var bestPL *placement.Placement
	var bestSt *Stats
	for r := 0; r < runs; r++ {
		o := New(nl.Clone(), pl.Clone(), dm, Options{Seed: opt.Seed + int64(r)*7919})
		st, err := o.Run()
		if err != nil {
			return nil, nil, nil, err
		}
		if bestSt == nil || st.FinalPeriod < bestSt.FinalPeriod {
			bestNL, bestPL, bestSt = o.Netlist, o.Placement, st
		}
	}
	return bestNL, bestPL, bestSt, nil
}

func clamp16(x, lo, hi int16) int16 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func min16(a, b int16) int16 {
	if a < b {
		return a
	}
	return b
}

func max16(a, b int16) int16 {
	if a > b {
		return a
	}
	return b
}
