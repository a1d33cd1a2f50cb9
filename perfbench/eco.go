package main

import (
	"fmt"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/place"
	"repro/internal/placement"
)

// The eco workload: interactive engineering-change sessions on one
// converged design. Set-up generates, places and converges the design.
// Each operation moves one live LUT, drawn at random, to its nearest
// free slot and re-optimizes on the same (warm) engine. Within a
// session the edits accumulate and are never replayed; each session
// starts again from the converged design. The design and every
// session's edits are fixed; the workload seed orders the sessions.
// Which edits a session makes moves its cost a lot, so drawing them
// from the seed would make two seeds incomparable.
const (
	ecoCircuit  = "apex2"
	ecoScale    = 0.05
	ecoSessions = 4
	ecoEdits    = 25 // per session
	ecoReopt    = 3  // MaxIters and Patience of each re-optimization
	// ecoRoom widens the device past the minimum square, so the
	// converged design leaves free slots for the edits to move into.
	ecoRoom = 2
)

func ecoPass(m *meter, seed int64) (*passResult, error) {
	res := &passResult{counts: map[string]float64{}}
	mc, _ := circuits.ByName(ecoCircuit)
	spec := mc.Spec(ecoScale)
	spec.Seed = suiteSeed

	m.beginSetup()
	eng, conv, err := ecoSetup(m, spec, suiteSeed)
	m.endSetup()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res.setupCPU = m.setupCPU
	res.exact = append(res.exact, fmt.Sprintf("converged %s/%d it=%d period=%s",
		spec.Name, spec.Seed, conv.Iterations, fmtExact(conv.FinalPeriod)))
	eng.Config.MaxIters, eng.Config.Patience = ecoReopt, ecoReopt

	order := rand.New(rand.NewSource(seed)).Perm(ecoSessions)
	var rng *rand.Rand
	var last *core.Stats
	base := conv.Incremental
	baseNL, basePL := eng.Netlist.Clone(), eng.Placement.Clone()
	for i := 0; i < ecoSessions*ecoEdits; i++ {
		if i%ecoEdits == 0 {
			session := order[i/ecoEdits]
			rng = rand.New(rand.NewSource(suiteSeed + int64(session)))
			eng.Netlist, eng.Placement = baseNL.Clone(), basePL.Clone()
			last = conv
		}
		victim, err := pickLUT(eng, rng)
		if err != nil {
			return nil, fmt.Errorf("edit %d: %w", i+1, err)
		}
		m.beginOp(i + 1)
		pre, err := sta(m, eng.Netlist, eng.Placement)
		if err == nil {
			// The edit itself: the user moves the cell.
			home := eng.Placement.Loc(victim)
			slot := eng.Placement.NearestFreeSlots(home, 1)
			if len(slot) == 0 {
				err = fmt.Errorf("no free slot near %v", home)
			} else {
				eng.Placement.Remove(victim)
				eng.Placement.Place(victim, slot[0])
			}
		}
		var st *core.Stats
		if err == nil {
			st, err = m.engineRun(eng)
		}
		sample := m.endOp()
		if err != nil {
			return nil, fmt.Errorf("edit %d: %w", i+1, err)
		}
		if pre != last.FinalPeriod {
			return nil, fmt.Errorf("edit %d: STA period %v differs from the engine's last final period %v",
				i+1, pre, last.FinalPeriod)
		}
		if err := oracle.CheckPlaced(eng.Netlist, eng.Placement); err != nil {
			return nil, fmt.Errorf("edit %d: %w", i+1, err)
		}
		res.ops = append(res.ops, sample)
		res.ratios = append(res.ratios, st.FinalPeriod/pre)
		res.counts["core.iterations"] += float64(st.Iterations)
		res.counts["core.replicated"] += float64(st.Replicated)
		res.counts["core.unified"] += float64(st.Unified)
		res.exact = append(res.exact, fmt.Sprintf("edit %d session=%d victim=%d pre=%s final=%s it=%d repl=%d unif=%d inc=%+v",
			i+1, order[i/ecoEdits], victim, fmtExact(pre), fmtExact(st.FinalPeriod), st.Iterations, st.Replicated, st.Unified, st.Incremental))
		last = st
	}
	// The engine's incremental counters are cumulative over its
	// lifetime; the pass reports what the edits added.
	incCounts(res.counts, subInc(last.Incremental, base))
	return res, nil
}

// ecoSetup generates, places and converges the session's design.
func ecoSetup(m *meter, spec circuits.Spec, placeSeed int64) (*core.Engine, *core.Stats, error) {
	dm := arch.DefaultDelayModel()
	var nl *netlist.Netlist
	if _, err := m.call("circuits.generate", func() (err error) {
		nl, err = circuits.Generate(spec)
		return err
	}); err != nil {
		return nil, nil, err
	}
	f := arch.New(arch.MinSquare(nl.NumLUTs(), nl.NumIOs()).N + ecoRoom)
	opts := place.Defaults()
	opts.Seed, opts.Effort, opts.Delay = placeSeed, placeEffort, dm
	var pl *placement.Placement
	if _, err := m.call("place.anneal", func() (err error) {
		pl, err = place.Place(nl, f, opts)
		return err
	}); err != nil {
		return nil, nil, err
	}
	cfg := core.Default()
	cfg.Parallelism = 1
	eng := core.New(nl, pl, dm, cfg)
	st, err := m.engineRun(eng)
	if err != nil {
		return nil, nil, err
	}
	return eng, st, oracle.CheckPlaced(eng.Netlist, eng.Placement)
}

// pickLUT draws a live, placed LUT uniformly at random.
func pickLUT(eng *core.Engine, rng *rand.Rand) (netlist.CellID, error) {
	var luts []netlist.CellID
	eng.Netlist.Cells(func(c *netlist.Cell) {
		if c.Kind == netlist.LUT && eng.Placement.Placed(c.ID) {
			luts = append(luts, c.ID)
		}
	})
	if len(luts) == 0 {
		return netlist.None, fmt.Errorf("no placed LUT")
	}
	return luts[rng.Intn(len(luts))], nil
}
