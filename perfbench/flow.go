package main

import (
	"fmt"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/place"
	"repro/internal/placement"
	"repro/internal/route"
	"repro/internal/timing"
)

// The flow workload: each operation takes one design through the
// paper's Fig. 10 pipeline. The designs are a fixed suite of
// bench-scale stand-ins of four Table I entries, two (circuit,
// placement seed) designs each, alternating between RT-Embedding and
// Lex-3. The workload seed orders the suite, so a pass costs the same
// on every seed and only noise separates two runs.
var flowCircuits = []string{"ex5p", "tseng", "apex2", "seq"}

const (
	flowScale   = 0.05
	flowRounds  = 2 // designs per circuit
	placeEffort = 1 // annealer effort (VPR uses 10)
)

type design struct {
	spec      circuits.Spec
	placeSeed int64
	algo      flow.Algorithm
}

// flowSuite returns the warm-up design of the set-up and the suite,
// in the order the seed gives it.
func flowSuite(seed int64) (warm design, suite []design) {
	rng := rand.New(rand.NewSource(suiteSeed))
	mk := func(name string, algo flow.Algorithm) design {
		mc, _ := circuits.ByName(name)
		spec := mc.Spec(flowScale)
		spec.Seed = 1 + rng.Int63n(1<<31)
		return design{spec: spec, placeSeed: 1 + rng.Int63n(1<<31), algo: algo}
	}
	warm = mk(flowCircuits[0], flow.RTEmbed)
	for round := 0; round < flowRounds; round++ {
		for i, name := range flowCircuits {
			algo := flow.RTEmbed
			if (round+i)%2 == 1 {
				algo = flow.Lex3
			}
			suite = append(suite, mk(name, algo))
		}
	}
	order := rand.New(rand.NewSource(seed))
	order.Shuffle(len(suite), func(i, j int) { suite[i], suite[j] = suite[j], suite[i] })
	return warm, suite
}

func flowPass(m *meter, seed int64) (*passResult, error) {
	res := &passResult{counts: map[string]float64{}}
	warm, suite := flowSuite(seed)
	m.beginSetup()
	_, err := runDesign(m, warm)
	m.endSetup()
	if err != nil {
		return nil, fmt.Errorf("warm-up design: %w", err)
	}
	res.setupCPU = m.setupCPU
	var inc core.IncrementalStats
	for i, d := range suite {
		m.beginOp(i + 1)
		out, err := runDesign(m, d)
		sample := m.endOp()
		if err != nil {
			return nil, fmt.Errorf("design %d (%s): %w", i+1, d.spec.Name, err)
		}
		if err := out.check(d); err != nil {
			return nil, fmt.Errorf("design %d (%s): %w", i+1, d.spec.Name, err)
		}
		res.ops = append(res.ops, sample)
		res.ratios = append(res.ratios, out.end/out.start)
		st := out.stats
		res.counts["core.iterations"] += float64(st.Iterations)
		res.counts["core.replicated"] += float64(st.Replicated)
		res.counts["core.unified"] += float64(st.Unified)
		addInc(&inc, st.Incremental)
		res.exact = append(res.exact, fmt.Sprintf("%s/%d/%s start=%s end=%s it=%d repl=%d unif=%d inc=%+v winf=%s wls=%s w=%d wire=%d",
			d.spec.Name, d.spec.Seed, d.algo, fmtExact(out.start), fmtExact(out.end), st.Iterations,
			st.Replicated, st.Unified, st.Incremental, fmtExact(out.inf.CritPath),
			fmtExact(out.ls.CritPath), out.width, out.ls.WireLength))
	}
	incCounts(res.counts, inc)
	return res, nil
}

// designRun is one design's pipeline outputs.
type designRun struct {
	nl         *netlist.Netlist
	pl         *placement.Placement
	start, end float64 // placement-level STA period before/after the engine
	stats      *core.Stats
	inf, ls    *route.Result
	width      int
}

// runDesign makes the timed calls of one flow operation.
func runDesign(m *meter, d design) (*designRun, error) {
	dm := arch.DefaultDelayModel()
	out := &designRun{}
	var err error
	if _, err = m.call("circuits.generate", func() (err error) {
		out.nl, err = circuits.Generate(d.spec)
		return err
	}); err != nil {
		return nil, err
	}
	f := arch.MinSquare(out.nl.NumLUTs(), out.nl.NumIOs())
	opts := place.Defaults()
	opts.Seed, opts.Effort, opts.Delay = d.placeSeed, placeEffort, dm
	if _, err = m.call("place.anneal", func() (err error) {
		out.pl, err = place.Place(out.nl, f, opts)
		return err
	}); err != nil {
		return nil, err
	}
	if out.start, err = sta(m, out.nl, out.pl); err != nil {
		return nil, err
	}
	cfg := core.Default()
	cfg.Mode = d.algo.Mode()
	cfg.Parallelism = 1
	eng := core.New(out.nl, out.pl, dm, cfg)
	if out.stats, err = m.engineRun(eng); err != nil {
		return nil, err
	}
	out.nl, out.pl = eng.Netlist, eng.Placement
	if out.end, err = sta(m, out.nl, out.pl); err != nil {
		return nil, err
	}
	if _, err = m.call("route.infinite", func() (err error) {
		out.inf, err = route.Infinite(out.nl, out.pl, f, dm, route.Defaults())
		return err
	}); err != nil {
		return nil, err
	}
	if _, err = m.call("route.lowstress", func() (err error) {
		out.ls, out.width, err = route.LowStress(out.nl, out.pl, f, dm, route.Defaults())
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// sta is the benchmark's own baseline timing analysis, serial.
func sta(m *meter, nl *netlist.Netlist, pl *placement.Placement) (float64, error) {
	var a *timing.Analysis
	_, err := m.call("timing.sta", func() (err error) {
		a, err = timing.AnalyzeWorkers(nl, pl, arch.DefaultDelayModel(), 1)
		return err
	})
	if err != nil {
		return 0, err
	}
	return a.Period, nil
}

// check runs the flow's output checks: a well-formed, legally placed
// netlist, no slower than the placement it started from, computing
// the same function as the unoptimized netlist, and routed feasibly.
func (r *designRun) check(d design) error {
	if err := r.nl.Validate(); err != nil {
		return err
	}
	if err := oracle.CheckPlaced(r.nl, r.pl); err != nil {
		return err
	}
	if err := oracle.CheckNoRegression(r.nl, r.pl, arch.DefaultDelayModel(), r.start); err != nil {
		return err
	}
	if r.end != r.stats.FinalPeriod {
		return fmt.Errorf("engine reported period %v, STA measured %v", r.stats.FinalPeriod, r.end)
	}
	// Generation is deterministic per spec, so regenerating gives the
	// pre-optimization netlist without copying it inside the timed
	// operation.
	pre, err := circuits.Generate(d.spec)
	if err != nil {
		return err
	}
	if err := oracle.Equivalent(pre, r.nl, oracle.EquivOptions{Seed: d.spec.Seed}); err != nil {
		return err
	}
	if !r.inf.Feasible || !r.ls.Feasible {
		return fmt.Errorf("routing infeasible (infinite %v, low-stress %v)", r.inf.Feasible, r.ls.Feasible)
	}
	return nil
}

// addInc accumulates the engine's incremental counters.
func addInc(a *core.IncrementalStats, b core.IncrementalStats) {
	a.STAUpdates += b.STAUpdates
	a.STAFullRuns += b.STAFullRuns
	a.STAFallbacks += b.STAFallbacks
	a.SPTHits += b.SPTHits
	a.SPTPatches += b.SPTPatches
	a.SPTRebuilds += b.SPTRebuilds
	a.FrontierHits += b.FrontierHits
	a.FrontierMisses += b.FrontierMisses
}

// subInc returns the counters a accumulated since b.
func subInc(a, b core.IncrementalStats) core.IncrementalStats {
	return core.IncrementalStats{
		STAUpdates:     a.STAUpdates - b.STAUpdates,
		STAFullRuns:    a.STAFullRuns - b.STAFullRuns,
		STAFallbacks:   a.STAFallbacks - b.STAFallbacks,
		SPTHits:        a.SPTHits - b.SPTHits,
		SPTPatches:     a.SPTPatches - b.SPTPatches,
		SPTRebuilds:    a.SPTRebuilds - b.SPTRebuilds,
		FrontierHits:   a.FrontierHits - b.FrontierHits,
		FrontierMisses: a.FrontierMisses - b.FrontierMisses,
	}
}

// incCounts reports the incremental engine's reuse ratios.
func incCounts(c map[string]float64, s core.IncrementalStats) {
	c["embed.frontier_hit_frac"] = frac(s.FrontierHits, s.FrontierHits+s.FrontierMisses)
	c["timing.sta_incremental_frac"] = frac(s.STAUpdates, s.STAUpdates+s.STAFullRuns)
	c["timing.sta_fallbacks"] = float64(s.STAFallbacks)
	c["timing.spt_reuse_frac"] = frac(s.SPTHits+s.SPTPatches, s.SPTHits+s.SPTPatches+s.SPTRebuilds)
}

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
