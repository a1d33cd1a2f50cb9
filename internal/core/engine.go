// Package core is the paper's optimization engine: the main loop of
// Fig. 11 that repeatedly identifies the critical sink, extracts a
// replication tree from the ε-SPT, embeds it with the timing-driven
// fanin-tree embedder, applies the chosen solution to the netlist and
// placement (replicating, relocating, or implicitly unifying cells),
// post-processes unifications, and legalizes — while dynamically
// growing ε on non-improvement and relocating critical FFs
// (Sections IV, V, and VI).
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/embed"
	"repro/internal/legal"
	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/rtree"
	"repro/internal/timing"
)

// The engine's fixed tuning: the parameter set the paper's experiments
// run with. Each is typed, so a constant expression over it rounds
// exactly as the runtime arithmetic on a float64 field would.
const (
	// epsStep is the ε increment, as a fraction of the current period,
	// applied when an iteration fails to improve (Section V-B).
	epsStep float64 = 0.05
	// maxTreeInternal caps replication-tree size (the paper observed
	// trees "up to almost a thousand cells").
	maxTreeInternal int = 1000
	// windowMargin pads the embedding window around the tree's
	// bounding box, in slots.
	windowMargin int = 4
	// maxPerVertex / delayQuantumFrac bound the embedder's per-vertex
	// solution lists on large instances.
	maxPerVertex     int     = 8
	delayQuantumFrac float64 = 0.005
	// freeSlotCost, occupiedSlotCost, replicationPenalty, and
	// fanoutOneFactor shape the placement cost p_ij (Section II-A):
	// free slots are cheap, occupied slots congested, creating a new
	// cell costs extra, and fanout-1 cells are discounted everywhere
	// since "no actual replication will ever occur".
	freeSlotCost       float64 = 0.2
	occupiedSlotCost   float64 = 3.0
	replicationPenalty float64 = 4.0
	fanoutOneFactor    float64 = 0.25
	// maxDrift is the fraction by which the working solution may
	// degrade past the best before the engine resets to the best
	// snapshot (exploration headroom).
	maxDrift float64 = 0.02
	// lexCostSlackFrac/Abs bound the extra embedding cost the Lex
	// modes may spend on subcritical-path speed beyond the cheapest
	// fast-enough solution.
	lexCostSlackFrac float64 = 0.25
	lexCostSlackAbs  float64 = 3.0
	// wireCongestionWeight scales the Config.WireCongestion bias (cost
	// per net of occupancy, in wire-cost units).
	wireCongestionWeight float64 = 0.1
)

// Config holds the engine options a caller chooses per run; the rest
// of the paper's parameter set is fixed in the constants above.
// Default() returns the paper's configuration.
type Config struct {
	// Mode selects the embedding signature: plain RT-Embedding
	// (LexDepth 1), Lex-2..Lex-5, or Lex-mc.
	Mode embed.Mode
	// MaxIters bounds the optimization loop.
	MaxIters int
	// Patience stops the loop after this many consecutive iterations
	// without clock-period improvement.
	Patience int
	// FFRelocation allows moving a registered-LUT sink when it is the
	// bottleneck (Section V-D).
	FFRelocation bool
	// WireCongestion, when non-nil, biases the embedding graph's wire
	// costs by actual routing-channel occupancy — the Section VIII
	// improvement ("use the actual channel occupancy to assign wire
	// costs in the embedding graph... the embedder is biased to place
	// cells in regions with smaller wire utilization"). Values are
	// per-tile net counts, e.g. route.Result.TileUsage, weighted by
	// wireCongestionWeight.
	WireCongestion map[arch.Loc]int
	// Parallelism bounds worker goroutines in the embedder's join
	// phase; the STA always runs serially. 1 forces the exact serial
	// path; results are bit-identical at any setting.
	Parallelism int
	// Incremental enables exact reuse of deterministic work: DP nodes
	// whose subtree inputs repeat are served from the engine's node
	// memo, and a root that repeats the previous solve's from its root
	// slot; a drift-reverted iteration keeps the analysis of the
	// objects it restores; and an iteration that repeats the last
	// reverted one (same live objects, sink, rootFree flag and
	// replication tree) is replayed from its record instead of re-run.
	// Results are Float64bits-identical to the path without it at any
	// setting.
	Incremental bool
	// VerifyIncremental cross-checks every solve the memo served in
	// part, its root included, against a fresh solve without it, and
	// rebuilds the SPT and tree of every replayed iteration and runs it
	// in full, requiring the same tree, a revert and the recorded
	// counter deltas; any difference fails the run. Debug/CI mode: it
	// costs more than disabling Incremental entirely.
	VerifyIncremental bool
}

// Default returns the configuration used in the paper's experiments.
func Default() Config {
	return Config{
		Mode:         embed.Mode{LexDepth: 1, Delay: embed.LinearDelay},
		MaxIters:     400,
		Patience:     40,
		FFRelocation: true,
		Parallelism:  runtime.GOMAXPROCS(0),
		Incremental:  true,
	}
}

// IterStat records one iteration for the Fig. 14 replication/
// unification statistics.
type IterStat struct {
	Iter       int
	Period     float64
	Replicated int // cumulative cells created by replication
	Unified    int // cumulative cells removed by unification
}

// PhaseTimes accumulates wall-clock seconds per engine phase across a
// run. The split follows the Fig. 11 loop: STA (analyze), ε-SPT /
// replication-tree construction (extract), the embedding DP plus
// solution selection (embed), netlist+placement mutation and
// unification (apply), and timing-driven legalization (legalize).
// Serving layers surface these as per-job breakdowns.
type PhaseTimes struct {
	Analyze  float64 `json:"analyze"`
	Extract  float64 `json:"extract"`
	Embed    float64 `json:"embed"`
	Apply    float64 `json:"apply"`
	Legalize float64 `json:"legalize"`
}

// Total sums all phase timings.
func (p PhaseTimes) Total() float64 {
	return p.Analyze + p.Extract + p.Embed + p.Apply + p.Legalize
}

// Stats summarizes an engine run.
type Stats struct {
	Iterations    int
	Replicated    int
	Unified       int
	FFRelocations int
	InitialPeriod float64
	FinalPeriod   float64
	PerIter       []IterStat
	// StoppedEarly notes termination due to exhausted free slots, the
	// condition the paper reports for ex5p, apex4, seq, spla, ex1010.
	StoppedEarly bool
	// Phases breaks the run's wall time down by engine phase.
	Phases PhaseTimes
	// Incremental reports the node memo's traffic, the iterations
	// replayed and the analyses and trees the engine computed (zero
	// when Config.Incremental is off).
	Incremental IncrementalStats
}

// IncrementalStats aggregates the engine's counters over every Run
// on it so far. Serving layers surface these per job.
type IncrementalStats struct {
	// STAFullRuns counts the static timing analyses run and SPTRebuilds
	// the slowest-paths trees built; every one is computed from scratch.
	STAFullRuns int `json:"sta_full_runs"`
	SPTRebuilds int `json:"spt_rebuilds"`
	// STAUpdates, STAFallbacks, SPTHits and SPTPatches counted the
	// dirty-region STA and the SPT cache, which were removed; they stay
	// zero. perfbench's timing.* metrics still read them, so the
	// benchmark change that drops those metrics removes them too
	// (ROADMAP, Small follow-ups).
	STAUpdates   int `json:"sta_updates"`
	STAFallbacks int `json:"sta_fallbacks"`
	SPTHits      int `json:"spt_hits"`
	SPTPatches   int `json:"spt_patches"`
	// FrontierHits and FrontierMisses count the node memo's non-root DP
	// nodes: served from the memo (an earlier solve's node, or an
	// earlier repeat in the same solve) and computed.
	FrontierHits   int `json:"frontier_hits"`
	FrontierMisses int `json:"frontier_misses"`
	// Replays counts the iterations replayed from the record of the
	// drift-reverted iteration they repeat instead of re-run.
	Replays int `json:"replays"`
}

// Engine drives placement-coupled replication on one design.
type Engine struct {
	Netlist   *netlist.Netlist
	Placement *placement.Placement
	Delay     arch.DelayModel
	Config    Config

	leg *legal.Legalizer

	// enm is the frontier memo (nil until the first solve with
	// Config.Incremental on).
	enm *embed.NodeMemo
	// analyses and trees count the STAs run and SPTs built, replays the
	// iterations replayed.
	analyses, trees, replays int
	// rec is the last drift-reverted iteration while its pre-iteration
	// objects may still be live (Config.Incremental only); recordHook,
	// when a test sets it, sees every record as it is kept.
	rec        *revertRecord
	recordHook func(*revertRecord)

	// ctx and phases are live only inside RunContext: the run's
	// cancellation context and the Stats phase accumulator.
	ctx    context.Context
	phases *PhaseTimes

	eps        float64
	lastSink   netlist.CellID
	dryAtSink  int
	bestPeriod float64
	bestNL     *netlist.Netlist
	bestPL     *placement.Placement
	// snapNL/snapPL are the live objects bestNL/bestPL were last cloned
	// from or to. The loop clones before it mutates, so while they are
	// still live they still equal the snapshot.
	snapNL *netlist.Netlist
	snapPL *placement.Placement
}

// New returns an engine over the given placed design. The placement
// must be legal and complete.
func New(nl *netlist.Netlist, pl *placement.Placement, dm arch.DelayModel, cfg Config) *Engine {
	return &Engine{
		Netlist:   nl,
		Placement: pl,
		Delay:     dm,
		Config:    cfg,
		leg:       legal.New(),
		lastSink:  netlist.None,
	}
}

// Run executes the optimization loop and leaves the engine's netlist
// and placement at the best solution encountered.
func (e *Engine) Run() (*Stats, error) {
	return e.RunContext(context.Background())
}

// RunContext is Run under a context: cancellation (deadline or caller
// cancel) is checked at every iteration boundary and threaded into the
// STA and the embedding DP, so a cancelled run stops promptly even in
// the middle of a large wavefront instead of orphaning its workers.
// On cancellation it returns (nil, ctx.Err()); the engine's netlist
// and placement are left at a consistent (pre-iteration or
// best-snapshot) state but should be considered abandoned.
func (e *Engine) RunContext(ctx context.Context) (*Stats, error) {
	st := &Stats{}
	e.ctx = ctx
	e.phases = &st.Phases
	defer func() { e.ctx, e.phases = nil, nil }()
	// A repeated Run on the same engine (re-optimization after the
	// caller perturbed the design) is a fresh Fig. 11 flow: the ε
	// schedule restarts from zero exactly as on a new engine. The
	// frontier memo deliberately survives: it keys on fingerprints of
	// every input a solve reads, so nothing the caller changed in
	// between can make an entry stale. The revert record and the
	// snapshot's live twin do not: the caller may have mutated the live
	// objects they point at.
	e.eps, e.lastSink, e.dryAtSink = 0, netlist.None, 0
	e.rec, e.snapNL, e.snapPL = nil, nil, nil
	a, err := e.analyze()
	if err != nil {
		return nil, err
	}
	st.InitialPeriod = a.Period
	e.bestPeriod = a.Period
	e.snapshot()

	dry := 0
	improvedLast := true
	for iter := 0; iter < e.Config.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		x, err := e.extract(a, improvedLast)
		if err != nil {
			return nil, err
		}
		if x.replay {
			// A deterministic repeat of the last reverted iteration:
			// it would rebuild the same tree, window and problem, apply
			// the same solution and revert again, leaving the live
			// objects and a as they are.
			if e.Config.VerifyIncremental {
				if err := e.verifyReplay(a, x); err != nil {
					return nil, err
				}
			}
			e.replays++
			e.rec.delta.addTo(st)
		} else {
			var it Stats
			var reverted, stop bool
			a, reverted, stop, err = e.runIteration(a, x, &it)
			if err != nil {
				return nil, err
			}
			d := counters(&it)
			d.addTo(st)
			if stop {
				st.Iterations = iter + 1
				st.StoppedEarly = true
				break
			}
			// ε grows on the non-improvement, but the next attempt
			// often does not differ: trimMembers caps the tree at
			// maxTreeInternal, or no path's slack falls inside the
			// next ε step. Keep what a reverted pass was given and did,
			// so that such a repeat is replayed.
			e.rec = nil
			if reverted && e.Config.Incremental {
				e.rec = &revertRecord{nl: e.Netlist, pl: e.Placement, x: x, delta: d}
				if e.recordHook != nil {
					e.recordHook(e.rec)
				}
			}
		}
		st.Iterations = iter + 1
		st.PerIter = append(st.PerIter, IterStat{
			Iter:       iter,
			Period:     a.Period,
			Replicated: st.Replicated,
			Unified:    st.Unified,
		})
		// Improvement is judged on the measured clock period against
		// the best seen — not the embedder's prediction, which
		// legalization and side paths can eat. States matching the
		// best period also refresh the snapshot: period-neutral
		// mutations (Lex subcritical over-optimization, intermediate
		// replication) are what enable later gains, and the paper's
		// flow continues from them rather than reverting.
		improvedLast = a.Period < e.bestPeriod-1e-9
		if a.Period < e.bestPeriod+1e-9 {
			e.bestPeriod = math.Min(a.Period, e.bestPeriod)
			e.snapshot()
		}
		if improvedLast {
			dry = 0
		} else {
			dry++
			if dry >= e.Config.Patience {
				break
			}
			// Mild degradation is allowed to persist — intermediate
			// solutions can enable otherwise unachievable quality
			// (Section V-D) — but runaway drift resets to the best
			// state.
			if a.Period > e.bestPeriod*(1+maxDrift) {
				e.restoreBest()
				a, err = e.analyze()
				if err != nil {
					return nil, err
				}
			}
		}
	}
	e.restoreBest()
	final, err := e.analyze()
	if err != nil {
		return nil, err
	}
	st.FinalPeriod = final.Period
	e.harvestIncremental(st)
	return st, nil
}

// extraction is an iteration's input as the ε schedule leaves it: the
// critical sink, whether it may relocate, its ε-SPT, the replication
// tree of its trimmed members at the current ε, and whether the
// iteration repeats the last reverted one.
type extraction struct {
	sink     netlist.CellID
	rootFree bool
	spt      *timing.SPT
	rt       *rtree.RTree
	replay   bool
}

// revertRecord is what the last drift-reverted iteration was given and
// what it did. Everything an iteration reads is either a function of
// the live objects (and so of their analysis, which a revert restores
// with them) or of its rootFree flag and replication tree; ε reaches it
// only through the tree. So an iteration that starts from the
// same live objects with the same flag and tree rebuilds the same
// window and problem, applies the same solution and reverts again.
type revertRecord struct {
	nl    *netlist.Netlist
	pl    *placement.Placement
	x     extraction
	delta iterDelta
}

// iterDelta is what one iteration adds to the run's counters.
type iterDelta struct {
	Replicated, Unified, FFRelocations int
}

// counters returns the counters an iteration run against st added.
func counters(st *Stats) iterDelta {
	return iterDelta{Replicated: st.Replicated, Unified: st.Unified, FFRelocations: st.FFRelocations}
}

// addTo adds d to the run's counters.
func (d iterDelta) addTo(st *Stats) {
	st.Replicated += d.Replicated
	st.Unified += d.Unified
	st.FFRelocations += d.FFRelocations
}

// extract advances the ε schedule and the FF-relocation trigger
// (Sections V-B and V-D) and derives the iteration's ε-SPT and
// replication tree (Section III). ε starts at zero and grows only "when
// nonimprovement occurs" at the same critical sink; if that sink is a
// register, eventually let it move. With Config.Incremental, an
// iteration that starts from the live objects of the last reverted one
// with its sink reuses that iteration's SPT, which was built from them,
// and is a replay when its rootFree flag and its tree also repeat.
func (e *Engine) extract(a *timing.Analysis, improvedLast bool) (extraction, error) {
	x := extraction{sink: a.CritSink}
	if x.sink == e.lastSink && !improvedLast {
		e.dryAtSink++
		e.eps += float64(epsStep * a.Period)
		if e.Config.FFRelocation && e.dryAtSink >= 2 {
			if c := e.Netlist.Cell(x.sink); c.Kind == netlist.LUT && c.Registered {
				x.rootFree = true
			}
		}
	} else if x.sink != e.lastSink {
		e.lastSink = x.sink
		e.dryAtSink = 0
		e.eps = 0
	}

	defer e.timePhase(func(p *PhaseTimes) *float64 { return &p.Extract })()
	r := e.rec
	live := r != nil && r.nl == e.Netlist && r.pl == e.Placement && r.x.sink == x.sink
	if live {
		x.spt = r.x.spt
	} else {
		x.spt = timing.BuildSPT(e.Netlist, e.Placement, e.Delay, a, x.sink)
		e.trees++
	}
	rt, err := e.buildTree(a, x.spt)
	if err != nil {
		return x, err
	}
	x.rt = rt
	x.replay = live && r.x.rootFree == x.rootFree && rt.Equal(r.x.rt)
	return x, nil
}

// buildTree returns the replication tree of the ε-SPT's members at the
// current ε, trimmed to maxTreeInternal.
func (e *Engine) buildTree(a *timing.Analysis, spt *timing.SPT) (*rtree.RTree, error) {
	members := spt.Epsilon(e.eps)
	trimMembers(spt, members, maxTreeInternal)
	rt, err := rtree.Build(e.Netlist, a, spt, members)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return rt, nil
}

// runIteration runs one full pass of the Fig. 11 loop on clones of the
// live objects, counting into st, and returns the analysis of the state
// it leaves live. A pass whose collateral damage (usually dense-design
// legalization) pushes the period past the exploration allowance is
// discarded entirely rather than optimized from (reverted): the
// pre-iteration objects are restored and, with Config.Incremental,
// their analysis a is returned instead of recomputed. stop reports that
// free slots ran out.
func (e *Engine) runIteration(a *timing.Analysis, x extraction, st *Stats) (next *timing.Analysis, reverted, stop bool, err error) {
	preNL, prePL := e.Netlist, e.Placement
	e.Netlist = preNL.Clone()
	e.Placement = prePL.Clone()
	if stop, err = e.iterate(a, x, st); err != nil || stop {
		return nil, false, stop, err
	}
	if next, err = e.analyze(); err != nil || next.Period <= a.Period*(1+maxDrift) {
		return next, false, false, err
	}
	e.Netlist, e.Placement = preNL, prePL
	if e.Config.Incremental {
		return a, true, false, nil
	}
	next, err = e.analyze()
	return next, true, false, err
}

// analyze runs a full STA over the engine's current state under the
// run's context.
func (e *Engine) analyze() (*timing.Analysis, error) {
	ctx := e.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	defer e.timePhase(func(p *PhaseTimes) *float64 { return &p.Analyze })()
	e.analyses++
	return timing.AnalyzeContext(ctx, e.Netlist, e.Placement, e.Delay)
}

// harvestIncremental copies the run's counters into its stats.
func (e *Engine) harvestIncremental(st *Stats) {
	if !e.Config.Incremental {
		return
	}
	is := &st.Incremental
	is.STAFullRuns = e.analyses
	is.SPTRebuilds = e.trees
	is.Replays = e.replays
	if e.enm != nil {
		is.FrontierHits = e.enm.Stats.Hits
		is.FrontierMisses = e.enm.Stats.Misses
	}
}

// timePhase starts a wall-clock measurement charged to the phase field
// selected by sel; the returned func stops it. No-op outside a run.
func (e *Engine) timePhase(sel func(*PhaseTimes) *float64) func() {
	if e.phases == nil {
		return func() {}
	}
	acc := sel(e.phases)
	t0 := time.Now()
	return func() { *acc += time.Since(t0).Seconds() }
}

// snapshot saves the current netlist and placement as the best seen,
// unless they are the very objects the snapshot was last taken from or
// restored to (after a revert to them, say).
func (e *Engine) snapshot() {
	if e.Netlist == e.snapNL && e.Placement == e.snapPL {
		return
	}
	e.bestNL = e.Netlist.Clone()
	e.bestPL = e.Placement.Clone()
	e.snapNL, e.snapPL = e.Netlist, e.Placement
}

// restoreBest reinstates the best snapshot ("we save the best solution
// seen until this point so that we can always report the best solution
// encountered", Section V-D).
func (e *Engine) restoreBest() {
	e.Netlist = e.bestNL.Clone()
	e.Placement = e.bestPL.Clone()
	e.snapNL, e.snapPL = e.Netlist, e.Placement
}

// iterate runs one pass of the Fig. 11 loop from the extraction x on
// the live objects, which it mutates. It reports whether the flow must
// stop (free slots exhausted).
func (e *Engine) iterate(a *timing.Analysis, x extraction, st *Stats) (stop bool, err error) {
	sink, rootFree, rt := x.sink, x.rootFree, x.rt
	if rt.Internal == 0 && !rootFree {
		return false, nil // nothing movable on this path
	}

	stopExtract := e.timePhase(func(p *PhaseTimes) *float64 { return &p.Extract })
	g := e.buildWindow(rt, rootFree)
	ep, err := rt.ToEmbedProblem(g, e.Netlist, e.Placement, e.Delay, rootFree)
	stopExtract()
	if err != nil {
		return false, fmt.Errorf("core: %w", err)
	}
	prob := &embed.Problem{
		G:            g,
		T:            ep.Tree,
		Mode:         e.Config.Mode,
		PlaceCost:    e.placeCostFunc(g, ep),
		MaxPerVertex: maxPerVertex,
		DelayQuantum: delayQuantumFrac * a.Period,
		Parallelism:  e.Config.Parallelism,
		// Nothing slower than the status quo is applied, so the
		// embedder need not expand what cannot beat it (the solver
		// ignores the bound for a free root).
		Bound: statusQuo(a, sink),
	}
	ctx := e.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	stopEmbed := e.timePhase(func(p *PhaseTimes) *float64 { return &p.Embed })
	// Frontier memoization: the node memo serves every DP node whose
	// subtree inputs repeat a node of the previous solve, or an earlier
	// node of this one, and the root frontier itself when the whole
	// problem repeats the previous solve's. The solver is deterministic,
	// so this is exact, not approximate; VerifyIncremental re-solves
	// without the memo and checks. The memo recycles node sets at its
	// next solve, so res is read only within this iteration.
	var hits int
	if e.Config.Incremental {
		if e.enm == nil {
			e.enm = embed.NewNodeMemo()
		}
		prob.Memo = e.enm
		hits = e.enm.Stats.Hits + e.enm.Roots.Hits
	}
	res, err := prob.SolveContext(ctx)
	if err != nil {
		stopEmbed()
		if cerr := ctx.Err(); cerr != nil {
			return false, cerr // cancelled mid-DP, not an infeasible window
		}
		return false, nil // window infeasible; ε will grow
	}
	if m := prob.Memo; m != nil && e.Config.VerifyIncremental && m.Stats.Hits+m.Roots.Hits > hits {
		if err := e.verifyFrontier(ctx, prob, res); err != nil {
			stopEmbed()
			return false, err
		}
	}
	// Selection bound: the cheapest solution faster than both the
	// tree's own lower bound and the second-most-critical sink (below
	// which the clock period cannot drop this iteration).
	var sel embed.FrontierSol
	if rootFree {
		var ok bool
		sel, ok = e.selectRelocation(res, g, sink, a)
		if !ok {
			stopEmbed()
			return false, nil
		}
	} else {
		bound := math.Max(ep.LowerBound, e.secondArrival(a, sink))
		if bound >= a.SinkArr[sink]-1e-9 {
			// The critical sink ties with others (common in dense
			// designs): "fast enough" must not degenerate to the
			// status quo, so fall back to the paper's pure
			// lower-bound rule and optimize this sink fully; the
			// banked slack lets later iterations untangle the ties.
			bound = ep.LowerBound
		}
		var ok bool
		sel, ok = res.SelectByBound(bound)
		if !ok {
			// Nothing on the frontier is fast enough: take the fastest
			// solution and let the status-quo check below decide whether
			// it still improves the critical sink.
			sel, ok = res.SelectFastest()
		}
		if !ok {
			stopEmbed()
			return false, nil // empty frontier: nothing to select
		}
		if e.Config.Mode.LexDepth > 1 || e.Config.Mode.MC {
			sel = e.refineLex(res, sel)
		}
		if sel.Sig.D[0] > statusQuo(a, sink) {
			stopEmbed()
			return false, nil // embedder cannot beat the status quo
		}
	}

	emb := res.Extract(sel)
	stopEmbed()
	stopApply := e.timePhase(func(p *PhaseTimes) *float64 { return &p.Apply })
	reps := e.apply(rt, ep, g, emb, sel, st)
	stopApply()
	if rootFree {
		st.FFRelocations++
	}

	// Post-process unification needs fresh arrival times (Section V-C).
	a2, err := e.analyze()
	if err != nil {
		return false, err
	}
	stopApply = e.timePhase(func(p *PhaseTimes) *float64 { return &p.Apply })
	e.postUnify(a2, reps, st)
	stopApply()

	// Timing-driven legalization resolves the overlaps the embedder
	// was allowed to create.
	a3, err := e.analyze()
	if err != nil {
		return false, err
	}
	stopLegal := e.timePhase(func(p *PhaseTimes) *float64 { return &p.Legalize })
	lst, lerr := e.leg.Run(e.Netlist, e.Placement, e.Delay, a3)
	stopLegal()
	st.Unified += lst.Unified
	if lerr != nil {
		// Out of free slots: restore the best snapshot and stop, as
		// the paper does when replication space runs out.
		e.restoreBest()
		return true, nil
	}
	return false, nil
}

// statusQuo is the slowest root arrival an applied solution may have:
// the critical sink's current arrival, within the 1e-9 tolerance. The
// embedder prunes with it and the engine rejects with it, so the two
// read one expression.
func statusQuo(a *timing.Analysis, sink netlist.CellID) float64 {
	return a.SinkArr[sink] + 1e-9
}

// refineLex upgrades a baseline selection for the Lex/Lex-mc modes:
// among frontier solutions no slower on the critical arrival and
// within a bounded cost premium, take the lexicographically fastest —
// this is where subcritical paths actually get over-optimized
// (Section VI-A). The cost premium is what the paper pays in extra
// wiring for the Lex variants (their wire overhead grows from ~8% to
// ~16%).
func (e *Engine) refineLex(res *embed.Result, base embed.FrontierSol) embed.FrontierSol {
	budget := float64(base.Sig.Cost*(1+lexCostSlackFrac)) + lexCostSlackAbs
	best := base
	depth := e.Config.Mode.LexDepth
	if depth < 1 {
		depth = 1
	}
	for i := range res.Frontier {
		f := &res.Frontier[i]
		if f.Sig.Cost > budget || f.Sig.D[0] > base.Sig.D[0]+1e-9 {
			continue
		}
		if lexBetter(&f.Sig, &best.Sig, depth, e.Config.Mode.MC) {
			best = *f
		}
	}
	return best
}

// lexBetter compares delay vectors lexicographically (with the Lex-mc
// critical-input arrival as the penultimate component); exact delay
// ties prefer less gate stacking, then lower cost. Both signatures are
// produced by the same operation sequence, so bitwise tie detection is
// the intended semantics.
//
//replint:floatcmp-helper
func lexBetter(a, b *embed.Sig, depth int, mc bool) bool {
	for i := 0; i < depth; i++ {
		if a.D[i] != b.D[i] {
			return a.D[i] < b.D[i]
		}
	}
	if mc && a.TC != b.TC {
		return a.TC < b.TC
	}
	if a.Peak != b.Peak {
		return a.Peak < b.Peak
	}
	return a.Cost < b.Cost
}

// selectRelocation picks a frontier solution for a relocating FF sink
// (Section V-D): "the solution minimizing the arrival time without
// introducing large delay penalty on other paths that touch that FF".
// Each candidate root location is scored by the worse of the tree's
// arrival and the register's outgoing paths from that location; mild
// global degradation is tolerated, as intermediate relocations can
// enable otherwise unachievable quality.
func (e *Engine) selectRelocation(res *embed.Result, g *embed.Graph, sink netlist.CellID, a *timing.Analysis) (embed.FrontierSol, bool) {
	nl := e.Netlist
	best := -1
	bestScore := math.Inf(1)
	for i := range res.Frontier {
		f := &res.Frontier[i]
		loc := g.LocOf(f.Vertex)
		out := 0.0
		if c := nl.Cell(sink); c.Out != netlist.None {
			for _, p := range nl.Net(c.Out).Sinks {
				v := p.Cell
				vc := nl.Cell(v)
				wireD := e.Delay.WireDelay(arch.Dist(loc, e.Placement.Loc(v)))
				var tail float64
				if vc.IsSink() {
					tail = wireD + timing.Intrinsic(e.Delay, vc)
				} else if int(v) < len(a.Down) && !math.IsInf(a.Down[v], -1) {
					tail = wireD + e.Delay.LUTDelay + a.Down[v]
				} else {
					continue
				}
				if tail > out {
					out = tail
				}
			}
		}
		score := math.Max(f.Sig.D[0], out)
		//replint:ignore floatcmp -- exact score tie deterministically prefers the cheaper candidate; an epsilon here would make the winner depend on visit order
		if score < bestScore || (score == bestScore && best >= 0 && f.Sig.Cost < res.Frontier[best].Sig.Cost) {
			bestScore = score
			best = i
		}
	}
	if best < 0 {
		return embed.FrontierSol{}, false
	}
	// Tolerate slight global degradation; the saved-best snapshot
	// protects the reported result.
	if bestScore > a.Period*1.02 {
		return embed.FrontierSol{}, false
	}
	return res.Frontier[best], true
}

// secondArrival returns the worst sink arrival excluding the given
// sink. The period reduction already tracks the runner-up, so this is
// O(1) instead of a full cell scan: excluding the critical sink
// leaves SecondArr (floored at 0, the old scan's starting value);
// excluding anything else leaves the period itself.
func (e *Engine) secondArrival(a *timing.Analysis, exclude netlist.CellID) float64 {
	if exclude != a.CritSink {
		return a.Period
	}
	if math.IsInf(a.SecondArr, -1) || a.SecondArr < 0 {
		return 0
	}
	return a.SecondArr
}

// trimMembers caps the ε-SPT at limit movable cells, keeping the most
// critical ones and preserving parent-chain closure.
func trimMembers(spt *timing.SPT, members map[netlist.CellID]bool, limit int) {
	if len(members) <= limit {
		return
	}
	// Tree depth to the sink, so ties on PathThrough (common on a
	// critical path, where every cell ties at the period) keep the
	// cells nearest the sink — exactly the prefix that stays closed
	// under the parent relation.
	depth := map[netlist.CellID]int{spt.Sink: 0}
	var depthOf func(id netlist.CellID) int
	depthOf = func(id netlist.CellID) int {
		if d, ok := depth[id]; ok {
			return d
		}
		d := depthOf(spt.Parent[id]) + 1
		depth[id] = d
		return d
	}
	// Iterate members in sorted-ID order: map order must never reach
	// an ordered decision (TestTrimMembersBreaksTiesByID), and depthOf
	// memoization plus the selection below both consume this sequence.
	ids := make([]netlist.CellID, 0, len(members))
	for id := range members {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	type entry struct {
		id netlist.CellID
		pt float64
		d  int
	}
	entries := make([]entry, 0, len(ids))
	for _, id := range ids {
		if id == spt.Sink {
			continue
		}
		entries = append(entries, entry{id, spt.PathThrough[id], depthOf(id)})
	}
	// Selection by PathThrough descending, then depth ascending, then
	// ID for determinism.
	less := func(a, b entry) bool {
		//replint:ignore floatcmp -- total-order comparator: an epsilon tie would break transitivity; bitwise equality falls through to depth/ID tie-breaks
		if a.pt != b.pt {
			return a.pt > b.pt
		}
		if a.d != b.d {
			return a.d < b.d
		}
		return a.id < b.id
	}
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && less(entries[j], entries[j-1]); j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
	keep := map[netlist.CellID]bool{spt.Sink: true}
	for i := 0; i < len(entries) && len(keep)-1 < limit; i++ {
		keep[entries[i].id] = true
	}
	// Closure: drop members whose parent chain leaves the set. Iterate
	// the sorted ID slice, not the map — the per-pass delete order
	// affects how fast the fixpoint converges, and ranging keep while
	// deleting from it under a condition that reads it is exactly the
	// shape that lets map order leak into a result.
	for changed := true; changed; {
		changed = false
		for _, id := range ids {
			if id == spt.Sink {
				continue
			}
			if keep[id] && !keep[spt.Parent[id]] {
				delete(keep, id)
				changed = true
			}
		}
	}
	for id := range members {
		if !keep[id] {
			delete(members, id)
		}
	}
}

// buildWindow constructs the embedding grid: the bounding box of every
// tree cell location, padded by the window margin, clamped to the
// device (including the I/O ring so pad-rooted trees stay in-window).
func (e *Engine) buildWindow(rt *rtree.RTree, rootFree bool) *embed.Graph {
	f := e.Placement.FPGA()
	minX, minY := f.N+1, f.N+1
	maxX, maxY := 0, 0
	grow := func(l arch.Loc) {
		if int(l.X) < minX {
			minX = int(l.X)
		}
		if int(l.X) > maxX {
			maxX = int(l.X)
		}
		if int(l.Y) < minY {
			minY = int(l.Y)
		}
		if int(l.Y) > maxY {
			maxY = int(l.Y)
		}
	}
	for i := range rt.Nodes {
		grow(e.Placement.Loc(rt.Nodes[i].Cell))
	}
	m := windowMargin
	if rootFree {
		m += 2 // give a relocating FF extra room
	}
	minX = clamp(minX-m, 0, f.N+1)
	maxX = clamp(maxX+m, 0, f.N+1)
	minY = clamp(minY-m, 0, f.N+1)
	maxY = clamp(maxY+m, 0, f.N+1)
	var g *embed.Graph
	if e.Config.WireCongestion != nil {
		// Section VIII congestion feedback: per-edge wire costs scaled
		// by routed channel occupancy, so the embedder avoids utilized
		// regions.
		g = e.congestedGrid(minX, minY, maxX-minX+1, maxY-minY+1)
	} else {
		g = embed.NewGrid(embed.GridSpec{
			X0: minX, Y0: minY,
			W: maxX - minX + 1, H: maxY - minY + 1,
			WireCost:  1.0,
			WireDelay: e.Delay.SegDelay,
		})
	}
	// Corners of the device are unusable.
	for _, c := range []arch.Loc{{X: 0, Y: 0}, {X: 0, Y: int16(f.N + 1)},
		{X: int16(f.N + 1), Y: 0}, {X: int16(f.N + 1), Y: int16(f.N + 1)}} {
		if v := g.VertexAt(c); v >= 0 {
			g.Block(v)
		}
	}
	return g
}

// congestedGrid builds the embedding window with wire costs biased by
// routed channel occupancy (Section VIII).
func (e *Engine) congestedGrid(x0, y0, w, h int) *embed.Graph {
	g := embed.NewGraphGrid(x0, y0, w, h)
	cost := func(a, b arch.Loc) float64 {
		occ := float64(e.Config.WireCongestion[a]+e.Config.WireCongestion[b]) / 2
		return 1.0 + float64(wireCongestionWeight*occ)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			la := arch.Loc{X: int16(x0 + x), Y: int16(y0 + y)}
			va := g.VertexAt(la)
			if x+1 < w {
				lb := arch.Loc{X: la.X + 1, Y: la.Y}
				g.AddBiEdge(va, g.VertexAt(lb), cost(la, lb), e.Delay.SegDelay)
			}
			if y+1 < h {
				lb := arch.Loc{X: la.X, Y: la.Y + 1}
				g.AddBiEdge(va, g.VertexAt(lb), cost(la, lb), e.Delay.SegDelay)
			}
		}
	}
	return g
}

// placeCostFunc builds p_ij for the embedder (Section II-A plus the
// replication-tree discounts of Section III): zero on top of a
// logically equivalent cell, discounted everywhere for fanout-1 cells,
// congestion plus replication penalty elsewhere, and +Inf off the
// logic fabric (for everything but a root pad).
func (e *Engine) placeCostFunc(g *embed.Graph, ep *rtree.EmbedProblem) func(embed.NodeID, embed.Vertex) float64 {
	f := e.Placement.FPGA()
	nl := e.Netlist
	root := ep.Tree.Root
	// A solve prices every internal node at every window vertex, so the
	// terms that depend on the vertex alone (+Inf off the logic fabric,
	// else congestion) and on the node alone (the replication penalty)
	// are computed once per problem.
	slot := make([]float64, g.NumVertices())
	for v := range slot {
		loc := g.LocOf(embed.Vertex(v))
		slot[v] = math.Inf(1)
		if f.IsLogic(loc) {
			slot[v] = e.congestion(loc)
		}
	}
	penalty := make([]float64, len(ep.NodeCell))
	for node, cell := range ep.NodeCell {
		if embed.NodeID(node) == root || ep.Tree.Nodes[node].IsLeaf() {
			continue
		}
		// Congestion is paid regardless; the replication penalty is
		// discounted for fanout-1 cells — "we still replicate, but all
		// placement locations receive a discounted cost, since no
		// actual replication will ever occur."
		penalty[node] = replicationPenalty
		if len(nl.Net(nl.Cell(cell).Out).Sinks) <= 1 {
			penalty[node] = replicationPenalty * fanoutOneFactor
		}
	}
	return func(node embed.NodeID, v embed.Vertex) float64 {
		cell := ep.NodeCell[node]
		loc := g.LocOf(v)
		if node == root {
			// The sink: fixed roots only ever query their own slot;
			// free roots (relocating FFs) may go to any logic slot.
			if loc == e.Placement.Loc(cell) {
				return 0
			}
			return slot[v]
		}
		if math.IsInf(slot[v], 1) {
			return slot[v]
		}
		// Discount: placement on top of any logically equivalent cell
		// means no replication materializes.
		for _, other := range e.Placement.At(loc) {
			if nl.Equivalent(other, cell) {
				return 0
			}
		}
		return slot[v] + penalty[node]
	}
}

// congestion scores local placement congestion at loc.
func (e *Engine) congestion(loc arch.Loc) float64 {
	cap := e.Placement.FPGA().Capacity(loc)
	use := e.Placement.Usage(loc)
	if use < cap {
		return freeSlotCost
	}
	return occupiedSlotCost * float64(use-cap+1)
}

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
