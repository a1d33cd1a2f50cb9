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

// Config tunes the engine. Zero values select the paper's defaults via
// Default().
type Config struct {
	// Mode selects the embedding signature: plain RT-Embedding
	// (LexDepth 1), Lex-2..Lex-5, or Lex-mc.
	Mode embed.Mode
	// MaxIters bounds the optimization loop.
	MaxIters int
	// Patience stops the loop after this many consecutive iterations
	// without clock-period improvement.
	Patience int
	// EpsStep is the ε increment, as a fraction of the current period,
	// applied when an iteration fails to improve (Section V-B).
	EpsStep float64
	// MaxTreeInternal caps replication-tree size (the paper observed
	// trees "up to almost a thousand cells").
	MaxTreeInternal int
	// WindowMargin pads the embedding window around the tree's
	// bounding box, in slots.
	WindowMargin int
	// MaxPerVertex / DelayQuantumFrac bound the embedder's per-vertex
	// solution lists on large instances (0 = exact).
	MaxPerVertex     int
	DelayQuantumFrac float64
	// FreeSlotCost, OccupiedSlotCost, ReplicationPenalty, and
	// FanoutOneFactor shape the placement cost p_ij (Section II-A):
	// free slots are cheap, occupied slots congested, creating a new
	// cell costs extra, and fanout-1 cells are discounted everywhere
	// since "no actual replication will ever occur".
	FreeSlotCost       float64
	OccupiedSlotCost   float64
	ReplicationPenalty float64
	FanoutOneFactor    float64
	// AggressiveUnify reassigns fanouts to new replicas whenever doing
	// so does not violate the current critical delay, not only when it
	// strictly improves arrival (Section VII-B).
	AggressiveUnify bool
	// FFRelocation allows moving a registered-LUT sink when it is the
	// bottleneck (Section V-D).
	FFRelocation bool
	// MaxDrift is the fraction by which the working solution may
	// degrade past the best before the engine resets to the best
	// snapshot (exploration headroom).
	MaxDrift float64
	// LexCostSlackFrac/Abs bound the extra embedding cost the Lex
	// modes may spend on subcritical-path speed beyond the cheapest
	// fast-enough solution.
	LexCostSlackFrac float64
	LexCostSlackAbs  float64
	// WireCongestion, when non-nil, biases the embedding graph's wire
	// costs by actual routing-channel occupancy — the Section VIII
	// improvement ("use the actual channel occupancy to assign wire
	// costs in the embedding graph... the embedder is biased to place
	// cells in regions with smaller wire utilization"). Values are
	// per-tile net counts, e.g. route.Result.TileUsage.
	WireCongestion map[arch.Loc]int
	// WireCongestionWeight scales that bias (cost per net of
	// occupancy, in wire-cost units).
	WireCongestionWeight float64
	// Parallelism bounds worker goroutines in the embedder's join
	// phase and the levelized STA. 1 forces the exact serial path;
	// results are bit-identical at any setting.
	Parallelism int
	// Incremental enables the dirty-region iteration engine: STA
	// re-propagates only through cones affected since the previous
	// analysis, slowest-paths trees are patched instead of rebuilt,
	// and solved embedding frontiers are reused when extraction
	// reproduces a bitwise-identical problem. Results are
	// Float64bits-identical to the full path at any setting.
	Incremental bool
	// IncrementalMaxDirtyFrac is the dirty-frontier threshold (as a
	// fraction of live cells) past which an incremental STA update
	// falls back to the full analyzer; 0 selects the default.
	IncrementalMaxDirtyFrac float64
	// VerifyIncremental cross-checks every incremental result — STA
	// updates, patched SPTs, and frontier-cache hits — against the
	// from-scratch computation, failing the run on any Float64bits
	// difference. Debug/CI mode: it costs more than disabling
	// Incremental entirely.
	VerifyIncremental bool
	// FrontierCacheSize bounds the embedding-frontier cache (entries);
	// 0 selects the default.
	FrontierCacheSize int
}

// Default returns the configuration used in the paper's experiments.
func Default() Config {
	return Config{
		Mode:                 embed.Mode{LexDepth: 1, Delay: embed.LinearDelay},
		MaxIters:             400,
		Patience:             40,
		EpsStep:              0.05,
		MaxTreeInternal:      1000,
		WindowMargin:         4,
		MaxPerVertex:         8,
		DelayQuantumFrac:     0.005,
		FreeSlotCost:         0.2,
		OccupiedSlotCost:     3.0,
		ReplicationPenalty:   4.0,
		FanoutOneFactor:      0.25,
		AggressiveUnify:      true,
		FFRelocation:         true,
		MaxDrift:             0.02,
		LexCostSlackFrac:     0.25,
		LexCostSlackAbs:      3.0,
		WireCongestionWeight: 0.1,
		Parallelism:          runtime.GOMAXPROCS(0),
		Incremental:          true,
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
//
//replint:metadata -- wall-clock telemetry by design; no solver decision reads it
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
	// Incremental reports what the incremental engine reused versus
	// recomputed (zero when Config.Incremental is off).
	Incremental IncrementalStats
}

// IncrementalStats aggregates the incremental engine's counters across
// one run: the dirty-region STA, the SPT cache, and the
// embedding-frontier cache. Serving layers surface these per job.
//
//replint:metadata -- reuse telemetry by design; no solver decision reads it
type IncrementalStats struct {
	// Dirty-region STA: incremental updates applied, full recomputes
	// (first pass + fallbacks), threshold fallbacks, cumulative dirty
	// seeds, cells re-propagated by each pass, and the largest
	// single-update dirty cone.
	STAUpdates       int `json:"sta_updates"`
	STAFullRuns      int `json:"sta_full_runs"`
	STAFallbacks     int `json:"sta_fallbacks"`
	STASeeds         int `json:"sta_seeds"`
	STACellsForward  int `json:"sta_cells_forward"`
	STACellsBackward int `json:"sta_cells_backward"`
	STAMaxDirty      int `json:"sta_max_dirty"`
	// SPT cache: trees served unchanged, patched in place, or rebuilt,
	// and the cumulative cone cells touched by patch sweeps.
	SPTHits         int `json:"spt_hits"`
	SPTPatches      int `json:"spt_patches"`
	SPTRebuilds     int `json:"spt_rebuilds"`
	SPTPatchedCells int `json:"spt_patched_cells"`
	// Embedding-frontier cache hits and misses.
	FrontierHits   int `json:"frontier_hits"`
	FrontierMisses int `json:"frontier_misses"`
}

// Engine drives placement-coupled replication on one design.
type Engine struct {
	Netlist   *netlist.Netlist
	Placement *placement.Placement
	Delay     arch.DelayModel
	Config    Config

	leg *legal.Legalizer

	// Incremental machinery (nil when Config.Incremental is off):
	// the dirty-region STA engine, the SPT cache driven by its change
	// generations, the embedding-frontier cache and the per-node
	// frontier memo behind it.
	inc  *timing.Incremental
	sptc *timing.SPTCache
	emc  *embed.Cache
	enm  *embed.NodeMemo

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
	// incremental caches deliberately survive — their diff/generation
	// tracking absorbs whatever the caller changed in between.
	e.eps, e.lastSink, e.dryAtSink = 0, netlist.None, 0
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
		preNL, prePL, prePeriod := e.Netlist, e.Placement, a.Period
		e.Netlist = preNL.Clone()
		e.Placement = prePL.Clone()
		stop, err := e.iterate(a, st, improvedLast)
		if err != nil {
			return nil, err
		}
		st.Iterations = iter + 1
		if stop {
			st.StoppedEarly = true
			break
		}
		a, err = e.analyze()
		if err != nil {
			return nil, err
		}
		if a.Period > prePeriod*(1+e.Config.MaxDrift) {
			// The iteration's collateral damage (usually dense-design
			// legalization) exceeded the exploration allowance:
			// discard it entirely rather than optimize from a damaged
			// state. ε still grows on the non-improvement, so the
			// next attempt differs.
			e.Netlist, e.Placement = preNL, prePL
			a, err = e.analyze()
			if err != nil {
				return nil, err
			}
		}
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
			if a.Period > e.bestPeriod*(1+e.Config.MaxDrift) {
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

// analyze runs STA over the engine's current state with the
// configured worker count, under the run's context. With
// Config.Incremental it routes through the dirty-region analyzer,
// which diffs the state against the previous call and re-propagates
// only the affected cones; VerifyIncremental additionally re-derives
// the analysis from scratch and demands bitwise agreement.
func (e *Engine) analyze() (*timing.Analysis, error) {
	ctx := e.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	defer e.timePhase(func(p *PhaseTimes) *float64 { return &p.Analyze })()
	if !e.Config.Incremental {
		return timing.AnalyzeWorkersCtx(ctx, e.Netlist, e.Placement, e.Delay, e.Config.Parallelism)
	}
	e.ensureIncremental()
	a, err := e.inc.Analyze(ctx, e.Netlist, e.Placement)
	if err != nil {
		return nil, err
	}
	if e.Config.VerifyIncremental {
		if err := e.verifyAnalysis(ctx, a); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// ensureIncremental lazily constructs the incremental machinery, so
// Config.Incremental may be set any time before the first analysis.
func (e *Engine) ensureIncremental() {
	if e.inc != nil {
		return
	}
	e.inc = timing.NewIncremental(e.Delay, e.Config.Parallelism)
	e.inc.MaxDirtyFrac = e.Config.IncrementalMaxDirtyFrac
	e.sptc = timing.NewSPTCache(e.inc, 0)
	e.emc = embed.NewCache(e.Config.FrontierCacheSize)
	e.enm = embed.NewNodeMemo()
}

// harvestIncremental copies the incremental engine's counters into the
// run's stats.
func (e *Engine) harvestIncremental(st *Stats) {
	if e.inc == nil {
		return
	}
	is := &st.Incremental
	is.STAUpdates = e.inc.Stats.Updates
	is.STAFullRuns = e.inc.Stats.FullRuns
	is.STAFallbacks = e.inc.Stats.Fallbacks
	is.STASeeds = e.inc.Stats.Seeds
	is.STACellsForward = e.inc.Stats.CellsForward
	is.STACellsBackward = e.inc.Stats.CellsBackward
	is.STAMaxDirty = e.inc.Stats.MaxDirty
	is.SPTHits = e.sptc.Stats.Hits
	is.SPTPatches = e.sptc.Stats.Patches
	is.SPTRebuilds = e.sptc.Stats.Rebuilds
	is.SPTPatchedCells = e.sptc.Stats.PatchedCells
	is.FrontierHits = e.emc.Stats.Hits
	is.FrontierMisses = e.emc.Stats.Misses
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

// snapshot saves the current netlist and placement as the best seen.
func (e *Engine) snapshot() {
	e.bestNL = e.Netlist.Clone()
	e.bestPL = e.Placement.Clone()
}

// restoreBest reinstates the best snapshot ("we save the best solution
// seen until this point so that we can always report the best solution
// encountered", Section V-D).
func (e *Engine) restoreBest() {
	e.Netlist = e.bestNL.Clone()
	e.Placement = e.bestPL.Clone()
}

// iterate runs one pass of the Fig. 11 loop; improvedLast says whether
// the previous iteration reduced the measured period. It reports
// whether the flow must stop (free slots exhausted).
func (e *Engine) iterate(a *timing.Analysis, st *Stats, improvedLast bool) (stop bool, err error) {
	sink := a.CritSink
	// ε schedule and FF-relocation trigger (Sections V-B and V-D):
	// ε starts at zero and grows only "when nonimprovement occurs" at
	// the same critical sink; if that sink is a register, eventually
	// let it move.
	rootFree := false
	if sink == e.lastSink && !improvedLast {
		e.dryAtSink++
		e.eps += e.Config.EpsStep * a.Period
		if e.Config.FFRelocation && e.dryAtSink >= 2 {
			if c := e.Netlist.Cell(sink); c.Kind == netlist.LUT && c.Registered {
				rootFree = true
			}
		}
	} else if sink != e.lastSink {
		e.lastSink = sink
		e.dryAtSink = 0
		e.eps = 0
	}

	stopExtract := e.timePhase(func(p *PhaseTimes) *float64 { return &p.Extract })
	var spt *timing.SPT
	if e.Config.Incremental && e.sptc != nil {
		spt = e.sptc.Get(e.Netlist, e.Placement, e.Delay, a, sink)
		if e.Config.VerifyIncremental {
			if err := verifySPT(spt, timing.BuildSPT(e.Netlist, e.Placement, e.Delay, a, sink)); err != nil {
				stopExtract()
				return false, err
			}
		}
	} else {
		spt = timing.BuildSPT(e.Netlist, e.Placement, e.Delay, a, sink)
	}
	members := spt.Epsilon(e.eps)
	e.trimMembers(spt, members)
	rt, err := rtree.Build(e.Netlist, a, spt, members)
	if err != nil {
		stopExtract()
		return false, fmt.Errorf("core: %w", err)
	}
	if rt.Internal == 0 && !rootFree {
		stopExtract()
		return false, nil // nothing movable on this path
	}

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
		MaxPerVertex: e.Config.MaxPerVertex,
		DelayQuantum: e.Config.DelayQuantumFrac * a.Period,
		Parallelism:  e.Config.Parallelism,
	}
	ctx := e.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	stopEmbed := e.timePhase(func(p *PhaseTimes) *float64 { return &p.Embed })
	// Frontier memoization, two levels deep. If the extraction
	// reproduced a problem whose canonical encoding (window, tree, cost
	// inputs) matches a solved one bit for bit, the DP would recompute
	// the identical frontier — reuse it instead. Otherwise the solve
	// runs with the per-node memo, which serves every DP node whose
	// subtree inputs repeat a node of the previous solve, or an earlier
	// node of this one. The solver is deterministic, so both are exact,
	// not approximate; VerifyIncremental re-solves without either and
	// checks. The memo recycles node sets at its next solve, so res is
	// read only within this iteration, and the cache keeps a frozen
	// copy (frontier plus extracted embeddings), not res itself.
	var res *embed.Result
	var fp embed.Fingerprint
	if e.Config.Incremental && e.emc != nil {
		prob.Memo = e.enm
		fp = e.embedFingerprint(g, ep, rootFree, prob.DelayQuantum)
		if r, ok := e.emc.Get(fp); ok {
			res = r
			if e.Config.VerifyIncremental {
				if err := e.verifyFrontier(ctx, prob, res); err != nil {
					stopEmbed()
					return false, err
				}
			}
		}
	}
	if res == nil {
		var hits int
		if prob.Memo != nil {
			hits = prob.Memo.Stats.Hits
		}
		res, err = prob.SolveContext(ctx)
		if err != nil {
			stopEmbed()
			if cerr := ctx.Err(); cerr != nil {
				return false, cerr // cancelled mid-DP, not an infeasible window
			}
			return false, nil // window infeasible; ε will grow
		}
		if prob.Memo != nil {
			if e.Config.VerifyIncremental && prob.Memo.Stats.Hits > hits {
				if err := e.verifyFrontier(ctx, prob, res); err != nil {
					stopEmbed()
					return false, err
				}
			}
			e.emc.Put(fp, res)
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
		if sel.Sig.D[0] > a.SinkArr[sink]+1e-9 {
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

// refineLex upgrades a baseline selection for the Lex/Lex-mc modes:
// among frontier solutions no slower on the critical arrival and
// within a bounded cost premium, take the lexicographically fastest —
// this is where subcritical paths actually get over-optimized
// (Section VI-A). The cost premium is what the paper pays in extra
// wiring for the Lex variants (their wire overhead grows from ~8% to
// ~16%).
func (e *Engine) refineLex(res *embed.Result, base embed.FrontierSol) embed.FrontierSol {
	budget := base.Sig.Cost*(1+e.Config.LexCostSlackFrac) + e.Config.LexCostSlackAbs
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

// trimMembers caps the ε-SPT at MaxTreeInternal movable cells, keeping
// the most critical ones and preserving parent-chain closure.
func (e *Engine) trimMembers(spt *timing.SPT, members map[netlist.CellID]bool) {
	limit := e.Config.MaxTreeInternal
	if limit <= 0 || len(members) <= limit {
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
	// an ordered decision (replint:maprange), and depthOf memoization
	// plus the selection below both consume this sequence.
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
	// shape the maprange rule exists to keep out.
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
	m := e.Config.WindowMargin
	if rootFree {
		m += 2 // give a relocating FF extra room
	}
	minX = clamp(minX-m, 0, f.N+1)
	maxX = clamp(maxX+m, 0, f.N+1)
	minY = clamp(minY-m, 0, f.N+1)
	maxY = clamp(maxY+m, 0, f.N+1)
	g := embed.NewGrid(embed.GridSpec{
		X0: minX, Y0: minY,
		W: maxX - minX + 1, H: maxY - minY + 1,
		WireCost:  1.0,
		WireDelay: e.Delay.SegDelay,
	})
	if e.Config.WireCongestion != nil {
		// Section VIII congestion feedback: rebuild the window with
		// per-edge wire costs scaled by routed channel occupancy so
		// the embedder avoids utilized regions.
		g = e.congestedGrid(minX, minY, maxX-minX+1, maxY-minY+1)
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
		return 1.0 + e.Config.WireCongestionWeight*occ
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
	return func(node embed.NodeID, v embed.Vertex) float64 {
		cell := ep.NodeCell[node]
		loc := g.LocOf(v)
		if node == ep.Tree.Root {
			// The sink: fixed roots only ever query their own slot;
			// free roots (relocating FFs) may go to any logic slot.
			if loc == e.Placement.Loc(cell) {
				return 0
			}
			if !f.IsLogic(loc) {
				return math.Inf(1)
			}
			return e.congestion(loc, cell)
		}
		if !f.IsLogic(loc) {
			return math.Inf(1)
		}
		// Discount: placement on top of any logically equivalent cell
		// means no replication materializes.
		for _, other := range e.Placement.At(loc) {
			if nl.Equivalent(other, cell) {
				return 0
			}
		}
		// Congestion is paid regardless; the replication penalty is
		// discounted for fanout-1 cells — "we still replicate, but all
		// placement locations receive a discounted cost, since no
		// actual replication will ever occur."
		base := e.congestion(loc, cell)
		if len(nl.Net(nl.Cell(cell).Out).Sinks) <= 1 {
			return base + e.Config.ReplicationPenalty*e.Config.FanoutOneFactor
		}
		return base + e.Config.ReplicationPenalty
	}
}

// congestion scores local placement congestion at loc.
func (e *Engine) congestion(loc arch.Loc, cell netlist.CellID) float64 {
	cap := e.Placement.FPGA().Capacity(loc)
	use := e.Placement.Usage(loc)
	if use < cap {
		return e.Config.FreeSlotCost
	}
	return e.Config.OccupiedSlotCost * float64(use-cap+1)
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
