// Benchmarks regenerating the paper's tables and figures, plus
// micro-benchmarks of the core algorithms and ablations of the design
// choices called out in DESIGN.md.
//
// Table/figure benches run the full generate → place → optimize →
// route pipeline on scaled-down versions of the MCNC-20 stand-ins (the
// full-size runs live in cmd/experiments); what matters for the
// reproduction is the *shape* — who wins and by roughly what factor —
// which is preserved under scaling. Each bench reports the paper's
// headline metric as a custom unit next to ns/op.
package repro_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/flow"
	"repro/internal/legal"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/timing"
)

// benchCfg is the scaled-down pipeline configuration used by the
// table benches.
func benchCfg() flow.Config {
	cfg := flow.Defaults()
	cfg.Scale = 0.05
	cfg.PlaceEffort = 1
	cfg.LocalRepRuns = 2
	return cfg
}

// benchSuite is a representative small/large subset (full 20-circuit
// sweeps are cmd/experiments territory).
func benchSuite() []circuits.MCNCSpec {
	names := []string{"ex5p", "tseng", "dsip", "pdc"}
	var out []circuits.MCNCSpec
	for _, n := range names {
		s, _ := circuits.ByName(n)
		out = append(out, s)
	}
	return out
}

// BenchmarkTable1BaselineVPR regenerates Table I: the timing-driven
// place-and-route baseline (W∞/W_ls critical path, routed wirelength).
func BenchmarkTable1BaselineVPR(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		var winf, wls float64
		for _, spec := range benchSuite() {
			bl, err := flow.RunBaseline(spec, cfg)
			if err != nil {
				b.Fatal(err)
			}
			winf += bl.Metrics.WInf
			wls += bl.Metrics.WLs
		}
		b.ReportMetric(wls/winf, "Wls/Winf")
	}
}

// benchAlgorithm runs one optimizer over the bench suite and reports
// the paper's headline normalized W∞ average.
func benchAlgorithm(b *testing.B, algo flow.Algorithm) {
	cfg := benchCfg()
	var bases []*flow.Baseline
	for _, spec := range benchSuite() {
		bl, err := flow.RunBaseline(spec, cfg)
		if err != nil {
			b.Fatal(err)
		}
		bases = append(bases, bl)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		norm := 0.0
		for _, bl := range bases {
			r, err := flow.RunAlgorithm(bl, algo, cfg)
			if err != nil {
				b.Fatal(err)
			}
			norm += r.Norm[0]
		}
		b.ReportMetric(norm/float64(len(bases)), "Winf/VPR")
	}
}

// BenchmarkTable2LocalReplication, ...RTEmbedding, and ...Lex3
// regenerate the three data sets of Table II.
func BenchmarkTable2LocalReplication(b *testing.B) { benchAlgorithm(b, flow.LocalRep) }
func BenchmarkTable2RTEmbedding(b *testing.B)      { benchAlgorithm(b, flow.RTEmbed) }
func BenchmarkTable2Lex3(b *testing.B)             { benchAlgorithm(b, flow.Lex3) }

// BenchmarkTable3LexVariants regenerates Table III: all engine
// variants, averages only.
func BenchmarkTable3LexVariants(b *testing.B) {
	cfg := benchCfg()
	cfg.SkipRouting = true // Table III compares averages; placement-level is the shape
	var bases []*flow.Baseline
	for _, spec := range benchSuite() {
		bl, err := flow.RunBaseline(spec, cfg)
		if err != nil {
			b.Fatal(err)
		}
		bases = append(bases, bl)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, algo := range flow.EngineAlgorithms {
			norm := 0.0
			for _, bl := range bases {
				r, err := flow.RunAlgorithm(bl, algo, cfg)
				if err != nil {
					b.Fatal(err)
				}
				norm += r.Norm[0]
			}
			b.ReportMetric(norm/float64(len(bases)), algo.String()+"/VPR")
		}
	}
}

// BenchmarkFig14ReplicationStats regenerates the Fig. 14 series:
// replicated vs unified cells over the engine's iterations on the
// ex1010 stand-in.
func BenchmarkFig14ReplicationStats(b *testing.B) {
	cfg := benchCfg()
	cfg.SkipRouting = true
	spec, _ := circuits.ByName("ex1010")
	bl, err := flow.RunBaseline(spec, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := flow.RunAlgorithm(bl, flow.RTEmbed, cfg)
		if err != nil {
			b.Fatal(err)
		}
		st := r.EngineStats
		b.ReportMetric(float64(st.Replicated), "replicated")
		b.ReportMetric(float64(st.Unified), "unified")
		b.ReportMetric(float64(st.Replicated-st.Unified), "net")
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks of the core algorithms.

// benchGrid builds a g×g embedding window with a three-leaf tree, the
// typical shape the engine hands to the embedder.
func embedProblem(g int, mode embed.Mode) *embed.Problem {
	grid := embed.NewGrid(embed.GridSpec{W: g, H: g, WireCost: 1, WireDelay: 1})
	v := func(x, y int) embed.Vertex { return embed.Vertex(y*g + x) }
	tree := &embed.Tree{
		Nodes: []embed.Node{
			{Vertex: v(0, 0), Arr: 0},
			{Vertex: v(0, g-1), Arr: 2},
			{Vertex: v(g/2, 0), Arr: 1},
			{Children: []embed.NodeID{0, 1}, Intrinsic: 2},
			{Children: []embed.NodeID{3, 2}, Intrinsic: 2},
			{Children: []embed.NodeID{4}, Vertex: v(g-1, g-1), Intrinsic: 2},
		},
		Root: 5,
	}
	return &embed.Problem{
		G: grid, T: tree, Mode: mode,
		PlaceCost:    func(n embed.NodeID, vv embed.Vertex) float64 { return float64(vv%7) * 0.1 },
		MaxPerVertex: 8, DelayQuantum: 0.25,
	}
}

func BenchmarkEmbed2D(b *testing.B) {
	p := embedProblem(24, embed.Mode{LexDepth: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmbed2DBounded is BenchmarkEmbed2D's instance bounded at its
// unbounded fastest root arrival, the tightest status-quo bound that
// keeps the solve feasible.
func BenchmarkEmbed2DBounded(b *testing.B) {
	p := embedProblem(24, embed.Mode{LexDepth: 1})
	r, err := p.Solve()
	if err != nil {
		b.Fatal(err)
	}
	fast, _ := r.SelectFastest()
	p.Bound = fast.Sig.D[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmbedLex3(b *testing.B) {
	p := embedProblem(24, embed.Mode{LexDepth: 3})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmbedLex5(b *testing.B) {
	p := embedProblem(24, embed.Mode{LexDepth: 5})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmbedElmore(b *testing.B) {
	p := embedProblem(24, embed.Mode{LexDepth: 1, Delay: embed.ElmoreDelay, GateR: 0.5})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// The Parallel variants run the same instances with the worker pool at
// GOMAXPROCS; the serial benchmarks above (Parallelism unset) remain
// comparable across commits. Results are bit-identical either way —
// see determinism_test.go — so these measure scheduling overhead vs
// fan-out gain at the current core count.

func benchEmbedParallel(b *testing.B, mode embed.Mode) {
	p := embedProblem(24, mode)
	p.Parallelism = runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmbed2DParallel(b *testing.B) {
	benchEmbedParallel(b, embed.Mode{LexDepth: 1})
}

func BenchmarkEmbedLex3Parallel(b *testing.B) {
	benchEmbedParallel(b, embed.Mode{LexDepth: 3})
}

func benchNetlist(b *testing.B, luts int) *netlist.Netlist {
	b.Helper()
	spec, _ := circuits.ByName("apex2")
	s := spec.Spec(1)
	s.LUTs = luts
	s.Inputs, s.Outputs = 16, 16
	nl, err := circuits.Generate(s)
	if err != nil {
		b.Fatal(err)
	}
	return nl
}

// BenchmarkSTA times one full STA pass over a placed 2,000-LUT design.
func BenchmarkSTA(b *testing.B) {
	nl := benchNetlist(b, 2000)
	f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
	opts := place.Defaults()
	opts.Effort = 0.3
	pl, err := place.Place(nl, f, opts)
	if err != nil {
		b.Fatal(err)
	}
	dm := arch.DefaultDelayModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timing.Analyze(nl, pl, dm); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEngineIterate measures steady-state Fig. 11 iteration latency
// in the small-perturbation regime the frontier memo targets: the
// design is converged once (untimed), then every op nudges the LUT
// with the most timing slack between two slots and re-optimizes on the
// same engine — the interactive "move a cell, re-run" loop. The
// full/incremental pair differ only in Config.Incremental — their
// outputs are bit-identical (see internal/core
// TestIncrementalEngineMatchesFull) — so the ms/iter ratio is the pure
// win of the engine's exact reuse (node memo and iteration replay);
// reuse% reports the node memo's hit rate over the measured ops. The
// ops alternate two episodes (A, B, A, B), and the memo keeps only the
// previous solve's nodes, so an episode's first solve finds only what
// it shares with the other episode: this pattern measures the memo's
// worst case, not the accumulating edits the eco workload and
// production callers make.
func benchEngineIterate(b *testing.B, luts int, incremental bool) {
	nl := benchNetlist(b, luts)
	f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
	opts := place.Defaults()
	opts.Effort = 0.3
	pl, err := place.Place(nl, f, opts)
	if err != nil {
		b.Fatal(err)
	}
	dm := arch.DefaultDelayModel()
	cfg := core.Default()
	cfg.Incremental = incremental
	cfg.MaxIters = 60
	cfg.Patience = 8
	e := core.New(nl, pl, dm, cfg)
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
	// Perturbation: toggle the slack-richest LUT between its home slot
	// and the nearest free one — a real placement change whose timing
	// impact its slack absorbs, so the design stays converged.
	a, err := timing.Analyze(e.Netlist, e.Placement, dm)
	if err != nil {
		b.Fatal(err)
	}
	victim, slack := netlist.CellID(netlist.None), math.Inf(-1)
	e.Netlist.Cells(func(c *netlist.Cell) {
		if c.Kind != netlist.LUT || !e.Placement.Placed(c.ID) {
			return
		}
		if s := a.Period - a.Through[c.ID]; s > slack {
			victim, slack = c.ID, s
		}
	})
	if victim == netlist.None {
		b.Fatal("no placed LUT to perturb")
	}
	home := e.Placement.Loc(victim)
	alts := e.Placement.NearestFreeSlots(home, 2)
	if len(alts) == 0 {
		b.Fatal("no free slot for perturbation")
	}
	// Each op is one small-perturbation episode from the converged
	// base: restore the base (untimed harness work), nudge the victim,
	// re-optimize. The engine is deterministic, so episodes with the
	// same nudge replay identically; a memo that kept more than the
	// previous solve would serve them, the node memo does not.
	baseNL, basePL := e.Netlist.Clone(), e.Placement.Clone()
	episode := func(i int) {
		e.Netlist, e.Placement = baseNL.Clone(), basePL.Clone()
		e.Placement.Remove(victim)
		e.Placement.Place(victim, alts[i%len(alts)])
	}
	e.Config.MaxIters, e.Config.Patience = 3, 3
	var warm *core.Stats
	for i := 0; i < 4; i++ { // visit each episode twice before timing
		episode(i)
		if warm, err = e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	iters := 0
	var last *core.Stats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		episode(i)
		b.StartTimer()
		st, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		iters += st.Iterations
		last = st
	}
	b.StopTimer()
	if iters > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(iters), "ms/iter")
	}
	// Incremental counters are engine-lifetime cumulative; the delta
	// over the measured ops is the steady-state reuse rate.
	if last != nil {
		hits := last.Incremental.FrontierHits - warm.Incremental.FrontierHits
		misses := last.Incremental.FrontierMisses - warm.Incremental.FrontierMisses
		if hits+misses > 0 {
			b.ReportMetric(100*float64(hits)/float64(hits+misses), "reuse%")
		}
	}
}

func BenchmarkEngineIterate(b *testing.B) {
	for _, size := range []int{600, 2000} {
		for _, m := range []struct {
			name string
			inc  bool
		}{{"full", false}, {"incremental", true}} {
			b.Run(fmt.Sprintf("%s/luts=%d", m.name, size), func(b *testing.B) {
				benchEngineIterate(b, size, m.inc)
			})
		}
	}
}

func BenchmarkPlaceAnneal(b *testing.B) {
	b.ReportAllocs()
	nl := benchNetlist(b, 400)
	f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
	for i := 0; i < b.N; i++ {
		opts := place.Defaults()
		opts.Effort = 1
		opts.Seed = int64(i + 1)
		if _, err := place.Place(nl, f, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouteInfinite(b *testing.B) {
	b.ReportAllocs()
	nl := benchNetlist(b, 600)
	f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
	opts := place.Defaults()
	opts.Effort = 1
	pl, err := place.Place(nl, f, opts)
	if err != nil {
		b.Fatal(err)
	}
	dm := arch.DefaultDelayModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.Infinite(nl, pl, f, dm, route.Defaults()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouteLowStress(b *testing.B) {
	b.ReportAllocs()
	nl := benchNetlist(b, 300)
	f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
	opts := place.Defaults()
	opts.Effort = 1
	pl, err := place.Place(nl, f, opts)
	if err != nil {
		b.Fatal(err)
	}
	dm := arch.DefaultDelayModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := route.LowStress(nl, pl, f, dm, route.Defaults()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLegalize times the §V-A legalizer resolving a seeded set of
// stacked overlaps on the 600-LUT bench netlist: 40 LUTs each dropped
// onto another LUT's slot. Every op legalizes a fresh clone of the
// same overlapped placement (cloned outside the timer) on one reused
// Legalizer, as an engine does.
func BenchmarkLegalize(b *testing.B) {
	nl := benchNetlist(b, 600)
	f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
	opts := place.Defaults()
	opts.Effort = 0.3
	base, err := place.Place(nl, f, opts)
	if err != nil {
		b.Fatal(err)
	}
	var luts []netlist.CellID
	nl.Cells(func(c *netlist.Cell) {
		if c.Kind == netlist.LUT {
			luts = append(luts, c.ID)
		}
	})
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 40; k++ {
		mover, host := luts[rng.Intn(len(luts))], luts[rng.Intn(len(luts))]
		base.Place(mover, base.Loc(host))
	}
	dm := arch.DefaultDelayModel()
	a, err := timing.Analyze(nl, base, dm)
	if err != nil {
		b.Fatal(err)
	}
	leg := legal.New()
	b.ReportAllocs()
	b.ResetTimer()
	moves := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pl := base.Clone()
		b.StartTimer()
		st, err := leg.Run(nl, pl, dm, a)
		if err != nil {
			b.Fatal(err)
		}
		moves += st.Moves
	}
	b.ReportMetric(float64(moves)/float64(b.N), "moves/op")
}

// ---------------------------------------------------------------------
// Ablations of the design choices DESIGN.md calls out.

// ablationDesign builds one placed mid-size circuit for engine
// ablations.
func ablationDesign(b *testing.B) (*netlist.Netlist, *flow.Baseline) {
	b.Helper()
	cfg := benchCfg()
	cfg.SkipRouting = true
	spec, _ := circuits.ByName("seq")
	bl, err := flow.RunBaseline(spec, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return bl.Netlist, bl
}

func benchEngineConfig(b *testing.B, mutate func(*core.Config)) {
	_, bl := ablationDesign(b)
	dm := arch.DefaultDelayModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.Default()
		mutate(&cfg)
		eng := core.New(bl.Netlist.Clone(), bl.Placement.Clone(), dm, cfg)
		st, err := eng.Run()
		if err != nil {
			b.Fatal(err)
		}
		if st.FinalPeriod > st.InitialPeriod {
			b.Fatal("engine worsened the period")
		}
		b.ReportMetric(st.FinalPeriod/st.InitialPeriod, "period/VPR")
		b.ReportMetric(float64(st.Replicated-st.Unified), "net-repl")
	}
}

// BenchmarkAblationDefault is the reference row: the paper's
// configuration, against which each ablation below is read.
func BenchmarkAblationDefault(b *testing.B) {
	benchEngineConfig(b, func(*core.Config) {})
}

// BenchmarkAblationNoFFRelocation isolates the Section V-D FF
// relocation feature.
func BenchmarkAblationNoFFRelocation(b *testing.B) {
	benchEngineConfig(b, func(c *core.Config) { c.FFRelocation = false })
}

// BenchmarkWmin measures the channel-width binary search, the dominant
// cost of low-stress evaluation.
func BenchmarkWmin(b *testing.B) {
	b.ReportAllocs()
	nl := benchNetlist(b, 200)
	f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
	opts := place.Defaults()
	opts.Effort = 1
	pl, err := place.Place(nl, f, opts)
	if err != nil {
		b.Fatal(err)
	}
	dm := arch.DefaultDelayModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := route.MinChannelWidth(nl, pl, f, dm, route.Defaults())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(w), "wmin")
	}
}

// Example-level sanity: the shape claims should hold even at bench
// scale. This is a test (not a benchmark) so a plain `go test` at the
// repo root exercises one full pipeline end to end.
func TestShapeHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline; skipped in -short")
	}
	cfg := benchCfg()
	cfg.SkipRouting = true
	spec, _ := circuits.ByName("ex5p")
	bl, err := flow.RunBaseline(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := flow.RunAlgorithm(bl, flow.RTEmbed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Norm[0] > 1.0+1e-9 {
		t.Errorf("RT-Embedding worsened W-inf: %.3f", rt.Norm[0])
	}
	lr, err := flow.RunAlgorithm(bl, flow.LocalRep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: RT-Embedding beats local replication.
	if rt.Norm[0] > lr.Norm[0]+0.05 {
		t.Errorf("RT-Embedding (%.3f) should not lose clearly to local replication (%.3f)",
			rt.Norm[0], lr.Norm[0])
	}
	if math.IsNaN(rt.Norm[2]) || rt.Norm[2] <= 0 {
		t.Errorf("wire norm = %v", rt.Norm[2])
	}
	fmt.Printf("shape: RT %.3f vs LocalRep %.3f (normalized W-inf)\n", rt.Norm[0], lr.Norm[0])
}

// BenchmarkAblationCongestionFeedback exercises the Section VIII
// extension: the baseline's routed channel occupancy biases the
// embedding graph's wire costs.
func BenchmarkAblationCongestionFeedback(b *testing.B) {
	cfg := benchCfg()
	cfg.CongestionFeedback = true
	spec, _ := circuits.ByName("seq")
	bl, err := flow.RunBaseline(spec, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := flow.RunAlgorithm(bl, flow.RTEmbed, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Norm[0], "Winf/VPR")
		b.ReportMetric(r.Norm[2], "wire/VPR")
	}
}
