package oracle

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/place"
)

func harnessDelay() arch.DelayModel {
	return arch.DelayModel{SegDelay: 1, LUTDelay: 2, IODelay: 0.5}
}

func harnessConfig() core.Config {
	cfg := core.Default()
	cfg.MaxIters = 8
	cfg.Patience = 4
	return cfg
}

func harnessOptions(spec circuits.Spec) EngineCheckOptions {
	po := place.Defaults()
	po.Effort = 1
	po.Seed = spec.Seed
	return EngineCheckOptions{
		Spec:      spec,
		GridN:     8,
		PlaceOpts: po,
		Config:    harnessConfig(),
		Delay:     harnessDelay(),
		Equiv:     EquivOptions{Seed: spec.Seed},
	}
}

// TestEngineDifferential drives randomized circuits through the full
// pipeline, checking serial/parallel bit-identity, structural
// invariants, timing monotonicity, and functional equivalence.
func TestEngineDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	runs := 6
	if testing.Short() {
		runs = 2
	}
	for i := 0; i < runs; i++ {
		spec := circuits.Spec{
			Name:    "diff",
			LUTs:    10 + rng.Intn(12),
			Inputs:  3 + rng.Intn(3),
			Outputs: 2 + rng.Intn(2),
			Seed:    rng.Int63n(1 << 30),
		}
		if i%2 == 1 {
			spec.RegisteredFrac = 0.3
		}
		rep, err := CheckEngine(harnessOptions(spec))
		if err != nil {
			t.Fatalf("run %d (seed %d): %v", i, spec.Seed, err)
		}
		if rep.Final > rep.Baseline {
			t.Fatalf("run %d: report says final %v > baseline %v", i, rep.Final, rep.Baseline)
		}
	}
}

// TestIncrementalDifferential pins the exactness claim of the engine's
// reuse end to end: solves the node memo served in part, and replayed
// iterations, must reproduce the full engine's optimized design bit for
// bit, with in-run verification re-solving every memoized frontier from
// scratch and running every replayed iteration in full. The runs
// together must replay an iteration, so that verification covers
// replay too.
func TestIncrementalDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	runs := 4
	if testing.Short() {
		runs = 2
	}
	replays := 0
	for i := 0; i < runs; i++ {
		spec := circuits.Spec{
			Name:    "incdiff",
			LUTs:    12 + rng.Intn(14),
			Inputs:  3 + rng.Intn(3),
			Outputs: 2 + rng.Intn(2),
			Seed:    rng.Int63n(1 << 30),
		}
		if i%2 == 1 {
			spec.RegisteredFrac = 0.3
		}
		opt := harnessOptions(spec)
		opt.ParallelWorkers = 1 + i%2*3
		st, err := CheckIncremental(opt)
		if err != nil {
			t.Fatalf("run %d (seed %d): %v", i, spec.Seed, err)
		}
		inc := st.Incremental
		if inc.FrontierHits+inc.FrontierMisses == 0 {
			t.Fatalf("run %d: incremental run recorded no frontier activity: %+v", i, inc)
		}
		replays += inc.Replays
	}
	if replays == 0 {
		t.Fatal("no run replayed an iteration")
	}
}

// TestRenameInvariance pins name-blindness: prefixing every cell name
// must not change any engine decision.
func TestRenameInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	runs := 3
	if testing.Short() {
		runs = 1
	}
	for i := 0; i < runs; i++ {
		spec := circuits.Spec{
			Name:    "ren",
			LUTs:    10 + rng.Intn(10),
			Inputs:  3 + rng.Intn(3),
			Outputs: 2,
			Seed:    rng.Int63n(1 << 30),
		}
		if err := CheckRenameInvariance(harnessOptions(spec), "zz_"); err != nil {
			t.Fatalf("run %d (seed %d): %v", i, spec.Seed, err)
		}
	}
}

// TestTranslationInvariance pins geometry-blindness: a pad-free design
// translated across the fabric interior must optimize to an exact
// translate of the base result.
func TestTranslationInvariance(t *testing.T) {
	cfg := harnessConfig()
	cfg.FFRelocation = false
	cfg.MaxIters = 6
	runs := 3
	if testing.Short() {
		runs = 1
	}
	shifts := [][2]int16{{2, 0}, {-2, 1}, {1, -2}}
	for i := 0; i < runs; i++ {
		s := shifts[i%len(shifts)]
		if err := CheckTranslationInvariance(int64(20+i), 48, cfg, harnessDelay(), s[0], s[1]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEquivalentCatchesRewire pins the checker's teeth: moving a sink
// pin to a non-equivalent driver must be detected.
func TestEquivalentCatchesRewire(t *testing.T) {
	nl, err := circuits.Generate(circuits.Spec{
		Name: "teeth", LUTs: 12, Inputs: 4, Outputs: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := nl.Clone()
	// Move one output pad's pin to a different, non-equivalent driver.
	var pad, oldDriver netlist.CellID = netlist.None, netlist.None
	bad.Cells(func(c *netlist.Cell) {
		if pad == netlist.None && c.Kind == netlist.OPad {
			pad = c.ID
			oldDriver = bad.Net(c.Fanin[0]).Driver
		}
	})
	moved := false
	bad.Cells(func(c *netlist.Cell) {
		if !moved && c.Kind == netlist.LUT && !bad.Equivalent(c.ID, oldDriver) {
			bad.Connect(pad, 0, c.Out)
			moved = true
		}
	})
	if !moved {
		t.Fatal("no alternative driver found")
	}
	if err := Equivalent(nl, bad, EquivOptions{Seed: 1}); err == nil {
		t.Fatal("Equivalent accepted a rewired output pad")
	}
}

// TestEquivalentNamesSinks reaches each sink-pin failure of the
// checker — a pin whose value differs, one that disappeared, one that
// appeared, and two replicas latching different values — and checks
// that every message names the sink cells it is about.
func TestEquivalentNamesSinks(t *testing.T) {
	// The LUT f reads i0 and i1, the LUT g reads i0 alone, and their
	// pseudo-functions differ on some vector. The output pad "out"
	// observes f and the register "reg" observes g; with extra, a
	// second pad "extra" observes g too.
	build := func(extra bool) *netlist.Netlist {
		nl := netlist.New("names")
		nl.AddCell("i0", netlist.IPad, 0)
		nl.AddCell("i1", netlist.IPad, 0)
		f := nl.AddCell("f", netlist.LUT, 2).ID
		nl.ConnectByName(f, 0, "i0")
		nl.ConnectByName(f, 1, "i1")
		nl.ConnectByName(nl.AddCell("g", netlist.LUT, 1).ID, 0, "i0")
		nl.ConnectByName(nl.AddCell("out", netlist.OPad, 1).ID, 0, "f")
		reg := nl.AddCell("reg", netlist.LUT, 1)
		reg.Registered = true
		nl.ConnectByName(reg.ID, 0, "g")
		if extra {
			nl.ConnectByName(nl.AddCell("extra", netlist.OPad, 1).ID, 0, "g")
		}
		return nl
	}
	cell := func(nl *netlist.Netlist, name string) netlist.CellID {
		id, ok := nl.CellByName(name)
		if !ok {
			t.Fatalf("no cell %s", name)
		}
		return id
	}
	want := func(err error, parts ...string) {
		t.Helper()
		if err == nil {
			t.Fatalf("Equivalent accepted the netlists; want an error with %q", parts)
		}
		for _, p := range parts {
			if !strings.Contains(err.Error(), p) {
				t.Errorf("error %q lacks %q", err, p)
			}
		}
	}
	opt := EquivOptions{Seed: 1}

	a := build(false)
	rewired := a.Clone()
	rewired.Connect(cell(rewired, "out"), 0, rewired.Cell(cell(rewired, "g")).Out)
	want(Equivalent(a, rewired, opt), "sink out (class", "differs")

	want(Equivalent(build(true), a, opt), "e.g. extra)", "disappeared")
	want(Equivalent(a, build(true), opt), "e.g. extra)", "appeared from nowhere")

	split := a.Clone()
	rep := split.Replicate(cell(split, "reg"))
	repID, repName := rep.ID, rep.Name
	split.Connect(repID, 0, split.Cell(cell(split, "f")).Out)
	want(Equivalent(a, split, opt), "reg", repName, "latch different pin-0 values")
}

// TestPseudoLUTSeparatesClasses counts the class pairs among 0–511
// whose pseudo-functions share a truth table, for 2-, 3- and 4-input
// LUTs, against the C(512, 2) / 2^(2^k) pairs that independent random
// functions share on average (8,176, 511 and 2). A sink rewired
// between two classes with a shared truth table would pass
// Equivalent, so a hash that clusters classes weakens the check.
func TestPseudoLUTSeparatesClasses(t *testing.T) {
	for _, tc := range []struct{ k, lo, hi int }{
		{2, 7400, 9000},
		{3, 420, 610},
		{4, 0, 10},
	} {
		fanin := make([]netlist.NetID, tc.k)
		for i := range fanin {
			fanin[i] = netlist.NetID(i)
		}
		val := make([]bool, tc.k)
		tables := map[uint64]int{}
		pairs := 0
		for e := netlist.EquivID(0); e < 512; e++ {
			var table uint64
			for v := 0; v < 1<<tc.k; v++ {
				for i := range val {
					val[i] = v>>i&1 == 1
				}
				if pseudoLUT(e, fanin, val) {
					table |= 1 << v
				}
			}
			pairs += tables[table]
			tables[table]++
		}
		if pairs < tc.lo || pairs > tc.hi {
			t.Errorf("%d-input LUTs: %d class pairs share a truth table, want %d to %d", tc.k, pairs, tc.lo, tc.hi)
		}
	}

	// f and g read the same two inputs; rewiring the pad that observes
	// f to g must change what the pad sees.
	nl := netlist.New("pair")
	nl.AddCell("i0", netlist.IPad, 0)
	nl.AddCell("i1", netlist.IPad, 0)
	for _, name := range []string{"f", "g"} {
		c := nl.AddCell(name, netlist.LUT, 2).ID
		nl.ConnectByName(c, 0, "i0")
		nl.ConnectByName(c, 1, "i1")
	}
	nl.ConnectByName(nl.AddCell("out", netlist.OPad, 1).ID, 0, "f")
	f, _ := nl.CellByName("f")
	g, _ := nl.CellByName("g")
	if ef, eg := nl.Cell(f).Equiv, nl.Cell(g).Equiv; ef != 2 || eg != 3 {
		t.Fatalf("f and g are classes %d and %d, want 2 and 3", ef, eg)
	}
	rewired := nl.Clone()
	out, _ := rewired.CellByName("out")
	rewired.Connect(out, 0, rewired.Cell(g).Out)
	if err := Equivalent(nl, rewired, EquivOptions{Seed: 1}); err == nil {
		t.Error("Equivalent accepted the pad rewired from f (class 2) to g (class 3)")
	}
}
