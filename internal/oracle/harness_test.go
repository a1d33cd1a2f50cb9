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

// TestIncrementalDifferential pins the frontier memo's exactness claim
// end to end: solves the memo served, in part or from its root slot,
// must reproduce the unmemoized engine's optimized design bit for bit,
// with in-run verification re-solving every memoized frontier from
// scratch. The runs together must serve a root from the slot, so that
// verification covers slot hits too.
func TestIncrementalDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	runs := 4
	if testing.Short() {
		runs = 2
	}
	slotHits := 0
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
		slotHits += inc.FrontierHits
	}
	if slotHits == 0 {
		t.Fatal("no run served a root from the slot")
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
