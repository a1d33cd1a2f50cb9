package oracle

import (
	"math/rand"
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

// TestIncrementalDifferential pins the frontier memos' exactness claim
// end to end: frontier-cache hits and memo-served solves must
// reproduce the unmemoized engine's optimized design bit for bit, with
// in-run verification re-solving every memoized frontier from scratch.
func TestIncrementalDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	runs := 4
	if testing.Short() {
		runs = 2
	}
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
