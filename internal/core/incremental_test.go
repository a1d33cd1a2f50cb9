package core

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuits"
	"repro/internal/place"
)

// randomDesign generates a seeded synthetic circuit and places it with
// the analytic placer, giving the engine a realistic starting point.
func randomDesign(t *testing.T, seed int64, luts, gridN int) *design {
	t.Helper()
	nl, err := circuits.Generate(circuits.Spec{
		Name: "incprop", LUTs: luts, Inputs: 4, Outputs: 3,
		RegisteredFrac: 0.2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	po := place.Defaults()
	po.Effort = 1
	po.Seed = seed
	pl, err := place.Place(nl, arch.New(gridN), po)
	if err != nil {
		t.Fatal(err)
	}
	return &design{nl: nl, pl: pl}
}

// runWith optimizes a fresh copy of the seeded design under cfg and
// returns the canonical result plus the run's stats.
func runWith(t *testing.T, seed int64, cfg Config) (string, float64, *Stats) {
	t.Helper()
	d := randomDesign(t, seed, 18, 8)
	e := New(d.nl, d.pl, dm(), cfg)
	st, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return snapshot(e.Netlist, e.Placement), st.FinalPeriod, st
}

// TestIncrementalEngineMatchesFull pins the engine-level exactness
// contract: with the incremental machinery on (and self-verifying),
// the optimized design must be bit-identical to the full engine's.
func TestIncrementalEngineMatchesFull(t *testing.T) {
	for seed := int64(31); seed <= 33; seed++ {
		full := Default()
		full.Incremental = false
		fullSnap, fullPeriod, _ := runWith(t, seed, full)

		inc := Default()
		inc.Incremental = true
		inc.VerifyIncremental = true
		incSnap, incPeriod, st := runWith(t, seed, inc)

		if math.Float64bits(fullPeriod) != math.Float64bits(incPeriod) {
			t.Fatalf("seed %d: incremental period %v, full %v", seed, incPeriod, fullPeriod)
		}
		if fullSnap != incSnap {
			t.Fatalf("seed %d: designs diverge:\n--- full\n%s--- incremental\n%s", seed, fullSnap, incSnap)
		}
		if st.Incremental.FrontierHits+st.Incremental.FrontierMisses == 0 {
			t.Fatalf("seed %d: incremental run recorded no frontier activity: %+v", seed, st.Incremental)
		}
	}
}

// TestIncrementalTelemetryFlows checks the run stats surface the
// frontier memos' traffic and count every analysis and tree the run
// computed.
func TestIncrementalTelemetryFlows(t *testing.T) {
	cfg := Default()
	cfg.VerifyIncremental = true
	_, _, st := runWith(t, 51, cfg)
	is := st.Incremental
	if is.FrontierHits+is.FrontierMisses == 0 {
		t.Fatalf("no frontier cache traffic recorded: %+v", is)
	}
	// Every iteration analyzes once and builds at most one tree, and
	// the run adds an initial and a final analysis.
	if is.STAFullRuns < st.Iterations || is.SPTRebuilds == 0 || is.SPTRebuilds > is.STAFullRuns {
		t.Fatalf("analyses and trees disagree with %d iterations: %+v", st.Iterations, is)
	}
	if is.STAUpdates+is.STAFallbacks+is.SPTHits+is.SPTPatches != 0 {
		t.Fatalf("counters of the removed STA and SPT reuse are not zero: %+v", is)
	}
}
