package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuits"
	"repro/internal/embed"
	"repro/internal/netlist"
	"repro/internal/place"
)

// replayDesigns are the flow benchmark's stand-ins of four Table I
// circuits at scale 0.05, placed at effort 1.
var replayDesigns = []string{"ex5p", "tseng", "apex2", "seq"}

// newStandIn places a stand-in under seed and returns a serial engine
// over it under cfg.
func newStandIn(t *testing.T, name string, seed int64, cfg Config) *Engine {
	t.Helper()
	mc, ok := circuits.ByName(name)
	if !ok {
		t.Fatalf("no circuit %s", name)
	}
	spec := mc.Spec(0.05)
	spec.Seed = seed
	nl, err := circuits.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	dm := arch.DefaultDelayModel()
	po := place.Defaults()
	po.Seed, po.Effort, po.Delay = seed, 1, dm
	pl, err := place.Place(nl, arch.MinSquare(nl.NumLUTs(), nl.NumIOs()), po)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 1
	return New(nl, pl, dm, cfg)
}

// runStandIn optimizes a stand-in and returns the canonical result
// plus the run's stats.
func runStandIn(t *testing.T, name string, seed int64, cfg Config) (string, *Stats) {
	t.Helper()
	e := newStandIn(t, name, seed, cfg)
	st, err := e.Run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return snapshot(e.Netlist, e.Placement), st
}

// statsEqual reports the first difference between two runs' outcome
// statistics, periods compared bit for bit.
func statsEqual(a, b *Stats) string {
	bits := math.Float64bits
	switch {
	case a.Iterations != b.Iterations || len(a.PerIter) != len(b.PerIter):
		return "iteration counts differ"
	case a.Replicated != b.Replicated || a.Unified != b.Unified || a.FFRelocations != b.FFRelocations:
		return "replicated, unified or relocated counts differ"
	case bits(a.InitialPeriod) != bits(b.InitialPeriod) || bits(a.FinalPeriod) != bits(b.FinalPeriod):
		return "initial or final periods differ"
	case a.StoppedEarly != b.StoppedEarly:
		return "StoppedEarly differs"
	}
	for i, x := range a.PerIter {
		y := b.PerIter[i]
		if x.Iter != y.Iter || bits(x.Period) != bits(y.Period) || x.Replicated != y.Replicated || x.Unified != y.Unified {
			return fmt.Sprintf("PerIter differs at iteration %d", x.Iter)
		}
	}
	return ""
}

// TestReplayMatchesFullRun pins replay's exactness on the designs where
// most iterations revert: each stand-in, under RT-Embedding and Lex-3,
// optimized with Config.Incremental on (node memo and replay) and off
// must give the same statistics and the same netlist and placement.
// Together the runs must replay; the last one replays iterations that
// relocate a register.
func TestReplayMatchesFullRun(t *testing.T) {
	type run struct {
		name string
		seed int64
		lex  int
	}
	var runs []run
	for i, name := range replayDesigns {
		runs = append(runs, run{name, int64(1 + 2*i), 1}, run{name, int64(2 + 2*i), 3})
	}
	runs = append(runs, run{"tseng", 11, 3})
	replays := 0
	for _, r := range runs {
		cfg := Default()
		cfg.Mode = embed.Mode{LexDepth: r.lex}
		cfg.Incremental = false
		fullSnap, full := runStandIn(t, r.name, r.seed, cfg)
		cfg.Incremental = true
		incSnap, inc := runStandIn(t, r.name, r.seed, cfg)
		if d := statsEqual(full, inc); d != "" {
			t.Fatalf("%s seed %d Lex-%d: %s: full %d iterations, replayed %d", r.name, r.seed, r.lex, d, full.Iterations, inc.Iterations)
		}
		if fullSnap != incSnap {
			t.Fatalf("%s seed %d Lex-%d: designs diverge", r.name, r.seed, r.lex)
		}
		replays += inc.Incremental.Replays
	}
	if replays == 0 {
		t.Fatal("no design replayed an iteration")
	}
}

// TestReplayVerifyCatchesCorruptRecord corrupts every revert record's
// replicated count as it is kept: VerifyIncremental runs each replayed
// iteration in full and must fail the run on the mismatch.
func TestReplayVerifyCatchesCorruptRecord(t *testing.T) {
	cfg := Default()
	cfg.VerifyIncremental = true
	if _, st := runStandIn(t, "ex5p", 1, cfg); st.Incremental.Replays == 0 {
		t.Fatal("the design replays no iteration; the corruption would go unread")
	}
	e := newStandIn(t, "ex5p", 1, cfg)
	e.recordHook = func(r *revertRecord) { r.delta.Replicated++ }
	_, err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "replayed iteration") {
		t.Fatalf("a corrupt replay record passed verification: %v", err)
	}
}

// TestReplayVerifyCatchesStaleSPT swaps every revert record's SPT for
// one frozen at the recorded members: no other cell ever falls inside
// ε, so later iterations replay the recorded tree at any ε, whether or
// not the live objects' own SPT still gives it. VerifyIncremental
// rebuilds the SPT and tree from the live objects and must fail the
// run where they differ.
func TestReplayVerifyCatchesStaleSPT(t *testing.T) {
	cfg := Default()
	cfg.VerifyIncremental = true
	e := newStandIn(t, "ex5p", 1, cfg)
	e.recordHook = func(r *revertRecord) {
		spt := r.x.spt
		members := spt.Epsilon(e.eps)
		trimMembers(spt, members, maxTreeInternal)
		frozen := *spt
		frozen.PathThrough = make(map[netlist.CellID]float64, len(spt.PathThrough))
		for id, pt := range spt.PathThrough {
			if !members[id] {
				pt = math.Inf(-1)
			}
			frozen.PathThrough[id] = pt
		}
		r.x.spt = &frozen
	}
	_, err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "fresh SPT") {
		t.Fatalf("a stale SPT passed verification: %v", err)
	}
}
