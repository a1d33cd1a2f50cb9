package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flow"
)

// raceTable is the metamorphic test seam: a deterministic per-variant
// outcome table (period or failure) plus injected per-variant delays.
// The delays perturb finish order — the thing the determinism rule must
// be blind to — while the outcomes fix what every variant computes.
type raceTable struct {
	period map[string]float64
	fail   map[string]bool
	delay  map[string]time.Duration
}

// runner turns the table into a Runner: each variant sleeps its
// injected delay, then reports its fixed period (or failure).
func (rt *raceTable) runner() Runner {
	return func(ctx context.Context, spec JobSpec) (*Result, error) {
		if d := rt.delay[spec.Algo]; d > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(d):
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if rt.fail[spec.Algo] {
			return nil, fmt.Errorf("variant %s: injected failure", spec.Algo)
		}
		p, ok := rt.period[spec.Algo]
		if !ok {
			return nil, fmt.Errorf("variant %s: no table entry", spec.Algo)
		}
		return &Result{Circuit: spec.Circuit, Algo: spec.Algo, OptimizedPeriod: p}, nil
	}
}

// refWinner is an independent restatement of the determinism rule,
// computed without running anything: earliest canonical-order variant
// meeting the bound; otherwise (bound 0 or nobody meets it) the best
// period among the successes, ties to canonical order. ok=false means
// every variant fails.
func refWinner(variants []string, tab *raceTable, bound float64) (winner string, met, ok bool) {
	if bound > 0 {
		for _, v := range variants {
			if !tab.fail[v] && tab.period[v] <= bound {
				return v, true, true
			}
		}
	}
	best := ""
	for _, v := range variants {
		if tab.fail[v] {
			continue
		}
		if best == "" || tab.period[v] < tab.period[best] {
			best = v
		}
	}
	return best, false, best != ""
}

// subsetVariants expands a bitmask over the canonical engine-variant
// list into a variant subset.
func subsetVariants(mask int) []string {
	names := flow.EngineAlgorithmNames()
	var out []string
	for i, n := range names {
		if mask&(1<<i) != 0 {
			out = append(out, n)
		}
	}
	return out
}

// TestRaceMetamorphic is the racing determinism suite: across every
// non-empty variant subset, randomized outcome tables, bounds, and
// injected per-variant delays, RunRace must return exactly the result
// of running the reference-rule winner alone — Float64bits-identical
// period — regardless of which variant finishes first.
func TestRaceMetamorphic(t *testing.T) {
	trials := 3
	if testing.Short() {
		trials = 1
	}
	rng := rand.New(rand.NewSource(9))
	delays := []time.Duration{0, time.Millisecond, 3 * time.Millisecond, 7 * time.Millisecond}
	for mask := 1; mask < 1<<len(flow.EngineAlgorithms); mask++ {
		variants := subsetVariants(mask)
		for trial := 0; trial < trials; trial++ {
			tab := &raceTable{
				period: map[string]float64{},
				fail:   map[string]bool{},
				delay:  map[string]time.Duration{},
			}
			for _, v := range variants {
				// Quarter-step periods keep every comparison float-exact.
				tab.period[v] = 8 + float64(rng.Intn(16))*0.25
				tab.fail[v] = rng.Intn(5) == 0
				tab.delay[v] = delays[rng.Intn(len(delays))]
			}
			var bound float64
			switch rng.Intn(4) {
			case 0:
				bound = 0 // unbounded: run everything, best period wins
			case 1:
				bound = 1 // impossible: nobody meets it
			case 2:
				bound = 100 // trivial: first success meets it
			default:
				bound = 8 + float64(rng.Intn(16))*0.25
			}
			spec := JobSpec{Circuit: "ex5p", Algo: AlgoRace, RaceVariants: variants, PeriodBound: bound}
			got, err := RunRace(context.Background(), spec, tab.runner())
			want, wantMet, wantOK := refWinner(variants, tab, bound)
			name := fmt.Sprintf("mask=%#x trial=%d bound=%v table=%+v", mask, trial, bound, tab)
			if !wantOK {
				if err == nil {
					t.Fatalf("%s: expected all-variants-failed error, got winner %q", name, got.RaceWinner)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: RunRace: %v", name, err)
			}
			if got.RaceWinner != want || got.RaceMetBound != wantMet {
				t.Fatalf("%s: winner %q (met=%v), reference rule says %q (met=%v)",
					name, got.RaceWinner, got.RaceMetBound, want, wantMet)
			}
			// The raced result must be the winner's solo result, bit
			// for bit: same runner, same spec, no race around it.
			solo := spec
			solo.Algo = want
			solo.RaceVariants = nil
			solo.PeriodBound = 0
			ref, err := tab.runner()(context.Background(), solo.Normalized())
			if err != nil {
				t.Fatalf("%s: solo run of winner: %v", name, err)
			}
			if math.Float64bits(got.OptimizedPeriod) != math.Float64bits(ref.OptimizedPeriod) {
				t.Fatalf("%s: raced period %x != solo period %x",
					name, math.Float64bits(got.OptimizedPeriod), math.Float64bits(ref.OptimizedPeriod))
			}
		}
	}
}

// TestRaceRealEngine races the actual engine on a small seeded
// instance at several Parallelism settings: the raced Result must be
// byte-identical (modulo race decoration and wall-clock telemetry) to
// executing the winning variant alone.
func TestRaceRealEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("real-engine race in -short mode")
	}
	base := JobSpec{Circuit: "ex5p", Scale: 0.05, Seed: 1, Effort: 0.5, MaxIters: 2}
	for _, par := range []int{1, 2, 4} {
		spec := base
		spec.Algo = AlgoRace
		spec.RaceVariants = []string{"rt", "lex3"}
		spec.Parallelism = par
		raced, err := RunRace(context.Background(), spec, ExecuteJob)
		if err != nil {
			t.Fatalf("par=%d: RunRace: %v", par, err)
		}
		if raced.RaceWinner == "" {
			t.Fatalf("par=%d: no winner recorded", par)
		}
		solo := base
		solo.Algo = raced.RaceWinner
		solo.Parallelism = par
		ref, err := ExecuteJob(context.Background(), solo)
		if err != nil {
			t.Fatalf("par=%d: solo %s: %v", par, raced.RaceWinner, err)
		}
		if math.Float64bits(raced.OptimizedPeriod) != math.Float64bits(ref.OptimizedPeriod) ||
			math.Float64bits(raced.PlacedPeriod) != math.Float64bits(ref.PlacedPeriod) {
			t.Fatalf("par=%d: raced periods (%x, %x) != solo (%x, %x)", par,
				math.Float64bits(raced.PlacedPeriod), math.Float64bits(raced.OptimizedPeriod),
				math.Float64bits(ref.PlacedPeriod), math.Float64bits(ref.OptimizedPeriod))
		}
		// Full structural identity, ignoring wall-clock telemetry and
		// the race decoration.
		a, b := *raced, *ref
		a.RaceWinner, a.RaceMetBound = "", false
		a.Phases, b.Phases = ref.Phases, ref.Phases
		a.PlaceSeconds, b.PlaceSeconds = 0, 0
		a.EngineSeconds, b.EngineSeconds = 0, 0
		a.RouteSeconds, b.RouteSeconds = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("par=%d: raced result drifted from solo run:\n  raced %+v\n  solo  %+v", par, a, b)
		}
	}
}

// TestRaceCancelsLosers: once the canonical-first variant meets the
// bound, later variants must be cancelled instead of running to their
// (long) completion — and every variant goroutine must be joined by
// the time RunRace returns.
func TestRaceCancelsLosers(t *testing.T) {
	before := runtime.NumGoroutine()
	var slowFinished atomic.Bool
	run := func(ctx context.Context, spec JobSpec) (*Result, error) {
		if spec.Algo == "rt" {
			return &Result{Algo: "rt", OptimizedPeriod: 5}, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(30 * time.Second):
			slowFinished.Store(true)
			return &Result{Algo: spec.Algo, OptimizedPeriod: 1}, nil
		}
	}
	spec := JobSpec{Circuit: "ex5p", Algo: AlgoRace, PeriodBound: 10}
	start := time.Now()
	res, err := RunRace(context.Background(), spec, run)
	if err != nil {
		t.Fatalf("RunRace: %v", err)
	}
	if res.RaceWinner != "rt" || !res.RaceMetBound {
		t.Fatalf("winner %q met=%v, want rt met=true", res.RaceWinner, res.RaceMetBound)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("race took %v: losers were not cancelled", elapsed)
	}
	if slowFinished.Load() {
		t.Fatal("a losing variant ran to completion despite cancellation")
	}
	if !goroutinesSettle(before, 5*time.Second) {
		t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
	}
}

// TestRaceLateWinnerWaitsForEarlier: a later-ordered variant that
// finishes first and meets the bound must NOT win while an
// earlier-ordered variant is still running — the earlier one finishes,
// meets the bound too, and takes the race. First-finisher-wins would
// fail this.
func TestRaceLateWinnerWaitsForEarlier(t *testing.T) {
	run := func(ctx context.Context, spec JobSpec) (*Result, error) {
		d := time.Duration(0)
		if spec.Algo == "rt" {
			d = 100 * time.Millisecond // canonical-first, slowest
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(d):
		}
		return &Result{Algo: spec.Algo, OptimizedPeriod: 5}, nil
	}
	spec := JobSpec{Circuit: "ex5p", Algo: AlgoRace, RaceVariants: []string{"rt", "lex5"}, PeriodBound: 10}
	res, err := RunRace(context.Background(), spec, run)
	if err != nil {
		t.Fatalf("RunRace: %v", err)
	}
	if res.RaceWinner != "rt" {
		t.Fatalf("winner %q: a fast later-ordered finisher stole the race from rt", res.RaceWinner)
	}
}

// TestRaceAllFail: the aggregate error must name every variant, in
// canonical order, so the failure is as deterministic as a result.
func TestRaceAllFail(t *testing.T) {
	run := func(ctx context.Context, spec JobSpec) (*Result, error) {
		return nil, fmt.Errorf("%s exploded", spec.Algo)
	}
	spec := JobSpec{Circuit: "ex5p", Algo: AlgoRace, RaceVariants: []string{"lex3", "rt"}}
	_, err := RunRace(context.Background(), spec, run)
	if err == nil {
		t.Fatal("expected error when every variant fails")
	}
	if !strings.Contains(err.Error(), "rt: rt exploded; lex3: lex3 exploded") {
		t.Fatalf("aggregate error not in canonical order: %v", err)
	}
}

// TestRacePanicIsolation: a panicking variant loses the race as a
// failure; the survivors still decide a winner.
func TestRacePanicIsolation(t *testing.T) {
	run := func(ctx context.Context, spec JobSpec) (*Result, error) {
		if spec.Algo == "rt" {
			panic("rt blew up")
		}
		return &Result{Algo: spec.Algo, OptimizedPeriod: 7}, nil
	}
	spec := JobSpec{Circuit: "ex5p", Algo: AlgoRace, RaceVariants: []string{"rt", "lex3"}, PeriodBound: 10}
	res, err := RunRace(context.Background(), spec, run)
	if err != nil {
		t.Fatalf("RunRace: %v", err)
	}
	if res.RaceWinner != "lex3" {
		t.Fatalf("winner %q, want lex3 after rt panicked", res.RaceWinner)
	}
}

// TestRaceParentCancel: cancelling the job context cancels the whole
// race promptly, like any single-variant job.
func TestRaceParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	spec := JobSpec{Circuit: "ex5p", Algo: AlgoRace}
	_, err := RunRace(ctx, spec, sleepRunner(30*time.Second))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
}

// TestRaceThroughManager drives a raced job through Submit/Wait: the
// manager routes Algo=race through the speculative layer with the
// configured Runner as the per-variant seam, and the counters record
// the race and its cancelled losers.
func TestRaceThroughManager(t *testing.T) {
	// The losers counter counts variants still running at the decision.
	// So no variant before lex4 may meet the bound and cancel lex4/lex5
	// early (a cancelled variant reports back and no longer counts), and
	// lexmc finishes well after rt, so its completion is the deciding
	// one. The delays end on cancellation, so the long ones cost nothing.
	tab := &raceTable{
		period: map[string]float64{"rt": 9, "lexmc": 8, "lex2": 8.8, "lex3": 8.6, "lex4": 5, "lex5": 4},
		fail:   map[string]bool{},
		delay: map[string]time.Duration{
			"lexmc": 100 * time.Millisecond,
			"lex4":  10 * time.Second,
			"lex5":  10 * time.Second,
		},
	}
	m := NewManager(Config{Workers: 1, Runner: tab.runner()})
	defer m.Shutdown(context.Background())
	st, err := m.Submit(JobSpec{Circuit: "ex5p", Algo: AlgoRace, PeriodBound: 8.5, QoS: QoSDeadline})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final, err := m.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("state %s (err %q), want done", final.State, final.Error)
	}
	// lexmc is the earliest canonical variant meeting the 8.5 bound.
	if final.Result == nil || final.Result.RaceWinner != "lexmc" {
		t.Fatalf("result %+v, want winner lexmc", final.Result)
	}
	c := m.Counters()
	if c.Races != 1 {
		t.Fatalf("races counter %d, want 1", c.Races)
	}
	if c.RaceLosersCancelled == 0 {
		t.Fatal("expected cancelled losers (lex4/lex5 were delayed past the decision)")
	}
	if c.JobsDeadline != 1 {
		t.Fatalf("deadline counter %d, want 1", c.JobsDeadline)
	}
}
