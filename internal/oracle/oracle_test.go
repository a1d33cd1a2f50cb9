package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/embed"
)

// agreementRuns returns the instance count per mode: the full suite
// sweeps enough randomized instances to satisfy the oracle-agreement
// bar; -short keeps the race/CI loop snappy.
func agreementRuns(t *testing.T, full int) int {
	if testing.Short() {
		if full > 60 {
			return 60
		}
		return full
	}
	return full
}

// testAgreement cross-checks the DP against the brute-force oracle on
// n seeded random instances: the frontier must match bitwise, and an
// infeasible DP run must correspond to an empty oracle frontier.
func testAgreement(t *testing.T, mode embed.Mode, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	feasible := 0
	for i := 0; i < n; i++ {
		p := GenProblem(rng, mode)
		if i%3 == 2 {
			p.Parallelism = 2 // parallel joins must agree bitwise too
		}
		want, oerr := Frontier(p)
		if oerr != nil {
			t.Fatalf("instance %d: oracle refused: %v", i, oerr)
		}
		r, err := p.Solve()
		if err != nil {
			if len(want) != 0 {
				t.Errorf("instance %d: Solve says infeasible (%v) but oracle found %d solutions",
					i, err, len(want))
			}
			continue
		}
		feasible++
		if derr := Diff(r.Frontier, want); derr != nil {
			t.Errorf("instance %d (seed %d): %v", i, seed, derr)
		}
	}
	if feasible < n/2 {
		t.Errorf("only %d/%d instances feasible; generator is degenerate", feasible, n)
	}
}

func TestAgreementPlain(t *testing.T) {
	testAgreement(t, embed.Mode{LexDepth: 1}, agreementRuns(t, 220), 1)
}

func TestAgreementLex3(t *testing.T) {
	testAgreement(t, embed.Mode{LexDepth: 3}, agreementRuns(t, 220), 2)
}

func TestAgreementLexMC(t *testing.T) {
	testAgreement(t, embed.Mode{LexDepth: 2, MC: true}, agreementRuns(t, 220), 3)
}

func TestAgreementQuadratic(t *testing.T) {
	testAgreement(t, embed.Mode{LexDepth: 1, Delay: embed.QuadraticDelay}, agreementRuns(t, 120), 4)
}

func TestAgreementElmore(t *testing.T) {
	testAgreement(t, embed.Mode{LexDepth: 1, Delay: embed.ElmoreDelay, GateR: 0.5}, agreementRuns(t, 120), 5)
}

func TestAgreementOverlapControl(t *testing.T) {
	testAgreement(t, embed.Mode{LexDepth: 1, OverlapControl: true}, agreementRuns(t, 120), 6)
}

func TestAgreementLex5Elmore(t *testing.T) {
	testAgreement(t, embed.Mode{LexDepth: 5, Delay: embed.ElmoreDelay, GateR: 0.25}, agreementRuns(t, 80), 7)
}

// TestOracleRejectsInexactMode pins the exact-mode guard: the capped
// solver has no ground truth, so the oracle must refuse it rather than
// report spurious disagreement.
func TestOracleRejectsInexactMode(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := GenProblem(rng, embed.Mode{LexDepth: 1})
	p.MaxPerVertex = 4
	if _, err := Frontier(p); err == nil {
		t.Fatal("oracle accepted MaxPerVertex > 0")
	}
}

// TestBoundedAgreement pins the status-quo bound's exactness claim: in
// exact mode, a fixed-root solve bounded by T returns the brute-force
// frontier restricted to root arrival ≤ T, bit for bit (only the
// provenance of equal signatures may differ, and signatures and
// vertices are what is compared). T takes the fastest root arrival and
// the midpoint between the fastest and the slowest, so both a boundary
// tie and a proper cut are exercised. Each bound is solved serially,
// with two workers, and through a node memo whose every result is
// checked against a fresh solve, as the engine's VerifyIncremental
// does; the memo sees the midpoint, then the fastest, then the
// midpoint again, so a bound must never be served another's nodes.
func TestBoundedAgreement(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode embed.Mode
		seed int64
	}{
		{"plain", embed.Mode{LexDepth: 1}, 21},
		{"lex3", embed.Mode{LexDepth: 3}, 22},
		{"lexmc", embed.Mode{LexDepth: 2, MC: true}, 23},
		{"overlap", embed.Mode{LexDepth: 1, OverlapControl: true}, 24},
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		cuts := 0
		for i, n := 0, agreementRuns(t, 400); i < n; i++ {
			p := GenProblem(rng, tc.mode)
			if p.T.Nodes[p.T.Root].Vertex < 0 {
				continue // a free root ignores the bound
			}
			all, err := Frontier(p)
			if err != nil {
				t.Fatalf("%s instance %d: oracle refused: %v", tc.name, i, err)
			}
			if len(all) == 0 {
				continue
			}
			fastest, slowest := math.Inf(1), math.Inf(-1)
			for _, pt := range all {
				fastest = math.Min(fastest, pt.Sig.D[0])
				slowest = math.Max(slowest, pt.Sig.D[0])
			}
			mid := (fastest + slowest) / 2 // dyadic, so exact
			memo := embed.NewNodeMemo()
			for _, bound := range []float64{mid, fastest, mid} {
				if bound <= 0 {
					continue // zero leaves a solve unbounded
				}
				var want []Point
				for _, pt := range all {
					if pt.Sig.D[0] <= bound {
						want = append(want, pt)
					}
				}
				if len(want) < len(all) {
					cuts++
				}
				q := *p
				q.Bound = bound
				for _, workers := range []int{1, 2} {
					q.Parallelism = workers
					r, err := q.Solve()
					if err != nil {
						t.Fatalf("%s instance %d bound %v workers %d: %v", tc.name, i, bound, workers, err)
					}
					if derr := Diff(r.Frontier, want); derr != nil {
						t.Errorf("%s instance %d bound %v workers %d: %v", tc.name, i, bound, workers, derr)
					}
				}
				q.Parallelism = 1
				fresh, err := q.Solve()
				if err != nil {
					t.Fatalf("%s instance %d bound %v: %v", tc.name, i, bound, err)
				}
				q.Memo = memo
				got, err := q.Solve()
				if err != nil {
					t.Fatalf("%s instance %d bound %v memo: %v", tc.name, i, bound, err)
				}
				if derr := sameResult(got, fresh); derr != nil {
					t.Errorf("%s instance %d bound %v: memoized solve differs from a fresh one: %v", tc.name, i, bound, derr)
				}
			}
		}
		if cuts == 0 {
			t.Errorf("%s: no bound cut any frontier; the check proves nothing", tc.name)
		}
		t.Logf("%s: %d bounded solves cut the frontier", tc.name, cuts)
	}
}

// sameResult compares two results of one problem as the engine's
// VerifyIncremental does: every frontier point's vertex and signature
// bits, and the embedding extracted from it.
func sameResult(got, want *embed.Result) error {
	if len(got.Frontier) != len(want.Frontier) {
		return fmt.Errorf("frontier has %d points, want %d", len(got.Frontier), len(want.Frontier))
	}
	for i := range want.Frontier {
		g, w := got.Frontier[i], want.Frontier[i]
		if g.Vertex != w.Vertex || g.Sig != w.Sig {
			return fmt.Errorf("frontier[%d] = v%d %+v, want v%d %+v", i, g.Vertex, g.Sig, w.Vertex, w.Sig)
		}
		ge, we := got.Extract(g), want.Extract(w)
		if !slices.Equal(ge.NodeVertex, we.NodeVertex) || !slices.EqualFunc(ge.Routes, we.Routes, slices.Equal) ||
			math.Float64bits(ge.WireCost) != math.Float64bits(we.WireCost) {
			return fmt.Errorf("frontier[%d] extracts %+v, want %+v", i, ge, we)
		}
	}
	return nil
}
