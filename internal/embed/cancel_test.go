package embed

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// cutCtx is a context whose Err turns to context.Canceled at its cut-th
// call and stays there. Every cancellation poll of the DP calls Err, so
// the cut is a deterministic position in the poll sequence.
type cutCtx struct {
	context.Context
	calls atomic.Int64
	cut   int64
}

func (c *cutCtx) Err() error {
	if c.calls.Add(1) >= c.cut {
		return context.Canceled
	}
	return nil
}

// TestSolveContextCancelParallel cuts a parallel solve at every
// cancellation poll in turn. At each cut the solve either fails with
// context.Canceled or returns the serial result bit for bit; it never
// returns a partial curve. A cut inside a level sends that level's
// worker goroutines down their cancelled branches concurrently, so
// under -race this is the test that executes those branches.
func TestSolveContextCancelParallel(t *testing.T) {
	p := randomProblem(3, 6, 6, 8, Mode{LexDepth: 1}, false)
	serial := *p
	serial.Parallelism = 1
	want, err := serial.Solve()
	if err != nil {
		t.Fatalf("serial solve: %v", err)
	}
	cancelled := 0
	for cut := int64(1); ; cut++ {
		if cut > 10000 {
			t.Fatal("solve still cancelled after 10000 polls")
		}
		par := *p
		par.Parallelism = 4
		got, err := par.SolveContext(&cutCtx{Context: context.Background(), cut: cut})
		if errors.Is(err, context.Canceled) {
			if got != nil {
				t.Fatalf("cut %d: cancelled solve returned a result", cut)
			}
			cancelled++
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		resultsEqual(t, "cut", 4, p, want, got)
		break
	}
	if cancelled < 2 {
		t.Fatalf("only %d cuts cancelled the solve; the problem is too small to cut inside a level", cancelled)
	}
}
