package timing

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/netlist"
)

// chainLUTs is the LUT count of the chain cancelAtCall analyzes, and
// fullPass the number of wire-delay calls one full pass over it makes,
// forward or backward.
const (
	chainLUTs = 2*ctxCheckStride + 2
	fullPass  = chainLUTs + 1
)

// cancelAtCall analyzes i -> l0 -> ... -> o, a chain of chainLUTs LUTs
// (every LUT and the output pad has one fanin, every cell but the
// output pad one fanout), with a wire-delay function that cancels the
// context on its call number at (counting from 0). It returns the
// analysis, the number of wire-delay calls made and the error.
func cancelAtCall(at int) (*Analysis, int, error) {
	n := netlist.New("longchain")
	n.AddCell("i", netlist.IPad, 0)
	prev := "i"
	for k := 0; k < chainLUTs; k++ {
		name := fmt.Sprintf("l%d", k)
		c := n.AddCell(name, netlist.LUT, 1)
		n.ConnectByName(c.ID, 0, prev)
		prev = name
	}
	o := n.AddCell("o", netlist.OPad, 1)
	n.ConnectByName(o.ID, 0, prev)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	wire := func(u, v netlist.CellID) float64 {
		if calls == at {
			cancel()
		}
		calls++
		return 1
	}
	a, err := analyzeCustom(ctx, n, wire, dm())
	return a, calls, err
}

// TestForwardPassPollsContext pins the forward pass's cancellation
// poll: a context cancelled during the first wire delay must stop the
// pass at the next ctxCheckStride boundary, so the call returns
// context.Canceled having made fewer wire-delay calls than one full
// forward pass. Without the poll the forward pass runs to the end and
// only the backward pass notices the cancellation.
func TestForwardPassPollsContext(t *testing.T) {
	a, calls, err := cancelAtCall(0)
	if !errors.Is(err, context.Canceled) || a != nil {
		t.Fatalf("cancelled analysis returned (analysis %t, %v), want (nil, context.Canceled)", a != nil, err)
	}
	if calls >= fullPass {
		t.Fatalf("cancelled analysis made %d wire-delay calls, one full forward pass makes %d", calls, fullPass)
	}
}

// TestBackwardPassPollsContext pins the backward pass's cancellation
// poll: a context cancelled during the first backward wire delay must
// stop the pass at the next ctxCheckStride boundary, before one full
// backward pass. Without the poll the backward pass runs to the end
// and the cancelled call returns a complete analysis.
func TestBackwardPassPollsContext(t *testing.T) {
	a, calls, err := cancelAtCall(fullPass)
	if !errors.Is(err, context.Canceled) || a != nil {
		t.Fatalf("cancelled analysis returned (analysis %t, %v), want (nil, context.Canceled)", a != nil, err)
	}
	if calls >= 2*fullPass {
		t.Fatalf("cancelled analysis made %d wire-delay calls, full forward and backward passes make %d", calls, 2*fullPass)
	}
}
