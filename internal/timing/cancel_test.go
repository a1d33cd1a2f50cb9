package timing

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/netlist"
)

// TestForwardPassPollsContext pins the serial forward pass's
// cancellation poll: a context cancelled during the first wire delay
// must stop the pass at the next ctxCheckStride boundary, so the call
// returns context.Canceled having made fewer wire-delay calls than one
// full forward pass. Without the poll the forward pass runs to the end
// and only the backward pass notices the cancellation.
func TestForwardPassPollsContext(t *testing.T) {
	// i -> l0 -> l1 -> ... -> o: every LUT and the output pad has one
	// fanin, so a full forward pass makes luts+1 wire-delay calls.
	luts := 2*ctxCheckStride + 2
	n := netlist.New("longchain")
	n.AddCell("i", netlist.IPad, 0)
	prev := "i"
	for k := 0; k < luts; k++ {
		name := fmt.Sprintf("l%d", k)
		c := n.AddCell(name, netlist.LUT, 1)
		n.ConnectByName(c.ID, 0, prev)
		prev = name
	}
	o := n.AddCell("o", netlist.OPad, 1)
	n.ConnectByName(o.ID, 0, prev)
	fullForward := luts + 1

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	wire := func(u, v netlist.CellID) float64 {
		if calls == 0 {
			cancel()
		}
		calls++
		return 1
	}
	a, err := AnalyzeCustomWorkersCtx(ctx, n, wire, dm(), 1)
	if !errors.Is(err, context.Canceled) || a != nil {
		t.Fatalf("cancelled analysis returned (%v, %v), want (nil, context.Canceled)", a, err)
	}
	if calls >= fullForward {
		t.Fatalf("cancelled analysis made %d wire-delay calls, one full forward pass makes %d", calls, fullForward)
	}
}
