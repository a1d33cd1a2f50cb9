//go:build replassert

package timing

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/netlist"
)

// assertEnabled gates the replassert runtime invariant layer for the
// STA. Built with -tags replassert, every analysis re-derives the
// forward recurrence independently and demands bitwise agreement; the
// default build compiles the check away (see assert_off.go).
const assertEnabled = true

// assertArrivalMonotone re-runs the arrival recurrence cell by cell in
// topological order and panics on any bitwise difference from the
// analysis results. This is the strongest form of the arrival
// monotonicity invariant: under a nonnegative delay model the
// recurrence makes Arr non-decreasing along every combinational path,
// and an independent re-derivation catches a kernel that reads an
// arrival before it is final.
func assertArrivalMonotone(nl *netlist.Netlist, wireOf WireDelayFunc, dm arch.DelayModel, a *Analysis) {
	worst := func(id netlist.CellID) (float64, bool) {
		c := nl.Cell(id)
		worstIn := math.Inf(-1)
		haveIn := false
		for _, net := range c.Fanin {
			if net == netlist.None {
				continue
			}
			u := nl.Net(net).Driver
			if t := a.Arr[u] + wireOf(u, id); t > worstIn {
				worstIn = t
			}
			haveIn = true
		}
		return worstIn, haveIn
	}
	for _, id := range a.Order {
		c := nl.Cell(id)
		if c.IsSource() {
			if a.Arr[id] != 0 {
				panic(fmt.Sprintf("replassert: source %s has Arr %g, want 0", c.Name, a.Arr[id]))
			}
		}
		worstIn, haveIn := worst(id)
		if !c.IsSource() && c.Kind == netlist.LUT {
			want := 0.0
			if haveIn {
				want = worstIn + dm.LUTDelay
			}
			if a.Arr[id] != want {
				panic(fmt.Sprintf(
					"replassert: Arr[%s] = %g diverges from serial recurrence %g", c.Name, a.Arr[id], want))
			}
		}
		if c.IsSink() {
			want := math.Inf(-1)
			if haveIn {
				want = worstIn + Intrinsic(dm, c)
			}
			if a.SinkArr[id] != want {
				panic(fmt.Sprintf(
					"replassert: SinkArr[%s] = %g diverges from serial recurrence %g", c.Name, a.SinkArr[id], want))
			}
		}
	}
}
