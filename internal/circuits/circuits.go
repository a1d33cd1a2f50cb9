// Package circuits generates the benchmark workloads. The paper
// evaluates on the 20 MCNC LUT-mapped circuits; those netlists are not
// redistributable, so this package synthesizes stand-ins that match
// the *published* per-circuit statistics of Table I (LUT count, I/O
// count, sequential vs combinational) and the structural properties
// the algorithms exercise: layered logic with strong fanin locality,
// heavy reconvergence, multi-fanout nets, and registered boundaries.
// Generation is deterministic per circuit name.
package circuits

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/netlist"
)

// Spec parameterizes one synthetic circuit.
type Spec struct {
	Name    string
	LUTs    int
	Inputs  int
	Outputs int
	// RegisteredFrac is the fraction of LUTs that latch their output
	// (sequential circuits only).
	RegisteredFrac float64
	// Depth is the number of logic layers.
	Depth int
	// Seed drives generation; Generate derives one from Name when 0.
	Seed int64
}

// Generate builds the synthetic netlist for a spec.
func Generate(spec Spec) (*netlist.Netlist, error) {
	if spec.LUTs < 1 || spec.Inputs < 1 || spec.Outputs < 1 {
		return nil, fmt.Errorf("circuits: spec %q needs at least one LUT, input, and output", spec.Name)
	}
	seed := spec.Seed
	if seed == 0 {
		seed = nameSeed(spec.Name)
	}
	rng := rand.New(rand.NewSource(seed))
	depth := spec.Depth
	if depth <= 0 {
		depth = defaultDepth(spec.LUTs)
	}

	n := netlist.New(spec.Name)
	// Layer 0: input pads.
	layers := make([][]string, depth+1)
	for i := 0; i < spec.Inputs; i++ {
		name := fmt.Sprintf("pi%d", i)
		n.AddCell(name, netlist.IPad, 0)
		layers[0] = append(layers[0], name)
	}
	fanout := map[string]int{}

	// Distribute LUTs over layers 1..depth, slightly heavier in the
	// middle (a common profile of mapped logic).
	counts := layerCounts(spec.LUTs, depth)
	lutIdx := 0
	for l := 1; l <= depth; l++ {
		for c := 0; c < counts[l-1]; c++ {
			name := fmt.Sprintf("n%d", lutIdx)
			lutIdx++
			k := 2 + rng.Intn(3) // 2..4 inputs (K=4 LUTs, not always full)
			cell := n.AddCell(name, netlist.LUT, k)
			if spec.RegisteredFrac > 0 && rng.Float64() < spec.RegisteredFrac {
				cell.Registered = true
			}
			seen := map[string]bool{}
			for p := 0; p < k; p++ {
				sig := pickSignal(rng, layers, l, fanout, seen)
				if sig == "" {
					break
				}
				seen[sig] = true
				n.ConnectByName(cell.ID, p, sig)
				fanout[sig]++
			}
			layers[l] = append(layers[l], name)
		}
	}

	// Outputs: sample late-layer signals, preferring unconsumed ones.
	for i := 0; i < spec.Outputs; i++ {
		name := fmt.Sprintf("po%d", i)
		c := n.AddCell(name, netlist.OPad, 1)
		sig := pickOutput(rng, layers, fanout)
		n.ConnectByName(c.ID, 0, sig)
		fanout[sig]++
	}

	stitchDead(rng, n, layers)

	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("circuits: generated %s invalid: %w", spec.Name, err)
	}
	return n, nil
}

// stitchDead re-points input pins at unconsumed signals so the netlist
// carries little dead logic. Pins are only stolen from drivers with
// fanout >= 2, so no new dead signals appear, and a dead cell is only
// adopted by a cell created after it, which keeps the graph acyclic.
func stitchDead(rng *rand.Rand, n *netlist.Netlist, layers [][]string) {
	// Flatten LUTs in creation order.
	var order []string
	for l := 1; l < len(layers); l++ {
		order = append(order, layers[l]...)
	}
	for i, name := range order {
		id, _ := n.CellByName(name)
		cell := n.Cell(id)
		if len(n.Net(cell.Out).Sinks) > 0 {
			continue
		}
		if !adoptSignal(rng, n, order, i, id) {
			// Last resort: let a random output pad adopt it if its
			// current driver has other fanout.
			adoptByOutput(rng, n, id)
		}
	}
}

func adoptSignal(rng *rand.Rand, n *netlist.Netlist, order []string, i int, dead netlist.CellID) bool {
	deadNet := n.Cell(dead).Out
	if i+1 >= len(order) {
		return false
	}
	for try := 0; try < 48; try++ {
		cname := order[i+1+rng.Intn(len(order)-i-1)]
		cid, _ := n.CellByName(cname)
		c := n.Cell(cid)
		pin := rng.Intn(len(c.Fanin))
		cur := c.Fanin[pin]
		if cur == netlist.None || cur == deadNet {
			continue
		}
		if len(n.Net(cur).Sinks) < 2 {
			continue // stealing would orphan the current driver
		}
		// No duplicate fanin.
		dup := false
		for _, other := range c.Fanin {
			if other == deadNet {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		n.Connect(cid, pin, deadNet)
		return true
	}
	return false
}

func adoptByOutput(rng *rand.Rand, n *netlist.Netlist, dead netlist.CellID) {
	deadNet := n.Cell(dead).Out
	var pads []netlist.CellID
	n.Cells(func(c *netlist.Cell) {
		if c.Kind != netlist.OPad {
			return
		}
		cur := c.Fanin[0]
		if cur != netlist.None && cur != deadNet && len(n.Net(cur).Sinks) >= 2 {
			pads = append(pads, c.ID)
		}
	})
	if len(pads) == 0 {
		return
	}
	n.Connect(pads[rng.Intn(len(pads))], 0, deadNet)
}

// nameSeed derives a stable seed from the circuit name.
func nameSeed(name string) int64 {
	h := int64(1469598103934665603)
	for _, b := range []byte(name) {
		h ^= int64(b)
		h *= 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h | 1
}

func defaultDepth(luts int) int {
	d := 4 + int(math.Round(float64(luts)/700.0))
	if d < 4 {
		d = 4
	}
	if d > 14 {
		d = 14
	}
	return d
}

// layerCounts splits total LUTs over `depth` layers with a mild bulge
// in the middle.
func layerCounts(total, depth int) []int {
	weights := make([]float64, depth)
	sum := 0.0
	for i := range weights {
		x := float64(i) / float64(depth-1+1)
		weights[i] = 0.75 + float64(math.Sin(x*math.Pi)*0.5)
		sum += weights[i]
	}
	counts := make([]int, depth)
	used := 0
	for i := range counts {
		counts[i] = int(float64(total) * weights[i] / sum)
		used += counts[i]
	}
	for i := 0; used < total; i = (i + 1) % depth {
		counts[i]++
		used++
	}
	return counts
}

// pickSignal selects a fanin for a layer-l cell: a recent layer with
// geometric bias (strong locality ⇒ reconvergence among neighbors),
// preferring signals that are not yet consumed so dead logic is rare.
func pickSignal(rng *rand.Rand, layers [][]string, l int, fanout map[string]int, seen map[string]bool) string {
	for try := 0; try < 24; try++ {
		back := 1
		for back < l && rng.Float64() < 0.35 {
			back++
		}
		layer := layers[l-back]
		if len(layer) == 0 {
			continue
		}
		sig := layer[rng.Intn(len(layer))]
		if seen[sig] {
			continue
		}
		// Prefer unconsumed signals half the time.
		if fanout[sig] > 0 && try < 8 && rng.Float64() < 0.5 {
			continue
		}
		return sig
	}
	// Fallback: anything unseen from the previous layer.
	for _, sig := range layers[l-1] {
		if !seen[sig] {
			return sig
		}
	}
	return ""
}

func pickOutput(rng *rand.Rand, layers [][]string, fanout map[string]int) string {
	// Walk backward from the last layer preferring unconsumed signals.
	for back := 0; back < len(layers)-1; back++ {
		layer := layers[len(layers)-1-back]
		if len(layer) == 0 {
			continue
		}
		for try := 0; try < 16; try++ {
			sig := layer[rng.Intn(len(layer))]
			if fanout[sig] == 0 {
				return sig
			}
		}
		if back >= 2 {
			return layer[rng.Intn(len(layer))]
		}
	}
	return layers[len(layers)-1][0]
}
