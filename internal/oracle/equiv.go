package oracle

import (
	"fmt"
	"math/rand"

	"repro/internal/netlist"
)

// Simulation-based functional-equivalence checking.
//
// The netlist model carries no truth tables — replication is purely
// structural — so every equivalence class is assigned a *pseudo
// function*: a fixed hash of (EquivID, input bit vector). Replication
// copies a cell with its class and pin order intact, so a replica fed
// the same values computes the same pseudo-function value; any rewiring
// that changes what a pin observes (the bug class this checker exists
// for: a sink moved to a non-equivalent driver, a lost pin, crossed
// pins after unification) changes some simulated value.
//
// Timing sources (input pads and registered LUTs) are the free
// variables: each source *class* gets one bit per vector, so a replica
// of a registered LUT latches the same state as its original. The
// observed values are the timing-sink inputs — output-pad pins and
// registered-LUT pins (the next-state functions) — plus every class's
// output value.

// EquivOptions tunes Equivalent.
type EquivOptions struct {
	// MaxExhaustive is the largest source-class count simulated
	// exhaustively (2^k vectors). Above it, RandomVectors seeded
	// vectors are used. Defaults to 16.
	MaxExhaustive int
	// RandomVectors is the sampled vector count. Defaults to 256.
	RandomVectors int
	// Seed drives vector sampling.
	Seed int64
}

func (o *EquivOptions) defaults() {
	if o.MaxExhaustive <= 0 {
		o.MaxExhaustive = 16
	}
	if o.RandomVectors <= 0 {
		o.RandomVectors = 256
	}
}

// Equivalent checks that netlist b computes the same function as
// netlist a, where b is a transformed (replicated, unified, pruned)
// version of a. nil means no vector distinguished them.
func Equivalent(a, b *netlist.Netlist, opt EquivOptions) error {
	opt.defaults()
	ta, err := a.TopoOrder()
	if err != nil {
		return fmt.Errorf("oracle: netlist %s: %w", a.Name, err)
	}
	tb, err := b.TopoOrder()
	if err != nil {
		return fmt.Errorf("oracle: netlist %s: %w", b.Name, err)
	}

	// The free variables: every source class seen in either netlist.
	classSet := map[netlist.EquivID]bool{}
	collect := func(n *netlist.Netlist) {
		n.Cells(func(c *netlist.Cell) {
			if c.IsSource() {
				classSet[c.Equiv] = true
			}
		})
	}
	collect(a)
	collect(b)
	sources := make([]netlist.EquivID, 0, len(classSet))
	for e := range classSet {
		sources = append(sources, e)
	}
	sortEquivs(sources)

	exhaustive := len(sources) <= opt.MaxExhaustive
	var vectors int
	if exhaustive {
		vectors = 1 << len(sources)
	} else {
		vectors = opt.RandomVectors
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	for v := 0; v < vectors; v++ {
		in := make(map[netlist.EquivID]bool, len(sources))
		for i, e := range sources {
			if exhaustive {
				in[e] = v&(1<<i) != 0
			} else {
				in[e] = rng.Intn(2) == 1
			}
		}
		sa, err := simulate(a, ta, in)
		if err != nil {
			return err
		}
		sb, err := simulate(b, tb, in)
		if err != nil {
			return err
		}
		if err := compareSim(sa, sb, in); err != nil {
			return fmt.Errorf("oracle: %s vs %s, vector %d: %w", a.Name, b.Name, v, err)
		}
	}
	return nil
}

// simResult is one netlist's response to one input vector.
type simResult struct {
	nl    *netlist.Netlist
	order []netlist.CellID
	// outVal is each live class's output value. All members of a class
	// must agree — simulate fails otherwise (replica inconsistency).
	outVal map[netlist.EquivID]bool
	// sinkVal is each observed sink-pin value, keyed by the sink's
	// class and pin index: what the output pad emits, what the
	// register latches next cycle.
	sinkVal map[sinkKey]bool
}

type sinkKey struct {
	class netlist.EquivID
	pin   int32
}

// simulate evaluates the netlist over one assignment of source-class
// values, in topological order.
func simulate(n *netlist.Netlist, order []netlist.CellID, in map[netlist.EquivID]bool) (*simResult, error) {
	res := &simResult{
		nl:      n,
		order:   order,
		outVal:  make(map[netlist.EquivID]bool),
		sinkVal: make(map[sinkKey]bool),
	}
	netVal := make([]bool, n.NetCap())
	record := func(c *netlist.Cell, val bool) error {
		if prev, ok := res.outVal[c.Equiv]; ok {
			if prev != val {
				return fmt.Errorf("netlist %s: class %d is inconsistent: %s computes %v, a sibling computed %v",
					n.Name, c.Equiv, c.Name, val, prev)
			}
			return nil
		}
		res.outVal[c.Equiv] = val
		return nil
	}
	for _, id := range order {
		c := n.Cell(id)
		// Output value.
		var val bool
		switch {
		case c.IsSource():
			val = in[c.Equiv]
		case c.Kind == netlist.LUT:
			val = pseudoLUT(c.Equiv, c.Fanin, netVal)
		}
		if c.Kind != netlist.OPad {
			if err := record(c, val); err != nil {
				return nil, err
			}
		}
		if c.Out != netlist.None {
			netVal[c.Out] = val
		}
	}
	// Observed sink pins, once every net holds its value: the order
	// puts registered LUTs first, ahead of the logic that feeds them.
	for _, id := range order {
		c := n.Cell(id)
		if !c.IsSink() {
			continue
		}
		for pin, net := range c.Fanin {
			if net == netlist.None {
				continue
			}
			k := sinkKey{class: c.Equiv, pin: int32(pin)}
			pv := netVal[net]
			if prev, ok := res.sinkVal[k]; ok {
				if prev != pv {
					return nil, fmt.Errorf("netlist %s: sinks %s and %s (class %d) latch different pin-%d values",
						n.Name, res.sinkName(k), c.Name, c.Equiv, pin)
				}
				continue
			}
			res.sinkVal[k] = pv
		}
	}
	return res, nil
}

// compareSim checks b's response against a's: shared classes agree on
// output values, and every sink pin a observes is observed identically
// by b (transformations may delete dead classes, never observed pins).
func compareSim(a, b *simResult, in map[netlist.EquivID]bool) error {
	for e, av := range a.outVal {
		if bv, ok := b.outVal[e]; ok && av != bv {
			return fmt.Errorf("class %d output differs: %v vs %v (inputs %v)", e, av, bv, in)
		}
	}
	for k, av := range a.sinkVal {
		bv, ok := b.sinkVal[k]
		if !ok {
			return fmt.Errorf("sink pin (class %d, pin %d, e.g. %s) disappeared", k.class, k.pin, a.sinkName(k))
		}
		if av != bv {
			return fmt.Errorf("sink %s (class %d) pin %d differs: %v vs %v", b.sinkName(k), k.class, k.pin, av, bv)
		}
	}
	for k := range b.sinkVal {
		if _, ok := a.sinkVal[k]; !ok {
			return fmt.Errorf("sink pin (class %d, pin %d, e.g. %s) appeared from nowhere", k.class, k.pin, b.sinkName(k))
		}
	}
	return nil
}

// sinkName names the representative sink cell of pin k: the first
// sink in topological order that observes it, the one whose value
// simulate recorded. Only failure messages need it, so it scans rather
// than keeping a name per pin on the hot path.
func (r *simResult) sinkName(k sinkKey) string {
	for _, id := range r.order {
		c := r.nl.Cell(id)
		if c.IsSink() && c.Equiv == k.class && int(k.pin) < len(c.Fanin) && c.Fanin[k.pin] != netlist.None {
			return c.Name
		}
	}
	return ""
}

// pseudoLUT is the pseudo-function of one class: the splitmix64
// finalizer run over the class ID, then over the pin-ordered input
// bits packed 64 to a word, then over the pin count, reduced to one
// bit. Each class thus reads as an independent random function of its
// inputs, so two classes share a truth table only as often as chance
// has it. Unconnected pins read constant false.
func pseudoLUT(e netlist.EquivID, fanin []netlist.NetID, netVal []bool) bool {
	h := mix64(uint64(e) + 0x9E3779B97F4A7C15)
	var word uint64
	for i, net := range fanin {
		if net != netlist.None && netVal[net] {
			word |= 1 << (i % 64)
		}
		if i%64 == 63 {
			h, word = mix64(h^word), 0
		}
	}
	return mix64(mix64(h^word)+uint64(len(fanin)))&1 == 1
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func sortEquivs(es []netlist.EquivID) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j] < es[j-1]; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}
