package place

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/netlist"
	"repro/internal/timing"
	"repro/internal/wire"
)

// randomCircuit builds a deterministic random layered circuit with the
// given LUT and IO counts.
func randomCircuit(t *testing.T, seed int64, luts, inputs, outputs int) *netlist.Netlist {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := netlist.New("rand")
	var signals []string
	for i := 0; i < inputs; i++ {
		name := "i" + itoa(i)
		n.AddCell(name, netlist.IPad, 0)
		signals = append(signals, name)
	}
	for i := 0; i < luts; i++ {
		name := "l" + itoa(i)
		k := 1 + rng.Intn(3)
		if k > len(signals) {
			k = len(signals)
		}
		c := n.AddCell(name, netlist.LUT, k)
		for p := 0; p < k; p++ {
			// Bias toward recent signals for locality.
			idx := len(signals) - 1 - rng.Intn(min(len(signals), 12))
			n.ConnectByName(c.ID, p, signals[idx])
		}
		signals = append(signals, name)
	}
	for i := 0; i < outputs; i++ {
		c := n.AddCell("o"+itoa(i), netlist.OPad, 1)
		idx := len(signals) - 1 - rng.Intn(min(len(signals), luts))
		n.ConnectByName(c.ID, 0, signals[idx])
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func fastOpts(seed int64) Options {
	o := Defaults()
	o.Seed = seed
	o.Effort = 1 // keep unit tests quick
	return o
}

func TestPlaceValidAndLegal(t *testing.T) {
	nl := randomCircuit(t, 7, 60, 8, 8)
	f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
	pl, err := Place(nl, f, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(nl); err != nil {
		t.Fatalf("placement invalid: %v", err)
	}
	if !pl.Legal() {
		t.Fatal("placement over capacity")
	}
}

func TestPlaceDeterministic(t *testing.T) {
	nl := randomCircuit(t, 7, 40, 6, 6)
	f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
	p1, err := Place(nl, f, fastOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Place(nl, f, fastOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	nl.Cells(func(c *netlist.Cell) {
		if p1.Loc(c.ID) != p2.Loc(c.ID) {
			same = false
		}
	})
	if !same {
		t.Error("same seed must give identical placements")
	}
	p3, err := Place(nl, f, fastOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	nl.Cells(func(c *netlist.Cell) {
		if p1.Loc(c.ID) != p3.Loc(c.ID) {
			diff = true
		}
	})
	if !diff {
		t.Error("different seeds should give different placements")
	}
}

func TestPlaceBeatsRandom(t *testing.T) {
	nl := randomCircuit(t, 11, 80, 10, 10)
	f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
	// Random baseline: the annealer's own initial scatter.
	s := newState(nl, f, fastOpts(5))
	s.initialRandom()
	randomWire := wire.TotalCost(nl, s.pl)
	ra, err := timing.Analyze(nl, s.pl, s.opt.Delay)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Place(nl, f, fastOpts(5))
	if err != nil {
		t.Fatal(err)
	}
	annealedWire := wire.TotalCost(nl, pl)
	aa, err := timing.Analyze(nl, pl, s.opt.Delay)
	if err != nil {
		t.Fatal(err)
	}
	if annealedWire >= randomWire {
		t.Errorf("annealed wire %v not better than random %v", annealedWire, randomWire)
	}
	if aa.Period >= ra.Period {
		t.Errorf("annealed period %v not better than random %v", aa.Period, ra.Period)
	}
}

func TestTimingDrivenBeatsWireDrivenOnDelay(t *testing.T) {
	nl := randomCircuit(t, 13, 100, 10, 10)
	f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
	dm := Defaults().Delay

	bestTD, bestWD := 1e18, 1e18
	// Annealing is noisy at Effort 1; compare best-of-3.
	for seed := int64(1); seed <= 3; seed++ {
		td := fastOpts(seed)
		plTD, err := Place(nl, f, td)
		if err != nil {
			t.Fatal(err)
		}
		aTD, _ := timing.Analyze(nl, plTD, dm)
		if aTD.Period < bestTD {
			bestTD = aTD.Period
		}
		wd := fastOpts(seed)
		wd.Lambda = 0
		plWD, err := Place(nl, f, wd)
		if err != nil {
			t.Fatal(err)
		}
		aWD, _ := timing.Analyze(nl, plWD, dm)
		if aWD.Period < bestWD {
			bestWD = aWD.Period
		}
	}
	if bestTD > bestWD {
		t.Errorf("timing-driven period %v worse than wire-driven %v", bestTD, bestWD)
	}
}

func TestPlaceTooBigFails(t *testing.T) {
	nl := randomCircuit(t, 7, 30, 4, 4)
	f := arch.New(3) // 9 logic slots for 30 LUTs
	if _, err := Place(nl, f, fastOpts(1)); err == nil {
		t.Error("expected capacity error")
	}
}

func TestPadsStayOnRing(t *testing.T) {
	nl := randomCircuit(t, 19, 50, 12, 12)
	f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
	pl, err := Place(nl, f, fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	nl.Cells(func(c *netlist.Cell) {
		l := pl.Loc(c.ID)
		if c.Kind == netlist.LUT && !f.IsLogic(l) {
			t.Errorf("LUT %s on non-logic slot %v", c.Name, l)
		}
		if c.Kind != netlist.LUT && !f.IsIO(l) {
			t.Errorf("pad %s off the IO ring at %v", c.Name, l)
		}
	})
}

// loopyCircuit has the topologies edge dedup must get right: a
// registered LUT reading its own output, a LUT reading one net on two
// pins, and cells that read each other.
func loopyCircuit(t *testing.T) *netlist.Netlist {
	t.Helper()
	n := netlist.New("loopy")
	n.AddCell("i0", netlist.IPad, 0)
	n.AddCell("i1", netlist.IPad, 0)
	r := n.AddCell("r", netlist.LUT, 2)
	r.Registered = true
	n.ConnectByName(r.ID, 0, "r")
	n.ConnectByName(r.ID, 1, "i0")
	d := n.AddCell("d", netlist.LUT, 3)
	n.ConnectByName(d.ID, 0, "r")
	n.ConnectByName(d.ID, 1, "i1")
	n.ConnectByName(d.ID, 2, "r")
	e := n.AddCell("e", netlist.LUT, 2)
	n.ConnectByName(e.ID, 0, "d")
	n.ConnectByName(e.ID, 1, "r")
	g := n.AddCell("g", netlist.LUT, 2)
	n.ConnectByName(g.ID, 0, "e")
	n.ConnectByName(g.ID, 1, "e")
	for i, src := range []string{"g", "d"} {
		o := n.AddCell("o"+itoa(i), netlist.OPad, 1)
		n.ConnectByName(o.ID, 0, src)
	}
	return n
}

// cellNets is the reference net list of one cell: its output net plus
// every distinct fanin net.
func cellNets(nl *netlist.Netlist, id netlist.CellID) []netlist.NetID {
	c := nl.Cell(id)
	var nets []netlist.NetID
	if c.Out != netlist.None {
		nets = append(nets, c.Out)
	}
	for _, in := range c.Fanin {
		if in != netlist.None && !slices.Contains(nets, in) {
			nets = append(nets, in)
		}
	}
	return nets
}

func TestCellNets(t *testing.T) {
	n := netlist.New("nets")
	d := n.AddCell("d", netlist.IPad, 0)
	a := n.AddCell("a", netlist.LUT, 1)
	n.ConnectByName(a.ID, 0, "d")
	o := n.AddCell("o", netlist.OPad, 1)
	n.ConnectByName(o.ID, 0, "a")
	if nets := cellNets(n, a.ID); !slices.Equal(nets, []netlist.NetID{n.Cell(a.ID).Out, n.Cell(d.ID).Out}) {
		t.Fatalf("cellNets(a) = %v, want own net then fanin net", nets)
	}
	// A cell reading the same net twice counts it once.
	l2 := n.AddCell("l2", netlist.LUT, 2)
	n.Connect(l2.ID, 0, n.Cell(d.ID).Out)
	n.Connect(l2.ID, 1, n.Cell(d.ID).Out)
	if nets := cellNets(n, l2.ID); len(nets) != 2 {
		t.Errorf("cellNets(l2) = %v, want 2 nets (dedup fanin)", nets)
	}
}

// TestAffectedMatchesReference checks the per-move scratch lists
// against the map-based lists they replaced: the same nets and (u, v)
// edges in the same first-occurrence order, one edge per distinct pair.
func TestAffectedMatchesReference(t *testing.T) {
	for _, nl := range []*netlist.Netlist{loopyCircuit(t), randomCircuit(t, 3, 40, 5, 5)} {
		f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
		s := newState(nl, f, fastOpts(9))
		s.initialRandom()

		// The slot map is a bijection with distinct (driver, sink) pairs.
		slotOf := map[[2]netlist.CellID]int32{}
		pairOf := map[int32][2]netlist.CellID{}
		nl.Cells(func(c *netlist.Cell) {
			for k, net := range c.Fanin {
				key := [2]netlist.CellID{nl.Net(net).Driver, c.ID}
				slot := s.slot(c.ID, k)
				if got, ok := slotOf[key]; ok && got != slot {
					t.Fatalf("%s: pair %v has slots %d and %d", nl.Name, key, got, slot)
				}
				if got, ok := pairOf[slot]; ok && got != key {
					t.Fatalf("%s: slot %d shared by %v and %v", nl.Name, slot, got, key)
				}
				slotOf[key], pairOf[slot] = slot, key
			}
		})

		moves := 0
		for i := 0; i < 400; i++ {
			m, ok := s.pickMove(float64(f.N))
			if !ok {
				continue
			}
			moves++
			s.affected(m)
			wantNets := cellNets(nl, m.a)
			if m.b != netlist.None {
				for _, n := range cellNets(nl, m.b) {
					if !slices.Contains(wantNets, n) {
						wantNets = append(wantNets, n)
					}
				}
			}
			if !slices.Equal(s.nets, wantNets) {
				t.Fatalf("%s move %+v: nets %v, want %v", nl.Name, m, s.nets, wantNets)
			}
			var want, got [][2]netlist.CellID
			seen := map[[2]netlist.CellID]bool{}
			add := func(u, v netlist.CellID) {
				if e := [2]netlist.CellID{u, v}; !seen[e] {
					seen[e] = true
					want = append(want, e)
				}
			}
			for _, id := range []netlist.CellID{m.a, m.b} {
				if id == netlist.None {
					continue
				}
				c := nl.Cell(id)
				for _, net := range c.Fanin {
					add(nl.Net(net).Driver, id)
				}
				if c.Out != netlist.None {
					for _, p := range nl.Net(c.Out).Sinks {
						add(id, p.Cell)
					}
				}
			}
			for _, e := range s.edges {
				got = append(got, [2]netlist.CellID{e.u, e.v})
				if slotOf[[2]netlist.CellID{e.u, e.v}] != e.slot {
					t.Fatalf("%s: edge %v carries slot %d", nl.Name, e, e.slot)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s move %+v: edges %v, want %v", nl.Name, m, got, want)
			}
		}
		if moves == 0 {
			t.Fatalf("%s: no moves proposed", nl.Name)
		}
	}
}

// TestProbeMoveAllocs pins the annealer's per-move scratch: evaluating
// a move allocates nothing.
func TestProbeMoveAllocs(t *testing.T) {
	nl := randomCircuit(t, 5, 80, 8, 8)
	f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
	s := newState(nl, f, fastOpts(2))
	s.initialRandom()
	if err := s.refreshTiming(); err != nil {
		t.Fatal(err)
	}
	s.refreshWire()
	rlim := float64(f.N)
	if allocs := testing.AllocsPerRun(200, func() { s.probeMove(rlim, 1, 1) }); allocs != 0 {
		t.Errorf("probeMove allocates %v times per move, want 0", allocs)
	}
}

// TestMoveDeltaMatchesCommit checks the price-once rule: the costs a
// commit applies, priced by moveDelta before the cells moved, are bit
// for bit the costs recomputed from the moved placement. A hot
// temperature accepts nearly every move, swaps included.
func TestMoveDeltaMatchesCommit(t *testing.T) {
	nl := randomCircuit(t, 21, 120, 10, 10)
	f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
	s := newState(nl, f, fastOpts(4))
	s.initialRandom()
	if err := s.refreshTiming(); err != nil {
		t.Fatal(err)
	}
	s.refreshWire()
	wirePrev, timingPrev := s.wireTotal, s.timingTotal
	commits := 0
	for i := 0; i < 4000; i++ {
		if !s.tryMove(1e6, float64(f.N), wirePrev, timingPrev) {
			continue
		}
		commits++
		for _, net := range s.nets {
			want := wire.NetCost(nl, s.pl, net)
			if math.Float64bits(s.netCost[net]) != math.Float64bits(want) {
				t.Fatalf("commit %d: net %d costs %v, recomputed %v", commits, net, s.netCost[net], want)
			}
		}
		for _, e := range s.edges {
			want := s.crit[e.v] * s.opt.Delay.WireDelay(arch.Dist(s.pl.Loc(e.u), s.pl.Loc(e.v)))
			if math.Float64bits(s.edgeCost[e.slot]) != math.Float64bits(want) {
				t.Fatalf("commit %d: edge %d->%d costs %v, recomputed %v", commits, e.u, e.v, s.edgeCost[e.slot], want)
			}
		}
	}
	if commits < 3000 {
		t.Fatalf("only %d of 4000 moves committed", commits)
	}
}
