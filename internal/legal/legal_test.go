package legal

import (
	"math"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuits"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/placement"
	"repro/internal/timing"
	"repro/internal/wire"
)

func dm() arch.DelayModel { return arch.DelayModel{SegDelay: 1, LUTDelay: 2, IODelay: 0.5} }

// scenario builds a small placed design with two LUT chains sharing an
// FPGA: a critical chain (far IO-to-IO span) and a slack chain, and
// returns everything a legalizer run needs.
func scenario(t *testing.T) (*netlist.Netlist, *placement.Placement, *timing.Analysis) {
	t.Helper()
	n := netlist.New("legal")
	f := arch.New(12)
	mkChain := func(prefix string, luts int) {
		n.AddCell(prefix+"_i", netlist.IPad, 0)
		prev := prefix + "_i"
		for k := 0; k < luts; k++ {
			name := prefix + "_l" + string(rune('0'+k))
			c := n.AddCell(name, netlist.LUT, 1)
			n.ConnectByName(c.ID, 0, prev)
			prev = name
		}
		o := n.AddCell(prefix+"_o", netlist.OPad, 1)
		n.ConnectByName(o.ID, 0, prev)
	}
	mkChain("crit", 3)
	mkChain("cool", 3)
	pl := placement.New(f, n)
	at := func(name string, x, y int16) {
		id, ok := n.CellByName(name)
		if !ok {
			t.Fatalf("no cell %s", name)
		}
		pl.Place(id, arch.Loc{X: x, Y: y})
	}
	// Critical chain spans the whole die on row 6.
	at("crit_i", 0, 6)
	at("crit_l0", 3, 6)
	at("crit_l1", 6, 6)
	at("crit_l2", 9, 6)
	at("crit_o", 13, 6)
	// Cool chain is compact in a corner: lots of slack.
	at("cool_i", 0, 1)
	at("cool_l0", 1, 1)
	at("cool_l1", 2, 1)
	at("cool_l2", 3, 1)
	at("cool_o", 3, 0)
	a, err := timing.Analyze(n, pl, dm())
	if err != nil {
		t.Fatal(err)
	}
	return n, pl, a
}

func TestRunNoOverlapIsNoop(t *testing.T) {
	n, pl, a := scenario(t)
	st, err := New().Run(n, pl, dm(), a)
	if err != nil {
		t.Fatal(err)
	}
	if st.Moves != 0 || st.Passes != 0 {
		t.Errorf("no-op run made %d moves in %d passes", st.Moves, st.Passes)
	}
}

func TestResolveSingleOverlap(t *testing.T) {
	n, pl, a := scenario(t)
	// Drop the slack cell onto the critical cell's slot.
	cool, _ := n.CellByName("cool_l2")
	crit, _ := n.CellByName("crit_l1")
	pl.Place(cool, pl.Loc(crit))
	if pl.Legal() {
		t.Fatal("setup should be illegal")
	}
	st, err := New().Run(n, pl, dm(), a)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Legal() {
		t.Fatal("placement still illegal after Run")
	}
	if st.Moves == 0 {
		t.Error("expected at least one move")
	}
	// The critical cell should not have been the one displaced far:
	// with α = 0.95 the mover is the slack cell.
	if got := pl.Loc(crit); got != (arch.Loc{X: 6, Y: 6}) {
		t.Errorf("critical cell moved to %v; legalizer should displace the slack cell", got)
	}
	if err := pl.Validate(n); err != nil {
		t.Fatal(err)
	}
}

func TestResolveManyOverlaps(t *testing.T) {
	n, pl, a := scenario(t)
	// Stack three slack cells onto one slot.
	slot := arch.Loc{X: 4, Y: 4}
	for _, name := range []string{"cool_l0", "cool_l1", "cool_l2"} {
		id, _ := n.CellByName(name)
		pl.Place(id, slot)
	}
	st, err := New().Run(n, pl, dm(), a)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Legal() {
		t.Fatal("placement still illegal")
	}
	if st.Passes < 2 {
		t.Errorf("expected multiple passes, got %d", st.Passes)
	}
}

func TestRippleUnification(t *testing.T) {
	n, pl, a := scenario(t)
	// Replicate a slack cell; place the replica adjacent to the
	// original, overlapping another cell, so the ripple pushes it onto
	// its equivalent original and unification fires.
	orig, _ := n.CellByName("cool_l1") // at (2,1)
	rep := n.Replicate(orig)
	// Give the replica's output a sink so it isn't trivially dead:
	// steal one fanout of the original.
	origOut := n.Cell(orig).Out
	sinkPin := n.Net(origOut).Sinks[0]
	n.MoveSink(sinkPin, rep.ID)
	// Overlap the replica with cool_l0 at (1,1); its only escape with
	// positive gain is toward (1,2) where the original sits.
	pl.Place(rep.ID, arch.Loc{X: 1, Y: 1})
	st, err := New().Run(n, pl, dm(), a)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Legal() {
		t.Fatal("placement still illegal")
	}
	if st.Unified == 0 {
		t.Skip("ripple chose a different direction; unification not exercised on this geometry")
	}
	if n.Alive(rep.ID) {
		t.Error("unified replica should be deleted from the netlist")
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFullDeviceError(t *testing.T) {
	n := netlist.New("full")
	f := arch.New(2)
	pl := placement.New(f, n)
	n.AddCell("i", netlist.IPad, 0)
	var last string
	for k, s := range f.LogicSlots() {
		name := "l" + string(rune('0'+k))
		c := n.AddCell(name, netlist.LUT, 1)
		if k == 0 {
			n.ConnectByName(c.ID, 0, "i")
		} else {
			n.ConnectByName(c.ID, 0, last)
		}
		last = name
		pl.Place(c.ID, s)
	}
	o := n.AddCell("o", netlist.OPad, 1)
	n.ConnectByName(o.ID, 0, last)
	iID, _ := n.CellByName("i")
	pl.Place(iID, arch.Loc{X: 0, Y: 1})
	pl.Place(o.ID, arch.Loc{X: 3, Y: 1})
	// Add a fifth LUT with the grid already full: a genuine overflow.
	extra := n.AddCell("extra", netlist.LUT, 1)
	n.ConnectByName(extra.ID, 0, "i")
	o2 := n.AddCell("o2", netlist.OPad, 1)
	n.ConnectByName(o2.ID, 0, "extra")
	pl.Place(o2.ID, arch.Loc{X: 0, Y: 2})
	l1, _ := n.CellByName("l1")
	pl.Place(extra.ID, pl.Loc(l1))
	a, err := timing.Analyze(n, pl, dm())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New().Run(n, pl, dm(), a); err == nil {
		t.Error("expected error when no free slot exists")
	}
}

func TestGainGraphPrefersCheapDirection(t *testing.T) {
	// Fig. 12 behavior: between several free slots, the legalizer
	// picks the ripple direction with the best gain. Here the slack
	// cell overlaps; a free slot lies toward its own net (gain) and
	// others lie across the critical path (loss).
	n, pl, a := scenario(t)
	cool, _ := n.CellByName("cool_l2") // nets live near (0..2, 1..2)
	crit, _ := n.CellByName("crit_l1") // at (3,3)
	pl.Place(cool, pl.Loc(crit))
	if _, err := New().Run(n, pl, dm(), a); err != nil {
		t.Fatal(err)
	}
	got := pl.Loc(cool)
	// The displaced slack cell should end up on the side toward its
	// own cluster, not pushed away from it.
	if got.X > 6 || got.Y > 6 {
		t.Errorf("slack cell rippled away from its nets: %v", got)
	}
}

func TestThroughAtMatchesAnalysis(t *testing.T) {
	// throughAt with the cell at its own location must reproduce the
	// analyzer's Through value.
	n, pl, a := scenario(t)
	l := New()
	for _, name := range []string{"crit_l0", "crit_l1", "crit_l2", "cool_l1"} {
		id, _ := n.CellByName(name)
		got := l.throughAt(n, pl, dm(), a, id, pl.Loc(id))
		want := a.Through[id]
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("throughAt(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestTimingCostWindow(t *testing.T) {
	n, pl, a := scenario(t)
	l := New()
	crit, _ := n.CellByName("crit_l1")
	cool, _ := n.CellByName("cool_l1")
	if l.timingCost(n, pl, dm(), a, crit, pl.Loc(crit)) == 0 {
		t.Error("critical cell must have nonzero timing cost")
	}
	if l.timingCost(n, pl, dm(), a, cool, pl.Loc(cool)) != 0 {
		t.Error("far-from-critical cell must have zero timing cost (outside 40% window)")
	}
}

// refCellNets lists the nets whose cost depends on the cell's
// location: its output net plus every distinct fanin net.
func refCellNets(nl *netlist.Netlist, id netlist.CellID) []netlist.NetID {
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

// refWireCost is wireCost without the cache: every net's box is
// rebuilt on a copy of the placement with the cell moved to loc.
func refWireCost(nl *netlist.Netlist, pl *placement.Placement, id netlist.CellID, loc arch.Loc) float64 {
	moved := pl.Clone()
	moved.Place(id, loc)
	total := 0.0
	for _, net := range refCellNets(nl, id) {
		total += wire.NetCost(nl, moved, net)
	}
	return total
}

// refThroughAt is throughAt without the cache: it walks the netlist on
// every call.
func refThroughAt(nl *netlist.Netlist, pl *placement.Placement, dm arch.DelayModel, a *timing.Analysis, id netlist.CellID, loc arch.Loc) float64 {
	c := nl.Cell(id)
	in := 0.0
	haveIn := false
	for _, net := range c.Fanin {
		if net == netlist.None {
			continue
		}
		u := nl.Net(net).Driver
		t := arrOf(a, u) + dm.WireDelay(arch.Dist(pl.Loc(u), loc))
		if !haveIn || t > in {
			in = t
			haveIn = true
		}
	}
	intrinsic := timing.Intrinsic(dm, c)
	through := math.Inf(-1)
	if c.IsSink() && haveIn {
		through = in + intrinsic
	}
	if c.Out != netlist.None {
		start := 0.0
		if !c.IsSource() {
			if !haveIn {
				return 0
			}
			start = in + intrinsic
		}
		for _, p := range nl.Net(c.Out).Sinks {
			v := p.Cell
			vc := nl.Cell(v)
			wireD := dm.WireDelay(arch.Dist(loc, pl.Loc(v)))
			var tail float64
			if down := downOf(a, v); vc.IsSink() {
				tail = wireD + timing.Intrinsic(dm, vc)
			} else if !math.IsInf(down, -1) {
				tail = wireD + dm.LUTDelay + down
			} else {
				continue
			}
			if t := start + tail; t > through {
				through = t
			}
		}
	}
	if math.IsInf(through, -1) {
		return 0
	}
	return through
}

// checkCachedCosts compares the cached wireCost and throughAt with the
// references bit for bit, for every live placed cell at every slot.
func checkCachedCosts(t *testing.T, nl *netlist.Netlist, pl *placement.Placement, a *timing.Analysis) {
	t.Helper()
	l := New()
	f := pl.FPGA()
	checked := 0
	nl.Cells(func(c *netlist.Cell) {
		if !pl.Placed(c.ID) {
			return
		}
		for y := 0; y <= f.N+1; y++ {
			for x := 0; x <= f.N+1; x++ {
				loc := arch.Loc{X: int16(x), Y: int16(y)}
				if !f.InBounds(loc) {
					continue
				}
				got, want := l.wireCost(nl, pl, c.ID, loc), refWireCost(nl, pl, c.ID, loc)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("wireCost(%s, %v) = %v, want %v", c.Name, loc, got, want)
				}
				got, want = l.throughAt(nl, pl, dm(), a, c.ID, loc), refThroughAt(nl, pl, dm(), a, c.ID, loc)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("throughAt(%s, %v) = %v, want %v", c.Name, loc, got, want)
				}
				checked++
			}
		}
	})
	if checked == 0 {
		t.Fatal("no cell checked")
	}
}

// TestCachedCostsMatchReference pins the per-search cache to the
// uncached cost code on a placed generated circuit with registered
// LUTs, overlaps, and replicas created after the analysis.
func TestCachedCostsMatchReference(t *testing.T) {
	nl, err := circuits.Generate(circuits.Spec{Name: "cache", LUTs: 90, Inputs: 8, Outputs: 8, RegisteredFrac: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	f := arch.MinSquare(nl.NumLUTs()+4, nl.NumIOs())
	opts := place.Defaults()
	opts.Effort = 0.3
	opts.Delay = dm()
	pl, err := place.Place(nl, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	var luts []netlist.CellID
	registered := 0
	nl.Cells(func(c *netlist.Cell) {
		if c.Kind == netlist.LUT {
			luts = append(luts, c.ID)
		}
		if c.Registered {
			registered++
		}
	})
	if registered == 0 {
		t.Fatal("circuit has no registered LUT")
	}
	// Stack a few LUTs onto other LUTs' slots.
	for k := 0; k < 6; k++ {
		pl.Place(luts[k*7], pl.Loc(luts[k*7+3]))
	}
	a, err := timing.Analyze(nl, pl, dm())
	if err != nil {
		t.Fatal(err)
	}
	// Fresh replicas: their IDs lie beyond a.Arr and a.Down.
	for k := 0; k < 3; k++ {
		orig := luts[10+k*11]
		out := nl.Net(nl.Cell(orig).Out)
		if len(out.Sinks) == 0 {
			continue
		}
		rep := nl.Replicate(orig)
		nl.MoveSink(out.Sinks[0], rep.ID)
		pl.Place(rep.ID, pl.Loc(orig))
	}
	if nl.Cap() <= len(a.Arr) {
		t.Fatal("setup made no replica")
	}
	checkCachedCosts(t, nl, pl, a)
}

// TestCachedCostsCornerCases covers the pin patterns an other-pin box
// must handle: a registered LUT that drives itself through a net with
// no other pin, a cell reading one net on two pins, and a replica
// created after the analysis.
func TestCachedCostsCornerCases(t *testing.T) {
	n := netlist.New("corner")
	f := arch.New(6)
	n.AddCell("i", netlist.IPad, 0)
	self := n.AddCell("self", netlist.LUT, 2)
	self.Registered = true
	n.Connect(self.ID, 0, self.Out)
	n.ConnectByName(self.ID, 1, "i")
	twice := n.AddCell("twice", netlist.LUT, 2)
	n.ConnectByName(twice.ID, 0, "i")
	n.ConnectByName(twice.ID, 1, "i")
	o := n.AddCell("o", netlist.OPad, 1)
	n.ConnectByName(o.ID, 0, "twice")
	pl := placement.New(f, n)
	pl.Place(0, arch.Loc{X: 0, Y: 3})
	pl.Place(self.ID, arch.Loc{X: 2, Y: 5})
	pl.Place(twice.ID, arch.Loc{X: 4, Y: 2})
	pl.Place(o.ID, arch.Loc{X: 7, Y: 4})
	a, err := timing.Analyze(n, pl, dm())
	if err != nil {
		t.Fatal(err)
	}
	// A replica of twice, fed after the analysis and stacked on it.
	rep := n.Replicate(twice.ID)
	n.MoveSink(n.Net(n.Cell(twice.ID).Out).Sinks[0], rep.ID)
	pl.Place(rep.ID, pl.Loc(twice.ID))
	if int(rep.ID) < len(a.Arr) {
		t.Fatal("replica should lie beyond the analysis")
	}
	l := New()
	if terms := l.cache.wireTerms(n, pl, self.ID); len(terms) != 2 || terms[0].box != emptyBox {
		t.Fatalf("self's terms = %+v, want its output net first with no other pin", terms)
	}
	if terms := l.cache.wireTerms(n, pl, twice.ID); len(terms) != 2 {
		t.Fatalf("twice has %d nets, want 2 (its fanin net counted once)", len(terms))
	}
	checkCachedCosts(t, n, pl, a)
}

// TestCacheSeesRippleMoves checks the cache lifetime: a cell's cost
// queried before a ripple step must be recomputed after the step moved
// one of its neighbours.
func TestCacheSeesRippleMoves(t *testing.T) {
	n, pl, a := scenario(t)
	l := New()
	x, _ := n.CellByName("crit_l0")
	y, _ := n.CellByName("crit_l1") // x's only fanout, at (6,6)
	loc := pl.Loc(x)
	if l.wireCost(n, pl, x, loc) != refWireCost(n, pl, x, loc) {
		t.Fatal("cached cost differs before the move")
	}
	l.throughAt(n, pl, dm(), a, x, loc)
	from, to := pl.Loc(y), arch.Loc{X: 8, Y: 6}
	if moved, _ := l.step(n, pl, dm(), a, from, to); !moved || pl.Loc(y) != to {
		t.Fatalf("step should move crit_l1 to %v, it is at %v", to, pl.Loc(y))
	}
	if got, want := l.wireCost(n, pl, x, loc), refWireCost(n, pl, x, loc); got != want {
		t.Errorf("wireCost after the move = %v, want %v", got, want)
	}
	if got, want := l.throughAt(n, pl, dm(), a, x, loc), refThroughAt(n, pl, dm(), a, x, loc); got != want {
		t.Errorf("throughAt after the move = %v, want %v", got, want)
	}
}

// TestMaxGainPathAllocs pins the search scratch: a warmed maxGainPath
// allocates nothing.
func TestMaxGainPathAllocs(t *testing.T) {
	n, pl, a := scenario(t)
	cool, _ := n.CellByName("cool_l2")
	crit, _ := n.CellByName("crit_l1")
	pl.Place(cool, pl.Loc(crit))
	congested, free := pl.Loc(crit), arch.Loc{X: 9, Y: 9}
	l := New()
	search := func() {
		l.cache.reset()
		if _, _, ok := l.maxGainPath(n, pl, dm(), a, congested, free); !ok {
			t.Fatal("no path")
		}
	}
	search()
	if allocs := testing.AllocsPerRun(20, search); allocs != 0 {
		t.Errorf("maxGainPath allocates %v times per search, want 0", allocs)
	}
}
