package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/embed"
	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/timing"
)

func dm() arch.DelayModel { return arch.DelayModel{SegDelay: 1, LUTDelay: 2, IODelay: 0.5} }

// design is a small test harness bundling a netlist and placement.
type design struct {
	nl *netlist.Netlist
	pl *placement.Placement
}

func newDesign(t *testing.T, name string, gridN int) *design {
	t.Helper()
	d := &design{nl: netlist.New(name)}
	d.pl = placement.New(arch.New(gridN), d.nl)
	return d
}

func (d *design) input(name string, x, y int16) {
	c := d.nl.AddCell(name, netlist.IPad, 0)
	d.pl.Place(c.ID, arch.Loc{X: x, Y: y})
}

func (d *design) output(name, sig string, x, y int16) {
	c := d.nl.AddCell(name, netlist.OPad, 1)
	d.nl.ConnectByName(c.ID, 0, sig)
	d.pl.Place(c.ID, arch.Loc{X: x, Y: y})
}

func (d *design) lut(name string, x, y int16, ins ...string) {
	c := d.nl.AddCell(name, netlist.LUT, len(ins))
	for i, s := range ins {
		d.nl.ConnectByName(c.ID, i, s)
	}
	d.pl.Place(c.ID, arch.Loc{X: x, Y: y})
}

func (d *design) check(t *testing.T) {
	t.Helper()
	if err := d.nl.Validate(); err != nil {
		t.Fatalf("netlist invalid: %v", err)
	}
	if err := d.pl.Validate(d.nl); err != nil {
		t.Fatalf("placement invalid: %v", err)
	}
}

func (d *design) period(t *testing.T) float64 {
	t.Helper()
	a, err := timing.Analyze(d.nl, d.pl, dm())
	if err != nil {
		t.Fatal(err)
	}
	return a.Period
}

// detouredChain places a 2-LUT chain in a U shape: input and output
// pads are close together on the west edge, but the LUTs detour east.
func detouredChain(t *testing.T) *design {
	d := newDesign(t, "uchain", 8)
	d.input("i", 0, 2)
	d.lut("l1", 4, 2, "i")
	d.lut("l2", 4, 6, "l1")
	d.output("o", "l2", 0, 6)
	d.check(t)
	return d
}

func TestStraightenDetour(t *testing.T) {
	d := detouredChain(t)
	before := d.period(t)
	// Current: 4 + 4 + 4 wire + 2+2+0.5 = 16.5. The pads sit on the
	// x=0 I/O ring and LUTs live at x>=1, so the best achievable route
	// is 6 units of wire: period 6 + 4.5 = 10.5.
	if before != 16.5 {
		t.Fatalf("setup period = %v, want 16.5", before)
	}
	e := New(d.nl, d.pl, dm(), Default())
	st, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	d.nl, d.pl = e.Netlist, e.Placement
	d.check(t)
	after := d.period(t)
	if after != 10.5 {
		t.Errorf("optimized period = %v, want the 10.5 bound", after)
	}
	if st.FinalPeriod != after {
		t.Errorf("Stats.FinalPeriod = %v, measured %v", st.FinalPeriod, after)
	}
	// Both LUTs have fanout 1: pure relocation, no net replication.
	if d.nl.NumLUTs() != 2 {
		t.Errorf("LUT count = %d, want 2 (relocation, not replication)", d.nl.NumLUTs())
	}
	if !d.pl.Legal() {
		t.Error("final placement must be legal")
	}
}

// forkDesign: one LUT drives two diverging outputs; serving both from
// one location forces a detour for the critical one. Replication
// should split the fanout (the Figs. 1-2 mechanism).
func forkDesign(t *testing.T) *design {
	d := newDesign(t, "fork", 8)
	d.input("i", 0, 4)
	d.lut("v", 4, 4, "i")
	d.output("o1", "v", 0, 1) // far, critical via the detour through v
	d.output("o2", "v", 9, 4) // v already sits on this straight line
	d.check(t)
	return d
}

func TestReplicateFork(t *testing.T) {
	d := forkDesign(t)
	before := d.period(t)
	// o1 path: 4 + (4+3) wire + 2.5 = 13.5; o2 path: 4+5+2.5 = 11.5.
	if before != 13.5 {
		t.Fatalf("setup period = %v, want 13.5", before)
	}
	e := New(d.nl, d.pl, dm(), Default())
	st, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	d.nl, d.pl = e.Netlist, e.Placement
	d.check(t)
	after := d.period(t)
	// The engine should fix the o1 detour; o2's path delay may move a
	// little if v itself relocates but must stay ≥ its 7.5 bound.
	if after > 11.5+1e-9 {
		t.Errorf("optimized period = %v, want <= 11.5", after)
	}
	if st.Replicated == 0 {
		t.Error("expected at least one replication")
	}
	// The replica and the original partition the two outputs.
	vID, _ := d.nl.CellByName("v")
	if d.nl.Alive(vID) {
		class := d.nl.EquivClass(vID)
		if len(class) < 2 {
			t.Error("v should have a surviving replica")
		}
		for _, id := range class {
			if got := len(d.nl.Net(d.nl.Cell(id).Out).Sinks); got != 1 {
				t.Errorf("cell %d drives %d sinks, want 1 (fanout partitioned)", id, got)
			}
		}
	}
	if !d.pl.Legal() {
		t.Error("final placement must be legal")
	}
}

func TestNeverWorsens(t *testing.T) {
	// An already optimal straight chain: the engine must return it
	// untouched (or equal), never degrade it.
	d := newDesign(t, "straight", 8)
	d.input("i", 0, 4)
	d.lut("l1", 3, 4, "i")
	d.lut("l2", 6, 4, "l1")
	d.output("o", "l2", 9, 4)
	d.check(t)
	before := d.period(t)
	e := New(d.nl, d.pl, dm(), Default())
	_, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	d.nl, d.pl = e.Netlist, e.Placement
	after := d.period(t)
	if after > before {
		t.Errorf("engine worsened period: %v -> %v", before, after)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, int, string) {
		d := forkDesign(t)
		e := New(d.nl, d.pl, dm(), Default())
		st, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		names := ""
		for _, n := range e.Netlist.SortedCellNames() {
			names += n + ","
		}
		return st.FinalPeriod, st.Replicated, names
	}
	p1, r1, n1 := run()
	p2, r2, n2 := run()
	if p1 != p2 || r1 != r2 || n1 != n2 {
		t.Errorf("engine not deterministic: (%v,%d,%q) vs (%v,%d,%q)", p1, r1, n1, p2, r2, n2)
	}
}

// fig15 builds the exact reconvergence scenario of Section VI: inputs
// a, b, c; e(b,c) on a straight line to the sink; d(a,e) off to the
// side; g(d,e) feeding sink f. The critical path b/c→e→g→f is monotone
// and already optimal; the subcritical a→d→g→f path detours through
// d's bad location.
func fig15(t *testing.T) *design {
	d := newDesign(t, "fig15", 10)
	d.input("a", 0, 2)
	d.input("b", 0, 6)
	d.input("c", 0, 8)
	d.lut("e", 3, 7, "b", "c")
	d.lut("d", 3, 1, "a", "e")
	d.lut("g", 7, 7, "d", "e")
	d.output("f", "g", 11, 7)
	d.check(t)
	return d
}

func TestFig15ReconvergenceLex3(t *testing.T) {
	runWith := func(mode embed.Mode) (*design, float64) {
		d := fig15(t)
		cfg := Default()
		cfg.Mode = mode
		e := New(d.nl, d.pl, dm(), cfg)
		st, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		d.nl, d.pl = e.Netlist, e.Placement
		d.check(t)
		return d, st.FinalPeriod
	}
	dRT, pRT := runWith(embed.Mode{LexDepth: 1})
	dL3, pL3 := runWith(embed.Mode{LexDepth: 3})
	// Neither may worsen the clock period.
	if pL3 > pRT+1e-9 {
		t.Errorf("Lex-3 period %v worse than RT-Embedding %v", pL3, pRT)
	}
	// The Lex-3 flow should leave the subcritical path through d at
	// least as fast as RT-Embedding does, and strictly faster when the
	// over-optimization fired.
	through := func(d *design, name string) float64 {
		a, err := timing.Analyze(d.nl, d.pl, dm())
		if err != nil {
			t.Fatal(err)
		}
		id, ok := d.nl.CellByName(name)
		if !ok {
			return 0 // cell unified away: its path was fully absorbed
		}
		return a.Through[id]
	}
	tRT := through(dRT, "a")
	tL3 := through(dL3, "a")
	if tL3 > tRT+1e-9 {
		t.Errorf("Lex-3 left subcritical path through a at %v, RT at %v (want <=)", tL3, tRT)
	}
}

func TestLexModesAllRun(t *testing.T) {
	for _, mode := range []embed.Mode{
		{LexDepth: 1},
		{LexDepth: 2},
		{LexDepth: 3},
		{LexDepth: 4},
		{LexDepth: 5},
		{LexDepth: 1, MC: true},
	} {
		d := fig15(t)
		cfg := Default()
		cfg.Mode = mode
		e := New(d.nl, d.pl, dm(), cfg)
		st, err := e.Run()
		if err != nil {
			t.Fatalf("mode %+v: %v", mode, err)
		}
		if st.FinalPeriod > st.InitialPeriod+1e-9 {
			t.Errorf("mode %+v worsened period %v -> %v", mode, st.InitialPeriod, st.FinalPeriod)
		}
		if err := e.Netlist.Validate(); err != nil {
			t.Errorf("mode %+v: invalid netlist: %v", mode, err)
		}
		if !e.Placement.Legal() {
			t.Errorf("mode %+v: illegal placement", mode)
		}
	}
}

func TestStatsPerIterMonotone(t *testing.T) {
	d := forkDesign(t)
	e := New(d.nl, d.pl, dm(), Default())
	st, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(st.PerIter); i++ {
		if st.PerIter[i].Replicated < st.PerIter[i-1].Replicated {
			t.Error("cumulative replication count must not decrease")
		}
		if st.PerIter[i].Unified < st.PerIter[i-1].Unified {
			t.Error("cumulative unification count must not decrease")
		}
	}
	if st.InitialPeriod < st.FinalPeriod {
		t.Errorf("final period %v worse than initial %v", st.FinalPeriod, st.InitialPeriod)
	}
}

func TestRegisteredSinkFFRelocation(t *testing.T) {
	// A registered LUT pinned at a bad location between two pads; the
	// engine's FF relocation should move it once plain embedding is
	// exhausted.
	d := newDesign(t, "ffmove", 8)
	d.input("i", 0, 4)
	r := d.nl.AddCell("r", netlist.LUT, 1)
	r.Registered = true
	d.nl.ConnectByName(r.ID, 0, "i")
	d.pl.Place(r.ID, arch.Loc{X: 7, Y: 7}) // far corner
	d.lut("l", 4, 4, "r")
	d.output("o", "l", 9, 4)
	d.check(t)
	before := d.period(t)
	cfg := Default()
	e := New(d.nl, d.pl, dm(), cfg)
	st, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.FinalPeriod > before {
		t.Errorf("period worsened %v -> %v", before, st.FinalPeriod)
	}
	if st.FFRelocations == 0 {
		t.Error("expected FF relocation to trigger")
	}
	// The register should have moved off the far corner.
	rID, _ := e.Netlist.CellByName("r")
	if e.Placement.Loc(rID) == (arch.Loc{X: 7, Y: 7}) && st.FinalPeriod == before {
		t.Error("register never moved and period never improved")
	}
}

// TestPostUnifyFig13 reproduces the Fig. 13 scenario: cell a and its
// replica a_r live on opposite sides; a_r sits much closer to a's
// remaining fanout, so post-process unification reassigns the fanout
// to the replica and deletes the now-redundant original.
func TestPostUnifyFig13(t *testing.T) {
	d := newDesign(t, "fig13", 8)
	d.input("i", 0, 4)
	d.lut("a", 2, 4, "i")
	d.output("o1", "a", 9, 4) // far from a, close to where a_r will be
	d.check(t)

	aID, _ := d.nl.CellByName("a")
	rep := d.nl.Replicate(aID)
	d.pl.Place(rep.ID, arch.Loc{X: 6, Y: 4})
	o2 := d.nl.AddCell("o2", netlist.OPad, 1)
	d.nl.Connect(o2.ID, 0, rep.Out)
	d.pl.Place(o2.ID, arch.Loc{X: 9, Y: 5})
	d.check(t)

	e := New(d.nl, d.pl, dm(), Default())
	a, err := timing.Analyze(d.nl, d.pl, dm())
	if err != nil {
		t.Fatal(err)
	}
	st := &Stats{}
	e.postUnify(a, []netlist.CellID{rep.ID}, st)
	if err := e.Netlist.Validate(); err != nil {
		t.Fatal(err)
	}
	// o1 now reads the replica; the original a is redundant and gone.
	o1, _ := e.Netlist.CellByName("o1")
	if e.Netlist.Net(e.Netlist.Cell(o1).Fanin[0]).Driver != rep.ID {
		t.Error("o1 should have been reassigned to the replica")
	}
	if e.Netlist.Alive(aID) {
		t.Error("original a should be deleted as redundant (Fig. 13 unification)")
	}
	if st.Unified == 0 {
		t.Error("unification count not recorded")
	}
	if e.Placement.Placed(aID) {
		t.Error("deleted cell must be unplaced")
	}
}

// TestTrimMembers: the ε-SPT cap keeps the most critical cells and
// parent-chain closure.
func TestTrimMembers(t *testing.T) {
	// Long chain: i -> l0 -> l1 -> ... -> l9 -> o.
	d := newDesign(t, "trim", 14)
	d.input("i", 0, 7)
	prev := "i"
	for k := 0; k < 10; k++ {
		name := "l" + string(rune('0'+k))
		d.lut(name, int16(k+1), 7, prev)
		prev = name
	}
	d.output("o", prev, 15, 7)
	d.check(t)
	a, err := timing.Analyze(d.nl, d.pl, dm())
	if err != nil {
		t.Fatal(err)
	}
	spt := timing.BuildSPT(d.nl, d.pl, dm(), a, a.CritSink)
	members := spt.Epsilon(1e9)
	trimMembers(spt, members, 4)
	if len(members) > 5 { // sink + 4
		t.Errorf("trim left %d members, want <= 5", len(members))
	}
	// Closure: every member's parent chain stays inside.
	for id := range members {
		if id == spt.Sink {
			continue
		}
		if !members[spt.Parent[id]] {
			t.Errorf("member %v has trimmed parent", id)
		}
	}
	// The cells nearest the sink (most critical in the chain suffix)
	// survive.
	l9, _ := d.nl.CellByName("l9")
	if !members[l9] {
		t.Error("the most critical cell was trimmed")
	}
}

// TestCLBCapacity2 exercises the hierarchical-FPGA case of
// Section II-A: CLBs holding two LUTs. The whole flow must respect the
// larger slot capacity, and co-locating two chained LUTs in one CLB is
// now legal (zero-distance connection).
func TestCLBCapacity2(t *testing.T) {
	d := newDesign(t, "clb2", 6)
	d.pl.FPGA().CLBCapacity = 2
	d.input("i", 0, 3)
	d.lut("l1", 4, 2, "i")
	d.lut("l2", 4, 5, "l1")
	d.output("o", "l2", 7, 3)
	d.check(t)
	before := d.period(t)
	e := New(d.nl, d.pl, dm(), Default())
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	d.nl, d.pl = e.Netlist, e.Placement
	d.check(t)
	if !d.pl.Legal() {
		t.Fatal("placement exceeds CLB capacity")
	}
	after := d.period(t)
	if after > before {
		t.Errorf("period worsened %v -> %v", before, after)
	}
	// With capacity 2, both LUTs can share a CLB on the i-o line:
	// wire = dist(i,o) with one zero-length hop.
	// i(0,3) -> clb -> o(7,3): 7 wire + 2+2+0.5 intrinsics = 11.5.
	if after > 11.5+1e-9 {
		t.Errorf("period %v, want <= 11.5 (shared-CLB optimum)", after)
	}
}

// TestElmoreModeEngine smoke-tests the Section II-D load-dependent
// signature inside the full engine (the ASIC-domain configuration):
// the run must terminate, stay valid, and never worsen the (linear-
// model) measured period.
func TestElmoreModeEngine(t *testing.T) {
	d := detouredChain(t)
	before := d.period(t)
	cfg := Default()
	cfg.Mode = embed.Mode{LexDepth: 1, Delay: embed.ElmoreDelay, GateR: 0.5}
	e := New(d.nl, d.pl, dm(), cfg)
	st, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	d.nl, d.pl = e.Netlist, e.Placement
	d.check(t)
	if st.FinalPeriod > before {
		t.Errorf("Elmore-mode engine worsened period %v -> %v", before, st.FinalPeriod)
	}
}

// TestTrimMembersBreaksTiesByID trims a star of equally critical fanins
// at equal depth. The cap must keep the lowest cell IDs whatever order
// the member map iterates in, so the tree never depends on map order.
func TestTrimMembersBreaksTiesByID(t *testing.T) {
	spt := &timing.SPT{
		Sink:        0,
		Parent:      map[netlist.CellID]netlist.CellID{},
		PathThrough: map[netlist.CellID]float64{},
	}
	for id := netlist.CellID(1); id <= 16; id++ {
		spt.Parent[id] = 0
		spt.PathThrough[id] = 5
	}
	for trial := 0; trial < 20; trial++ {
		members := map[netlist.CellID]bool{0: true}
		for id := range spt.Parent {
			members[id] = true
		}
		trimMembers(spt, members, 4)
		if len(members) != 5 {
			t.Fatalf("trial %d: kept %d members, want the sink and 4 cells", trial, len(members))
		}
		for id := netlist.CellID(0); id <= 4; id++ {
			if !members[id] {
				t.Fatalf("trial %d: cell %d dropped; ties must keep the lowest IDs, kept %v", trial, id, members)
			}
		}
	}
}
