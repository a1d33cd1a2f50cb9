package timing

import (
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/netlist"
)

// mapLoc is a test Locator backed by a map.
type mapLoc map[netlist.CellID]arch.Loc

func (m mapLoc) Loc(id netlist.CellID) arch.Loc { return m[id] }

func dm() arch.DelayModel { return arch.DelayModel{SegDelay: 1, LUTDelay: 2, IODelay: 0.5} }

// chain builds i -> l1 -> l2 -> o placed on a horizontal line.
func chain(t *testing.T) (*netlist.Netlist, mapLoc) {
	t.Helper()
	n := netlist.New("chain")
	i := n.AddCell("i", netlist.IPad, 0)
	l1 := n.AddCell("l1", netlist.LUT, 1)
	n.ConnectByName(l1.ID, 0, "i")
	l2 := n.AddCell("l2", netlist.LUT, 1)
	n.ConnectByName(l2.ID, 0, "l1")
	o := n.AddCell("o", netlist.OPad, 1)
	n.ConnectByName(o.ID, 0, "l2")
	loc := mapLoc{
		i.ID:  {X: 0, Y: 1},
		l1.ID: {X: 2, Y: 1},
		l2.ID: {X: 5, Y: 1},
		o.ID:  {X: 8, Y: 1},
	}
	return n, loc
}

func TestAnalyzeChain(t *testing.T) {
	n, loc := chain(t)
	a, err := Analyze(n, loc, dm())
	if err != nil {
		t.Fatal(err)
	}
	l1, _ := n.CellByName("l1")
	l2, _ := n.CellByName("l2")
	o, _ := n.CellByName("o")
	if got := a.Arr[l1]; got != 4 { // 2 wire + 2 LUT
		t.Errorf("Arr[l1] = %v, want 4", got)
	}
	if got := a.Arr[l2]; got != 9 { // 4 + 3 wire + 2 LUT
		t.Errorf("Arr[l2] = %v, want 9", got)
	}
	if got := a.SinkArr[o]; got != 12.5 { // 9 + 3 wire + 0.5 pad
		t.Errorf("SinkArr[o] = %v, want 12.5", got)
	}
	if a.Period != 12.5 || a.CritSink != o {
		t.Errorf("Period = %v CritSink = %v, want 12.5 at o", a.Period, a.CritSink)
	}
	// Everything is on the single path: Through = Period, slack 0.
	for _, name := range []string{"i", "l1", "l2", "o"} {
		id, _ := n.CellByName(name)
		if got := a.Through[id]; got != 12.5 {
			t.Errorf("Through[%s] = %v, want 12.5", name, got)
		}
		if s := a.Slack(id); s != 0 {
			t.Errorf("Slack[%s] = %v, want 0", name, s)
		}
	}
}

func TestAnalyzeRegisteredCut(t *testing.T) {
	// i -> r (registered) -> o: two separate timing paths.
	n := netlist.New("seq")
	i := n.AddCell("i", netlist.IPad, 0)
	r := n.AddCell("r", netlist.LUT, 1)
	r.Registered = true
	n.ConnectByName(r.ID, 0, "i")
	o := n.AddCell("o", netlist.OPad, 1)
	n.ConnectByName(o.ID, 0, "r")
	loc := mapLoc{i.ID: {X: 0, Y: 1}, r.ID: {X: 4, Y: 1}, o.ID: {X: 5, Y: 1}}
	a, err := Analyze(n, loc, dm())
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Arr[r.ID]; got != 0 {
		t.Errorf("registered LUT output arrival = %v, want 0", got)
	}
	if got := a.SinkArr[r.ID]; got != 6 { // 4 wire + 2 LUT
		t.Errorf("SinkArr[r] = %v, want 6", got)
	}
	if got := a.SinkArr[o.ID]; got != 1.5 { // 1 wire + 0.5 pad
		t.Errorf("SinkArr[o] = %v, want 1.5", got)
	}
	if a.Period != 6 || a.CritSink != r.ID {
		t.Errorf("Period %v at %v, want 6 at r", a.Period, a.CritSink)
	}
	// Through for r covers both its ending and starting paths.
	if got := a.Through[r.ID]; got != 6 {
		t.Errorf("Through[r] = %v, want 6", got)
	}
}

func TestAnalyzeConvergingPaths(t *testing.T) {
	// Two inputs converge on one LUT; the slower one dominates.
	n := netlist.New("conv")
	near := n.AddCell("near", netlist.IPad, 0)
	far := n.AddCell("far", netlist.IPad, 0)
	l := n.AddCell("l", netlist.LUT, 2)
	n.ConnectByName(l.ID, 0, "near")
	n.ConnectByName(l.ID, 1, "far")
	o := n.AddCell("o", netlist.OPad, 1)
	n.ConnectByName(o.ID, 0, "l")
	loc := mapLoc{near.ID: {X: 4, Y: 1}, far.ID: {X: 0, Y: 9}, l.ID: {X: 5, Y: 1}, o.ID: {X: 6, Y: 1}}
	a, err := Analyze(n, loc, dm())
	if err != nil {
		t.Fatal(err)
	}
	// far -> l wire = 5+8 = 13, so Arr[l] = 13+2 = 15.
	if got := a.Arr[l.ID]; got != 15 {
		t.Errorf("Arr[l] = %v, want 15", got)
	}
	path := a.CriticalPath(n, loc, dm())
	if len(path) != 3 || path[0] != far.ID || path[1] != l.ID || path[2] != o.ID {
		t.Errorf("critical path = %v, want [far l o]", path)
	}
	// near has positive slack.
	if a.Slack(near.ID) <= 0 {
		t.Errorf("Slack[near] = %v, want > 0", a.Slack(near.ID))
	}
}

// TestRegisteredSinkArrivalOrdering pins the fix for registered sinks
// fed by combinational logic: the register's input arrival must see
// its drivers' final arrival times, even though the topological order
// places timing sources before the logic that feeds them.
func TestRegisteredSinkArrivalOrdering(t *testing.T) {
	n := netlist.New("regorder")
	i := n.AddCell("i", netlist.IPad, 0)
	a := n.AddCell("a", netlist.LUT, 1)
	n.ConnectByName(a.ID, 0, "i")
	r := n.AddCell("r", netlist.LUT, 1)
	r.Registered = true
	n.ConnectByName(r.ID, 0, "a")
	o := n.AddCell("o", netlist.OPad, 1)
	n.ConnectByName(o.ID, 0, "r")
	loc := mapLoc{i.ID: {X: 0, Y: 1}, a.ID: {X: 2, Y: 1}, r.ID: {X: 4, Y: 1}, o.ID: {X: 5, Y: 1}}
	an, err := Analyze(n, loc, dm())
	if err != nil {
		t.Fatal(err)
	}
	// Arr[a] = 2 wire + 2 LUT = 4; r's input path = 4 + 2 wire + 2
	// LUT intrinsic = 8, which is also the critical path.
	if got := an.Arr[a.ID]; got != 4 {
		t.Errorf("Arr[a] = %v, want 4", got)
	}
	if got := an.SinkArr[r.ID]; got != 8 {
		t.Errorf("SinkArr[r] = %v, want 8 (stale driver arrival used)", got)
	}
	if an.Period != 8 || an.CritSink != r.ID {
		t.Errorf("Period %v at %v, want 8 at r", an.Period, an.CritSink)
	}
}

func TestNoSinksError(t *testing.T) {
	n := netlist.New("nosink")
	n.AddCell("i", netlist.IPad, 0)
	l := n.AddCell("l", netlist.LUT, 1)
	n.ConnectByName(l.ID, 0, "i")
	loc := mapLoc{0: {X: 0, Y: 1}, 1: {X: 1, Y: 1}}
	if _, err := Analyze(n, loc, dm()); err == nil {
		t.Error("netlist without sinks should fail analysis")
	}
}

func TestPathMonotone(t *testing.T) {
	n := netlist.New("m")
	ids := make([]netlist.CellID, 4)
	loc := mapLoc{}
	names := []string{"s", "a", "b", "t"}
	for i, nm := range names {
		var c *netlist.Cell
		if i == 0 {
			c = n.AddCell(nm, netlist.IPad, 0)
		} else if i == len(names)-1 {
			c = n.AddCell(nm, netlist.OPad, 1)
		} else {
			c = n.AddCell(nm, netlist.LUT, 1)
		}
		ids[i] = c.ID
		if i > 0 {
			n.ConnectByName(c.ID, 0, names[i-1])
		}
	}
	// Straight line: monotone both ways.
	loc[ids[0]], loc[ids[1]], loc[ids[2]], loc[ids[3]] =
		arch.Loc{X: 1, Y: 1}, arch.Loc{X: 3, Y: 1}, arch.Loc{X: 5, Y: 1}, arch.Loc{X: 7, Y: 1}
	if !PathMonotone(loc, ids) || !LocallyMonotone(loc, ids) {
		t.Error("straight line should be monotone and locally monotone")
	}
	// Fig. 3 shape: a U. Every window of 3 is monotone, the whole
	// path is not — the case local replication cannot improve.
	loc[ids[0]], loc[ids[1]], loc[ids[2]], loc[ids[3]] =
		arch.Loc{X: 1, Y: 1}, arch.Loc{X: 5, Y: 1}, arch.Loc{X: 5, Y: 5}, arch.Loc{X: 1, Y: 5}
	if PathMonotone(loc, ids) {
		t.Error("U path should not be globally monotone")
	}
	if !LocallyMonotone(loc, ids) {
		t.Error("U path should be locally monotone (Fig. 3)")
	}
	// Hard detour: not even locally monotone.
	loc[ids[0]], loc[ids[1]], loc[ids[2]], loc[ids[3]] =
		arch.Loc{X: 1, Y: 1}, arch.Loc{X: 8, Y: 8}, arch.Loc{X: 2, Y: 2}, arch.Loc{X: 3, Y: 1}
	if LocallyMonotone(loc, ids) {
		t.Error("zig-zag should not be locally monotone")
	}
}

func TestLowerBoundChain(t *testing.T) {
	n, loc := chain(t)
	o, _ := n.CellByName("o")
	lb := LowerBound(n, loc, dm(), o)
	// i at (0,1), o at (8,1): 8 wire + 2 LUT stages * 2 + 0.5 pad = 12.5.
	if lb != 12.5 {
		t.Errorf("LowerBound = %v, want 12.5", lb)
	}
	a, _ := Analyze(n, loc, dm())
	if lb > a.Period {
		t.Error("lower bound must not exceed the achieved period")
	}
}

func TestLowerBoundDetour(t *testing.T) {
	// Same chain but with a detoured middle cell: the bound must stay
	// below the (detoured) period and equal the straightened delay.
	n, loc := chain(t)
	l1, _ := n.CellByName("l1")
	loc[l1] = arch.Loc{X: 2, Y: 7} // force a detour
	o, _ := n.CellByName("o")
	a, err := Analyze(n, loc, dm())
	if err != nil {
		t.Fatal(err)
	}
	lb := LowerBound(n, loc, dm(), o)
	if lb != 12.5 {
		t.Errorf("LowerBound = %v, want 12.5 (straightened)", lb)
	}
	if a.Period <= lb {
		t.Errorf("detoured period %v should exceed bound %v", a.Period, lb)
	}
}

// fig9 builds a circuit in the spirit of Fig. 9: inputs a,b,c,d,j,
// outputs l and m, where m is critical and the ε-SPT excludes g and j.
func fig9(t *testing.T) (*netlist.Netlist, mapLoc, netlist.CellID) {
	t.Helper()
	n := netlist.New("fig9")
	for _, in := range []string{"a", "b", "c", "d", "j"} {
		n.AddCell(in, netlist.IPad, 0)
	}
	e := n.AddCell("e", netlist.LUT, 2)
	n.ConnectByName(e.ID, 0, "a")
	n.ConnectByName(e.ID, 1, "b")
	f := n.AddCell("f", netlist.LUT, 2)
	n.ConnectByName(f.ID, 0, "c")
	n.ConnectByName(f.ID, 1, "d")
	g := n.AddCell("g", netlist.LUT, 1)
	n.ConnectByName(g.ID, 0, "j")
	h := n.AddCell("h", netlist.LUT, 2)
	n.ConnectByName(h.ID, 0, "e")
	n.ConnectByName(h.ID, 1, "f")
	k := n.AddCell("k", netlist.LUT, 2)
	n.ConnectByName(k.ID, 0, "h")
	n.ConnectByName(k.ID, 1, "g")
	lo := n.AddCell("l", netlist.OPad, 1)
	n.ConnectByName(lo.ID, 0, "g")
	m := n.AddCell("m", netlist.OPad, 1)
	n.ConnectByName(m.ID, 0, "k")

	loc := mapLoc{}
	at := func(name string, x, y int16) {
		id, _ := n.CellByName(name)
		loc[id] = arch.Loc{X: x, Y: y}
	}
	// Long path a/b/c/d -> e/f -> h -> k -> m; short path j -> g -> k.
	at("a", 0, 2)
	at("b", 0, 4)
	at("c", 0, 6)
	at("d", 0, 8)
	at("e", 3, 3)
	at("f", 3, 7)
	at("h", 6, 5)
	at("j", 9, 2)
	at("g", 9, 4)
	at("k", 9, 5)
	at("l", 11, 4)
	at("m", 11, 5)
	return n, loc, m.ID
}

func TestEpsilonSPTFig9(t *testing.T) {
	n, loc, m := fig9(t)
	a, err := Analyze(n, loc, dm())
	if err != nil {
		t.Fatal(err)
	}
	if a.CritSink != m {
		t.Fatalf("critical sink should be m, got %v", a.CritSink)
	}
	spt := BuildSPT(n, loc, dm(), a, m)
	if spt.SinkArr != a.SinkArr[m] {
		t.Error("SPT sink arrival mismatch")
	}
	// PathThrough at any node never exceeds the sink arrival and the
	// parent's PathThrough dominates the child's.
	for u, pt := range spt.PathThrough {
		if pt > spt.SinkArr+1e-9 {
			t.Errorf("PathThrough[%v] = %v exceeds sink arrival %v", u, pt, spt.SinkArr)
		}
		if u == m {
			continue
		}
		p := spt.Parent[u]
		if pp := spt.PathThrough[p]; pp+1e-9 < pt {
			t.Errorf("parent PathThrough %v < child %v", pp, pt)
		}
	}
	// ε = 0: only the single critical path.
	zero := spt.Epsilon(0)
	for _, name := range []string{"h", "k"} {
		id, _ := n.CellByName(name)
		if !zero[id] {
			t.Errorf("ε=0 SPT should contain %s", name)
		}
	}
	gID, _ := n.CellByName("g")
	jID, _ := n.CellByName("j")
	if zero[gID] || zero[jID] {
		t.Error("ε=0 SPT must exclude the fast g/j branch (Fig. 9)")
	}
	// Large ε: everything in the cone joins.
	all := spt.Epsilon(1e9)
	if !all[gID] || !all[jID] {
		t.Error("huge ε should include g and j")
	}
	// Monotone growth: bigger ε never loses members.
	small := spt.Epsilon(1)
	for u := range zero {
		if !small[u] {
			t.Errorf("ε growth lost member %v", u)
		}
	}
}

func TestSPTChildren(t *testing.T) {
	n, loc, m := fig9(t)
	a, _ := Analyze(n, loc, dm())
	spt := BuildSPT(n, loc, dm(), a, m)
	members := spt.Epsilon(1e9)
	ch := spt.Children(members)
	kID, _ := n.CellByName("k")
	hID, _ := n.CellByName("h")
	gID, _ := n.CellByName("g")
	// k's tree children are h and g.
	kids := ch[kID]
	if len(kids) != 2 || kids[0] != hID && kids[1] != hID {
		t.Errorf("children of k = %v, want h and g", kids)
	}
	_ = gID
	// Every member except the sink appears exactly once as a child.
	count := map[netlist.CellID]int{}
	for _, kids := range ch {
		for _, k := range kids {
			count[k]++
		}
	}
	for u := range members {
		if u == m {
			continue
		}
		if count[u] != 1 {
			t.Errorf("member %v appears %d times as child, want 1", u, count[u])
		}
	}
}

func TestSlackNonNegativeOnAllCells(t *testing.T) {
	n, loc, _ := fig9(t)
	a, _ := Analyze(n, loc, dm())
	n.Cells(func(c *netlist.Cell) {
		if s := a.Slack(c.ID); !math.IsInf(s, 1) && s < -1e-9 {
			t.Errorf("negative slack %v at %s", s, c.Name)
		}
	})
}

func TestMonotonicityStats(t *testing.T) {
	n, loc, _ := fig9(t)
	a, err := Analyze(n, loc, dm())
	if err != nil {
		t.Fatal(err)
	}
	st := Monotonicity(n, loc, dm(), a)
	if st.Paths != 2 { // sinks l and m
		t.Errorf("Paths = %d, want 2", st.Paths)
	}
	if st.Monotone > st.Paths || st.LocallyMonotone < st.Monotone {
		t.Errorf("inconsistent counts: %+v (monotone implies locally monotone)", st)
	}
	if st.WorstDetour < 0 {
		t.Errorf("negative detour %d", st.WorstDetour)
	}
}

func TestMonotonicityDetectsDetour(t *testing.T) {
	n, loc := chain(t)
	a, _ := Analyze(n, loc, dm())
	st := Monotonicity(n, loc, dm(), a)
	if st.Monotone != 1 || st.WorstDetour != 0 || !st.CriticalMonotone {
		t.Errorf("straight chain: %+v", st)
	}
	// Detour the middle cell.
	l1, _ := n.CellByName("l1")
	loc[l1] = arch.Loc{X: 2, Y: 5}
	a, _ = Analyze(n, loc, dm())
	st = Monotonicity(n, loc, dm(), a)
	if st.Monotone != 0 || st.WorstDetour != 8 || st.CriticalMonotone {
		t.Errorf("detoured chain: %+v, want detour 8", st)
	}
}

func TestTopPathsAndReport(t *testing.T) {
	n, loc, m := fig9(t)
	a, _ := Analyze(n, loc, dm())
	reports := TopPaths(n, loc, dm(), a, 10)
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	// Slowest first; first is the critical sink with zero slack.
	if reports[0].Sink != m || reports[0].Slack != 0 {
		t.Errorf("first report %+v, want critical sink m with slack 0", reports[0])
	}
	if reports[1].Arrival > reports[0].Arrival {
		t.Error("reports not sorted by arrival")
	}
	if reports[1].Slack <= 0 {
		t.Error("subcritical path should have positive slack")
	}
	// Paths start at a source and end at the sink.
	for _, r := range reports {
		if !n.Cell(r.Cells[0]).IsSource() {
			t.Errorf("path does not start at a source: %v", r.Cells)
		}
		if r.Cells[len(r.Cells)-1] != r.Sink {
			t.Errorf("path does not end at its sink")
		}
	}
	text := FormatReport(n, loc, reports)
	if !strings.Contains(text, "arrival") || !strings.Contains(text, "->") {
		t.Errorf("report formatting broken:\n%s", text)
	}
	// TopPaths(k) truncates.
	if got := len(TopPaths(n, loc, dm(), a, 1)); got != 1 {
		t.Errorf("TopPaths(1) returned %d", got)
	}
}
