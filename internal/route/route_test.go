package route

import (
	"container/heap"
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/timing"
)

func dm() arch.DelayModel { return arch.DelayModel{SegDelay: 1, LUTDelay: 2, IODelay: 0.5} }

type mapLoc map[netlist.CellID]arch.Loc

func (m mapLoc) Loc(id netlist.CellID) arch.Loc { return m[id] }

// straightChain: i -> l1 -> o on a line; trivially routable.
func straightChain(t *testing.T) (*netlist.Netlist, mapLoc, *arch.FPGA) {
	t.Helper()
	n := netlist.New("chain")
	i := n.AddCell("i", netlist.IPad, 0)
	l1 := n.AddCell("l1", netlist.LUT, 1)
	n.ConnectByName(l1.ID, 0, "i")
	o := n.AddCell("o", netlist.OPad, 1)
	n.ConnectByName(o.ID, 0, "l1")
	f := arch.New(6)
	loc := mapLoc{i.ID: {X: 0, Y: 3}, l1.ID: {X: 3, Y: 3}, o.ID: {X: 7, Y: 3}}
	return n, loc, f
}

func TestRouteStraightChain(t *testing.T) {
	n, loc, f := straightChain(t)
	res, err := Infinite(n, loc, f, dm(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("infinite-resource routing must be feasible")
	}
	// Two nets: i->l1 (3 tiles of wire) and l1->o (4).
	if res.WireLength != 7 {
		t.Errorf("wire length = %d, want 7", res.WireLength)
	}
	// Post-route critical path equals the placement estimate on
	// detour-free routes: 3 + 2 + 4 + 0.5.
	if res.CritPath != 9.5 {
		t.Errorf("post-route period = %v, want 9.5", res.CritPath)
	}
	// Per-connection lengths.
	l1, _ := n.CellByName("l1")
	iID, _ := n.CellByName("i")
	c := Conn{n.Cell(iID).Out, netlist.Pin{Cell: l1, Input: 0}}
	if res.ConnLen[c] != 3 {
		t.Errorf("conn length i->l1 = %d, want 3", res.ConnLen[c])
	}
}

func TestRouteFanout(t *testing.T) {
	// One driver, two sinks sharing a trunk: Steiner sharing should
	// keep wirelength below the sum of point-to-point distances.
	n := netlist.New("fan")
	i := n.AddCell("i", netlist.IPad, 0)
	a := n.AddCell("a", netlist.LUT, 1)
	n.ConnectByName(a.ID, 0, "i")
	b := n.AddCell("b", netlist.LUT, 1)
	n.ConnectByName(b.ID, 0, "i")
	oa := n.AddCell("oa", netlist.OPad, 1)
	n.ConnectByName(oa.ID, 0, "a")
	ob := n.AddCell("ob", netlist.OPad, 1)
	n.ConnectByName(ob.ID, 0, "b")
	f := arch.New(8)
	loc := mapLoc{
		i.ID: {X: 0, Y: 4},
		a.ID: {X: 6, Y: 3}, b.ID: {X: 6, Y: 5},
		oa.ID: {X: 9, Y: 3}, ob.ID: {X: 9, Y: 5},
	}
	res, err := Infinite(n, loc, f, dm(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	iNet := n.Cell(i.ID).Out
	// Point-to-point: 7 + 7 = 14; a shared trunk does better.
	treeWire := 0
	for _, c := range []Conn{
		{iNet, netlist.Pin{Cell: a.ID, Input: 0}},
		{iNet, netlist.Pin{Cell: b.ID, Input: 0}},
	} {
		if res.ConnLen[c] < 7 {
			t.Errorf("connection %v shorter than Manhattan distance: %d", c, res.ConnLen[c])
		}
		treeWire = res.ConnLen[c]
	}
	_ = treeWire
	if res.WireLength >= 14+6 {
		t.Errorf("total wire %d suggests no trunk sharing", res.WireLength)
	}
}

func TestCongestionForcesDetour(t *testing.T) {
	// Two parallel nets cross the same corridor; with width 1 one must
	// detour, with width 2 both go straight.
	n := netlist.New("cong")
	i1 := n.AddCell("i1", netlist.IPad, 0)
	i2 := n.AddCell("i2", netlist.IPad, 0)
	l1 := n.AddCell("l1", netlist.LUT, 1)
	n.ConnectByName(l1.ID, 0, "i1")
	l2 := n.AddCell("l2", netlist.LUT, 1)
	n.ConnectByName(l2.ID, 0, "i2")
	o1 := n.AddCell("o1", netlist.OPad, 1)
	n.ConnectByName(o1.ID, 0, "l1")
	o2 := n.AddCell("o2", netlist.OPad, 1)
	n.ConnectByName(o2.ID, 0, "l2")
	f := arch.New(6)
	// Both nets want row 3: i1/i2 on the west ring (same column),
	// LUTs stacked at x=3 rows 3/4, pads crossing.
	loc := mapLoc{
		i1.ID: {X: 0, Y: 3}, i2.ID: {X: 0, Y: 4},
		l1.ID: {X: 3, Y: 4}, l2.ID: {X: 3, Y: 3},
		o1.ID: {X: 7, Y: 4}, o2.ID: {X: 7, Y: 3},
	}
	opt := Defaults()
	opt.ChannelWidth = 2
	res2, err := Route(n, loc, f, dm(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Feasible {
		t.Fatal("width 2 should be feasible")
	}
	opt.ChannelWidth = 1
	res1, err := Route(n, loc, f, dm(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Feasible && res1.WireLength < res2.WireLength {
		t.Errorf("width-1 routing used less wire (%d) than width-2 (%d)",
			res1.WireLength, res2.WireLength)
	}
}

// placedRandom builds and places a random circuit for end-to-end
// router tests.
func placedRandom(t *testing.T, seed int64, luts int) (*netlist.Netlist, timing.Locator, *arch.FPGA) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := netlist.New("r")
	var signals []string
	for i := 0; i < 6; i++ {
		name := "i" + string(rune('0'+i))
		n.AddCell(name, netlist.IPad, 0)
		signals = append(signals, name)
	}
	for i := 0; i < luts; i++ {
		name := "l" + itoa(i)
		k := 1 + rng.Intn(3)
		c := n.AddCell(name, netlist.LUT, k)
		for p := 0; p < k; p++ {
			c2 := signals[len(signals)-1-rng.Intn(min(len(signals), 10))]
			n.ConnectByName(c.ID, p, c2)
		}
		signals = append(signals, name)
	}
	for i := 0; i < 6; i++ {
		c := n.AddCell("o"+string(rune('0'+i)), netlist.OPad, 1)
		n.ConnectByName(c.ID, 0, signals[len(signals)-1-rng.Intn(luts)])
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	f := arch.MinSquare(n.NumLUTs(), n.NumIOs())
	opts := place.Defaults()
	opts.Seed = seed
	opts.Effort = 1
	pl, err := place.Place(n, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	return n, pl, f
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

func TestMinChannelWidthAndLowStress(t *testing.T) {
	n, pl, f := placedRandom(t, 21, 60)
	wmin, err := MinChannelWidth(n, pl, f, dm(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if wmin < 1 {
		t.Fatalf("wmin = %d", wmin)
	}
	// Feasible at wmin, infeasible at wmin-1.
	opt := Defaults()
	opt.ChannelWidth = wmin
	res, err := Route(n, pl, f, dm(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Error("routing at wmin must be feasible")
	}
	if wmin > 1 {
		opt.ChannelWidth = wmin - 1
		res, err = Route(n, pl, f, dm(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Feasible {
			t.Error("routing below wmin should be infeasible")
		}
	}
	// Low-stress: W∞ period <= W_ls period (more freedom can only help),
	// and both feasible.
	ls, w, err := LowStress(n, pl, f, dm(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if w < wmin {
		t.Errorf("low-stress width %d below wmin %d", w, wmin)
	}
	if !ls.Feasible {
		t.Error("low-stress routing must be feasible")
	}
	inf, err := Infinite(n, pl, f, dm(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if inf.CritPath > ls.CritPath+1e-9 {
		t.Errorf("W∞ period %v worse than W_ls %v", inf.CritPath, ls.CritPath)
	}
	// Routed lengths are never shorter than Manhattan distances, so
	// the routed period is at least the placement-level period.
	a, err := timing.Analyze(n, pl, dm())
	if err != nil {
		t.Fatal(err)
	}
	if inf.CritPath < a.Period-1e-9 {
		t.Errorf("post-route period %v beats placement estimate %v", inf.CritPath, a.Period)
	}
}

func TestRouteDeterministic(t *testing.T) {
	n, pl, f := placedRandom(t, 33, 40)
	r1, err := Infinite(n, pl, f, dm(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Infinite(n, pl, f, dm(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if r1.WireLength != r2.WireLength || r1.CritPath != r2.CritPath {
		t.Error("router is not deterministic")
	}
}

func TestTileUsage(t *testing.T) {
	n, loc, f := straightChain(t)
	res, err := Infinite(n, loc, f, dm(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TileUsage) == 0 {
		t.Fatal("TileUsage empty")
	}
	// The chain is routed along row 3: every tile on it is used.
	for x := int16(0); x <= 7; x++ {
		if res.TileUsage[arch.Loc{X: x, Y: 3}] == 0 {
			t.Errorf("tile (%d,3) unused on a straight-line route", x)
		}
	}
	// Total usage is consistent with wirelength: a tree with k edges
	// touches k+1 tiles.
	total := 0
	for _, u := range res.TileUsage {
		total += u
	}
	if total != res.WireLength+n.NumNets() {
		t.Errorf("usage total %d, want wire %d + nets %d", total, res.WireLength, n.NumNets())
	}
}

// refPQ is the container/heap queue connect's typed heap replaces.
type refPQ []pqItem

func (q refPQ) Len() int           { return len(q) }
func (q refPQ) Less(i, j int) bool { return q[i].cost < q[j].cost }
func (q refPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *refPQ) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// TestHeapMatchesContainerHeap drives the typed heap and container/heap
// through the same random push/pop sequences. Costs take four values,
// so most comparisons tie, and every item carries a distinct tile: the
// two must pop the same items and keep the same array layout after
// every operation, not merely pop equal costs.
func TestHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		r := &router{}
		var ref refPQ
		for op := 0; op < 400; op++ {
			if len(ref) == 0 || rng.Intn(5) < 3 {
				it := pqItem{cost: float64(rng.Intn(4)) * 0.5, tile: int32(op)}
				r.push(it)
				heap.Push(&ref, it)
			} else if got, want := r.pop(), heap.Pop(&ref).(pqItem); got != want {
				t.Fatalf("trial %d op %d: popped %+v, container/heap pops %+v", trial, op, got, want)
			}
			if !slices.Equal(r.q, ref) {
				t.Fatalf("trial %d op %d: layout %v, container/heap has %v", trial, op, r.q, ref)
			}
		}
		for len(ref) > 0 {
			if got, want := r.pop(), heap.Pop(&ref).(pqItem); got != want {
				t.Fatalf("trial %d drain: popped %+v, container/heap pops %+v", trial, got, want)
			}
		}
	}
}

// TestRouteAllocsFlat pins the router's scratch reuse: the allocations
// of a Route call are a fixed set of buffers and result maps, so a
// fixture with ~10x the connections allocates about as often.
func TestRouteAllocsFlat(t *testing.T) {
	allocs := func(luts int) (float64, int) {
		n, pl, f := placedRandom(t, 21, luts)
		opt := Defaults()
		w, err := MinChannelWidth(n, pl, f, dm(), opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.ChannelWidth = w
		conns := 0
		n.Nets(func(net *netlist.Net) { conns += len(net.Sinks) })
		return testing.AllocsPerRun(2, func() {
			if _, err := Route(n, pl, f, dm(), opt); err != nil {
				t.Fatal(err)
			}
		}), conns
	}
	small, smallConns := allocs(30)
	large, largeConns := allocs(300)
	if largeConns < 8*smallConns {
		t.Fatalf("fixtures too close: %d vs %d connections", smallConns, largeConns)
	}
	if large > small+8 {
		t.Errorf("Route allocations grow with the design: %v at %d connections, %v at %d",
			small, smallConns, large, largeConns)
	}
}

// pollCtx is a context whose Err reports cancellation from poll
// number after+1 on, counting every poll.
type pollCtx struct {
	context.Context
	polls, after int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls > c.after {
		return context.Canceled
	}
	return nil
}

func TestLowStressContext(t *testing.T) {
	n, pl, f := placedRandom(t, 21, 60)
	want, wantW, err := LowStress(n, pl, f, dm(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	// Uncancelled: bit-identical to LowStress; count the polls.
	full := &pollCtx{Context: context.Background(), after: math.MaxInt}
	got, w, err := LowStressContext(full, n, pl, f, dm(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if w != wantW || got.WireLength != want.WireLength ||
		math.Float64bits(got.CritPath) != math.Float64bits(want.CritPath) {
		t.Errorf("LowStressContext = (w %d, wire %d, period %v), LowStress = (w %d, wire %d, period %v)",
			w, got.WireLength, got.CritPath, wantW, want.WireLength, want.CritPath)
	}
	if full.polls < 4 {
		t.Fatalf("only %d polls over a whole width search", full.polls)
	}
	// Cancelled mid-search: ctx.Err() comes back at the next poll.
	mid := &pollCtx{Context: context.Background(), after: full.polls / 2}
	res, w, err := LowStressContext(mid, n, pl, f, dm(), Defaults())
	if !errors.Is(err, context.Canceled) || res != nil || w != 0 {
		t.Errorf("cancelled mid-search: (%v, %d, %v), want (nil, 0, context.Canceled)", res, w, err)
	}
	if mid.polls != mid.after+1 {
		t.Errorf("search went on for %d polls after cancellation", mid.polls-mid.after-1)
	}
	// Cancelled at the first poll: that poll is the skipped probe of
	// width 2, below the pin bound, and the search stops there.
	r := newRouter(n, pl, f, dm(), Defaults())
	if r.pinBound <= 2 {
		t.Fatalf("pin bound %d: width 2 is no longer a skipped probe on this fixture", r.pinBound)
	}
	first := &pollCtx{Context: context.Background()}
	if _, err := r.probe(first, 2); !errors.Is(err, context.Canceled) || first.polls != 1 {
		t.Errorf("skipped probe under a cancelled context: err %v after %d polls, want context.Canceled after 1", err, first.polls)
	}
	first = &pollCtx{Context: context.Background()}
	res, w, err = LowStressContext(first, n, pl, f, dm(), Defaults())
	if !errors.Is(err, context.Canceled) || res != nil || w != 0 {
		t.Errorf("cancelled at the first poll: (%v, %d, %v), want (nil, 0, context.Canceled)", res, w, err)
	}
	if first.polls != 1 {
		t.Errorf("cancelled at the first poll, yet polled %d times", first.polls)
	}
	// Cancelled before the call: no routing at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := LowStressContext(ctx, n, pl, f, dm(), Defaults()); err != context.Canceled {
		t.Errorf("pre-cancelled context: err = %v, want context.Canceled", err)
	}
}
