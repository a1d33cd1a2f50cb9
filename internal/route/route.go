// Package route is a negotiated-congestion (PathFinder-style) detailed
// router over a tile grid — the stand-in for VPR's router used to
// assess results post-placement, exactly as the paper's flow does
// ("we then pass it to the VPR detailed router to accurately assess
// the results"). It supports the two evaluation regimes of Table I:
//
//   - infinite-resource routing (W∞): unbounded channel capacity, the
//     placement-evaluation metric of Marquardt et al.;
//   - low-stress routing (W_ls): capacity fixed at 1.2 × Wmin, where
//     Wmin is found by binary search — "how an FPGA will be routed in
//     practice".
//
// The routing fabric is modeled as one routing node per grid tile with
// a per-tile track capacity; a net is a Steiner tree over tiles grown
// by repeated Dijkstra expansions. Congestion is negotiated with
// PathFinder's present-sharing and history costs, rip-up and reroute.
package route

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/arch"
	"repro/internal/netlist"
	"repro/internal/timing"
)

// Options tunes a routing run.
type Options struct {
	// ChannelWidth is the per-tile track capacity; 0 means infinite
	// resources (the W∞ regime).
	ChannelWidth int
	// MaxIters bounds the rip-up/reroute iterations.
	MaxIters int
	// PresFacInit/PresFacMult grow the present-congestion penalty each
	// iteration; HistFac accumulates history cost.
	PresFacInit float64
	PresFacMult float64
	HistFac     float64
	// BBoxMargin pads each net's routing region (VPR routes within the
	// net bounding box plus a margin).
	BBoxMargin int
}

// Defaults returns the router defaults.
func Defaults() Options {
	return Options{
		MaxIters:    30,
		PresFacInit: 0.5,
		PresFacMult: 1.8,
		HistFac:     1.0,
		BBoxMargin:  3,
	}
}

// Result summarizes one routing run.
type Result struct {
	// Feasible reports whether the final routing has no overused tile.
	Feasible bool
	// Iterations actually used.
	Iterations int
	// WireLength is the total tree wire length over all nets, in tile
	// steps.
	WireLength int
	// CritPath is the post-route clock period under the linear delay
	// model with routed (not Manhattan) wire lengths.
	CritPath float64
	// ConnLen maps each connection to its routed length in tiles.
	ConnLen map[Conn]int
	// TileUsage maps each tile to the number of nets routed through
	// it — the "actual channel occupancy" the paper's Section VIII
	// proposes feeding back into the embedder's wire costs.
	TileUsage map[arch.Loc]int
}

// Conn identifies a routed connection (net driver to one sink pin).
type Conn struct {
	Net  netlist.NetID
	Sink netlist.Pin
}

// router carries the state of one routing job. It is allocated once
// per placement and reset for every channel width probed; past the
// first searches, which grow the scratch slices, the rip-up/reroute
// loop allocates nothing.
type router struct {
	nl  *netlist.Netlist
	pl  timing.Locator
	dm  arch.DelayModel
	opt Options

	w, h     int // tile grid dims: (N+2) x (N+2)
	capacity int // per-tile tracks at the width being routed
	// pinBound is the most distinct routed nets with a pin on one tile:
	// no width below it can route feasibly (see maxTilePins).
	pinBound int
	occ      []int16
	hist     []float64
	presFac  float64

	// nets holds the routed nets in routing order. Their sinks, nearest
	// first, are conns[lo:hi]; all of it depends only on the placement.
	nets  []netRoute
	conns []connRoute
	// connLen[netOff[net]+i] is the routed length of the net's i-th
	// sink in the latest iteration; netOff is -1 for unrouted nets.
	netOff  []int32
	connLen []int32
	wire    int // total tree wire of the latest iteration

	// The tree being grown: a tile is on it iff inTree[t] == treeStamp,
	// treeDist[t] is then its distance from the driver, and treeTiles
	// lists the members.
	inTree    []int32
	treeDist  []int32
	treeTiles []int32
	treeStamp int32

	// Dijkstra scratch; visited[t] == epoch marks dist/prev as current.
	dist    []float64
	prev    []int32
	visited []int32
	epoch   int32
	q       []pqItem
	path    []int32
}

// netRoute is one net's fixed routing input.
type netRoute struct {
	id             netlist.NetID
	driver         int32
	x0, y0, x1, y1 int // net bounding box plus margin
	lo, hi         int // span of r.conns
}

// connRoute is one sink to reach: its tile and its index in Net.Sinks.
type connRoute struct {
	tile int32
	sink int32
}

// Route routes all nets of the placed netlist.
func Route(nl *netlist.Netlist, pl timing.Locator, f *arch.FPGA, dm arch.DelayModel, opt Options) (*Result, error) {
	r := newRouter(nl, pl, f, dm, opt)
	feasible, iters, err := r.run(context.Background(), opt.ChannelWidth)
	if err != nil {
		return nil, err
	}
	return r.result(feasible, iters)
}

func newRouter(nl *netlist.Netlist, pl timing.Locator, f *arch.FPGA, dm arch.DelayModel, opt Options) *router {
	if opt.MaxIters <= 0 {
		opt.MaxIters = Defaults().MaxIters
	}
	if opt.PresFacInit == 0 {
		opt.PresFacInit = Defaults().PresFacInit
	}
	if opt.PresFacMult == 0 {
		opt.PresFacMult = Defaults().PresFacMult
	}
	if opt.HistFac == 0 {
		opt.HistFac = Defaults().HistFac
	}
	r := &router{
		nl: nl, pl: pl, dm: dm, opt: opt,
		w: f.N + 2, h: f.N + 2,
	}
	n := r.w * r.h
	r.occ = make([]int16, n)
	r.hist = make([]float64, n)
	r.inTree = make([]int32, n)
	r.treeDist = make([]int32, n)
	r.dist = make([]float64, n)
	r.prev = make([]int32, n)
	r.visited = make([]int32, n)
	r.netOff = make([]int32, nl.NetCap())
	for i := range r.netOff {
		r.netOff[i] = -1
	}
	r.orderNets()
	r.pinBound = r.maxTilePins()
	return r
}

func (r *router) infinite() bool { return r.opt.ChannelWidth <= 0 }

func (r *router) tile(l arch.Loc) int32 { return int32(int(l.Y)*r.w + int(l.X)) }

func (r *router) loc(t int32) arch.Loc {
	return arch.Loc{X: int16(int(t) % r.w), Y: int16(int(t) / r.w)}
}

// orderNets fills nets and conns. Long nets route first (their
// flexibility is lowest), a common PathFinder ordering; within a net,
// sinks route nearest first. Both orders are total, so deterministic.
func (r *router) orderNets() {
	type entry struct {
		net  *netlist.Net
		span int
	}
	nets := make([]entry, 0, r.nl.NumNets())
	conns := 0
	r.nl.Nets(func(n *netlist.Net) {
		if len(n.Sinks) == 0 {
			return
		}
		d := r.pl.Loc(n.Driver)
		span := 0
		for _, p := range n.Sinks {
			span = max(span, arch.Dist(d, r.pl.Loc(p.Cell)))
		}
		nets = append(nets, entry{n, span})
		conns += len(n.Sinks)
	})
	sort.Slice(nets, func(i, j int) bool {
		if nets[i].span != nets[j].span {
			return nets[i].span > nets[j].span
		}
		return nets[i].net.ID < nets[j].net.ID
	})
	r.nets = make([]netRoute, len(nets))
	r.conns = make([]connRoute, 0, conns)
	r.connLen = make([]int32, conns)
	for i, e := range nets {
		net := e.net
		r.netOff[net.ID] = int32(len(r.conns))
		x0, y0, x1, y1 := r.region(net)
		nr := netRoute{
			id: net.ID, driver: r.tile(r.pl.Loc(net.Driver)),
			x0: x0, y0: y0, x1: x1, y1: y1,
			lo: len(r.conns),
		}
		for s, p := range net.Sinks {
			r.conns = append(r.conns, connRoute{r.tile(r.pl.Loc(p.Cell)), int32(s)})
		}
		nr.hi = len(r.conns)
		dl := r.pl.Loc(net.Driver)
		dist := func(c connRoute) int { return arch.Dist(dl, r.pl.Loc(net.Sinks[c.sink].Cell)) }
		slices.SortFunc(r.conns[nr.lo:nr.hi], func(a, b connRoute) int {
			if da, db := dist(a), dist(b); da != db {
				return da - db
			}
			pa, pb := net.Sinks[a.sink], net.Sinks[b.sink]
			if pa.Cell != pb.Cell {
				return int(pa.Cell) - int(pb.Cell)
			}
			return int(pa.Input) - int(pb.Input)
		})
		r.nets[i] = nr
	}
}

// maxTilePins returns the largest number of distinct routed nets with
// a pin (the driver or a sink) on any one tile. It counts in occ, which
// run clears before it routes, and marks a net's tiles with a fresh
// tree stamp, so it needs no scratch of its own.
//
// No width below it routes feasibly. Every iteration of run routes
// every net in full from a cleared occ; routeNet adds one to occ at the
// driver tile and connect adds one at every tile it puts on the tree,
// sinks included. So after every iteration occ[t] is at least the
// number of nets pinned on t, updateCongestion finds that tile overused
// on all MaxIters iterations at a smaller width, and run returns
// infeasible.
func (r *router) maxTilePins() int {
	clear(r.occ)
	most := 0
	mark := func(t int32) {
		if r.inTree[t] != r.treeStamp {
			r.inTree[t] = r.treeStamp
			r.occ[t]++
			most = max(most, int(r.occ[t]))
		}
	}
	for i := range r.nets {
		nr := &r.nets[i]
		r.treeStamp++
		mark(nr.driver)
		for _, c := range r.conns[nr.lo:nr.hi] {
			mark(c.tile)
		}
	}
	clear(r.occ)
	return most
}

func (r *router) region(net *netlist.Net) (x0, y0, x1, y1 int) {
	l := r.pl.Loc(net.Driver)
	x0, x1, y0, y1 = int(l.X), int(l.X), int(l.Y), int(l.Y)
	for _, p := range net.Sinks {
		sl := r.pl.Loc(p.Cell)
		x0 = min(x0, int(sl.X))
		x1 = max(x1, int(sl.X))
		y0 = min(y0, int(sl.Y))
		y1 = max(y1, int(sl.Y))
	}
	m := r.opt.BBoxMargin
	return max(0, x0-m), max(0, y0-m), min(r.w-1, x1+m), min(r.h-1, y1+m)
}

// run routes every net at the given channel width (0 = infinite) from
// fresh congestion state and reports whether the routing is feasible
// and how many rip-up iterations it took. It polls ctx before every
// iteration, so a cancelled job stops within one iteration.
func (r *router) run(ctx context.Context, width int) (feasible bool, iters int, err error) {
	r.opt.ChannelWidth = width
	r.capacity = width
	if r.infinite() {
		// More tracks than an int16 occupancy can reach: never overused.
		r.capacity = 1 << 20
	}
	clear(r.hist)
	r.presFac = r.opt.PresFacInit
	for iter := 0; iter < r.opt.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return false, 0, err
		}
		iters = iter + 1
		// Rip up everything and reroute under current penalties (the
		// original PathFinder formulation).
		clear(r.occ)
		r.wire = 0
		for i := range r.nets {
			if err := r.routeNet(&r.nets[i]); err != nil {
				return false, 0, err
			}
		}
		if r.updateCongestion() == 0 {
			feasible = true
			break
		}
		r.presFac *= r.opt.PresFacMult
	}
	return feasible, iters, nil
}

// result exports the latest iteration's routing.
func (r *router) result(feasible bool, iters int) (*Result, error) {
	res := &Result{
		Feasible:   feasible,
		Iterations: iters,
		WireLength: r.wire,
		ConnLen:    make(map[Conn]int, len(r.connLen)),
		TileUsage:  r.tileUsage(),
	}
	for _, nr := range r.nets {
		off := r.netOff[nr.id]
		for i, p := range r.nl.Net(nr.id).Sinks {
			res.ConnLen[Conn{nr.id, p}] = int(r.connLen[int(off)+i])
		}
	}
	cp, err := r.critPath()
	if err != nil {
		return nil, err
	}
	res.CritPath = cp
	return res, nil
}

// nodeCost is the PathFinder cost of using a tile: (base + history) ×
// present-sharing penalty.
func (r *router) nodeCost(t int32) float64 {
	base := 1.0 + r.hist[t]
	over := int(r.occ[t]) + 1 - r.capacity
	if over <= 0 {
		return base
	}
	return base * (1 + float64(over)*r.presFac)
}

// routeNet grows the net's Steiner tree sink by sink (nearest first).
func (r *router) routeNet(nr *netRoute) error {
	if r.treeStamp == math.MaxInt32 {
		clear(r.inTree)
		r.treeStamp = 0
	}
	r.treeStamp++
	r.inTree[nr.driver] = r.treeStamp
	r.treeDist[nr.driver] = 0
	r.treeTiles = append(r.treeTiles[:0], nr.driver)
	r.occ[nr.driver]++

	off := r.netOff[nr.id]
	for _, c := range r.conns[nr.lo:nr.hi] {
		if r.inTree[c.tile] != r.treeStamp {
			if err := r.connect(nr, c.tile); err != nil {
				net := r.nl.Net(nr.id)
				return fmt.Errorf("route: net %s sink %v: %w", net.Name, net.Sinks[c.sink], err)
			}
		}
		r.connLen[off+c.sink] = r.treeDist[c.tile]
	}
	r.wire += len(r.treeTiles) - 1
	return nil
}

// pqItem is a Dijkstra frontier entry.
type pqItem struct {
	cost float64
	tile int32
}

// push and pop are container/heap's Push and Pop on r.q, specialized
// to pqItem so nothing is boxed through any. They hold the moving item
// aside instead of swapping it level by level, but make exactly
// container/heap's comparisons and leave every item where its swaps
// would. That is a contract, not a detail: node costs are 1 + history,
// so equal keys are everywhere, and any other tie-break would pick
// different equal-cost routes and change Wmin.
func (r *router) push(it pqItem) {
	q := append(r.q, it)
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(it.cost < q[i].cost) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = it
	r.q = q
}

func (r *router) pop() pqItem {
	q := r.q
	n := len(q) - 1
	top, it := q[0], q[n]
	q = q[:n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].cost < q[j].cost {
			j = j2
		}
		if !(q[j].cost < it.cost) {
			break
		}
		q[i] = q[j]
		i = j
	}
	if n > 0 {
		q[i] = it
	}
	r.q = q
	return top
}

// connect runs a multi-source Dijkstra from the current tree to the
// target tile and commits the found path to the tree.
func (r *router) connect(nr *netRoute, target int32) error {
	if r.epoch == math.MaxInt32 {
		clear(r.visited)
		r.epoch = 0
	}
	r.epoch++
	// Seed in ascending tile order, so zero-cost ties break the same
	// way every run. Equal keys never move in a push, so appending the
	// seeds builds the heap that pushing them one by one would.
	slices.Sort(r.treeTiles)
	r.q = r.q[:0]
	for _, t := range r.treeTiles {
		r.dist[t] = 0
		r.prev[t] = -1
		r.visited[t] = r.epoch
		r.q = append(r.q, pqItem{0, t})
	}
	found := false
	for len(r.q) > 0 {
		it := r.pop()
		t := it.tile
		if it.cost > r.dist[t] {
			continue
		}
		if t == target {
			found = true
			break
		}
		x, y := int(t)%r.w, int(t)/r.w
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nx, ny := x+d[0], y+d[1]
			if nx < nr.x0 || nx > nr.x1 || ny < nr.y0 || ny > nr.y1 {
				continue
			}
			nt := int32(ny*r.w + nx)
			c := it.cost + r.nodeCost(nt)
			if r.visited[nt] != r.epoch || c < r.dist[nt] {
				r.visited[nt] = r.epoch
				r.dist[nt] = c
				r.prev[nt] = t
				r.push(pqItem{c, nt})
			}
		}
	}
	if !found {
		return fmt.Errorf("target unreachable in region (%d,%d)-(%d,%d)", nr.x0, nr.y0, nr.x1, nr.y1)
	}
	// Commit the path; distances from the driver accumulate along it.
	// path runs target .. join point, and the join point is on the tree.
	path := r.path[:0]
	for t := target; ; t = r.prev[t] {
		path = append(path, t)
		if r.inTree[t] == r.treeStamp {
			break
		}
	}
	r.path = path
	base := r.treeDist[path[len(path)-1]]
	for i := len(path) - 2; i >= 0; i-- {
		t := path[i]
		base++
		r.inTree[t] = r.treeStamp
		r.treeDist[t] = base
		r.treeTiles = append(r.treeTiles, t)
		r.occ[t]++
	}
	return nil
}

// updateCongestion accumulates history cost and returns the number of
// overused tiles.
func (r *router) updateCongestion() int {
	over := 0
	for t := range r.occ {
		if int(r.occ[t]) > r.capacity {
			over++
			r.hist[t] += r.opt.HistFac * float64(int(r.occ[t])-r.capacity)
		}
	}
	return over
}

// tileUsage exports the per-tile net counts.
func (r *router) tileUsage() map[arch.Loc]int {
	used := 0
	for _, o := range r.occ {
		if o > 0 {
			used++
		}
	}
	use := make(map[arch.Loc]int, used)
	for t := range r.occ {
		if r.occ[t] > 0 {
			use[r.loc(int32(t))] = int(r.occ[t])
		}
	}
	return use
}

// critPath runs STA with routed wire lengths substituted for Manhattan
// distances. In the infinite-resource regime every connection can take
// a dedicated shortest route, so its delay is the Manhattan distance —
// this is exactly why Marquardt et al. call W∞ "a good placement
// evaluation metric" (wirelength still reports the shared Steiner
// trees, which is what unlimited routing would fan out from one pin).
func (r *router) critPath() (float64, error) {
	if r.infinite() {
		a, err := timing.Analyze(r.nl, r.pl, r.dm)
		if err != nil {
			return 0, err
		}
		return a.Period, nil
	}
	wireOf := func(u, v netlist.CellID) float64 {
		// Locate the connection: u drives some net read by v. Routed
		// lengths are recorded per (net, sink pin); take the shortest
		// pin if v reads the net on several pins.
		uc := r.nl.Cell(u)
		best := math.Inf(1)
		if uc.Out != netlist.None {
			if off := r.netOff[uc.Out]; off >= 0 {
				for i, p := range r.nl.Net(uc.Out).Sinks {
					if l := float64(r.connLen[int(off)+i]); p.Cell == v && l < best {
						best = l
					}
				}
			}
		}
		if math.IsInf(best, 1) {
			// Unrouted (shouldn't happen); fall back to Manhattan.
			best = float64(arch.Dist(r.pl.Loc(u), r.pl.Loc(v)))
		}
		return r.dm.WireDelay(int(best))
	}
	a, err := timing.AnalyzeCustom(r.nl, wireOf, r.dm)
	if err != nil {
		return 0, err
	}
	return a.Period, nil
}

// MinChannelWidth binary-searches the smallest channel width that
// routes feasibly.
func MinChannelWidth(nl *netlist.Netlist, pl timing.Locator, f *arch.FPGA, dm arch.DelayModel, opt Options) (int, error) {
	return newRouter(nl, pl, f, dm, opt).minWidth(context.Background())
}

// maxProbeWidth is the widest channel the width search probes.
const maxProbeWidth = 4096

// searchWidth finds the smallest width probe reports feasible: it
// probes 2, 4, 8, … up to maxProbeWidth until one is feasible, then
// bisects between the last infeasible probe and it. Feasibility is not
// guaranteed monotone in width, so the answer depends on this exact
// probe sequence; keep it.
func searchWidth(probe func(width int) (bool, error)) (int, error) {
	lo, hi := 1, 2
	// Exponential probe for an upper bound.
	for {
		feasible, err := probe(hi)
		if err != nil {
			return 0, err
		}
		if feasible {
			break
		}
		if hi >= maxProbeWidth {
			return 0, fmt.Errorf("route: no feasible width up to %d", hi)
		}
		lo = hi + 1
		hi *= 2
	}
	for lo < hi {
		mid := (lo + hi) / 2
		feasible, err := probe(mid)
		if err != nil {
			return 0, err
		}
		if feasible {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// minWidth is MinChannelWidth on r's state; each probe starts from
// fresh congestion, exactly as a separate Route call would.
func (r *router) minWidth(ctx context.Context) (int, error) {
	return searchWidth(func(width int) (bool, error) { return r.probe(ctx, width) })
}

// probe reports whether width routes feasibly. A width below pinBound
// cannot, so it answers false without routing and without touching the
// router's state; run starts every width from fresh congestion, so the
// skip changes no later probe. It still polls ctx once, as run would.
func (r *router) probe(ctx context.Context, width int) (bool, error) {
	if width < r.pinBound {
		return false, ctx.Err()
	}
	feasible, _, err := r.run(ctx, width)
	return feasible, err
}

// LowStress routes with 20% more tracks than the minimum, the paper's
// W_ls regime. It returns the result and the width used.
func LowStress(nl *netlist.Netlist, pl timing.Locator, f *arch.FPGA, dm arch.DelayModel, opt Options) (*Result, int, error) {
	return LowStressContext(context.Background(), nl, pl, f, dm, opt)
}

// LowStressContext is LowStress under cooperative cancellation: the
// width search and the final route poll ctx before every probed width
// and every rip-up iteration and return ctx.Err() with no result. An
// uncancelled run is bit-identical to LowStress.
func LowStressContext(ctx context.Context, nl *netlist.Netlist, pl timing.Locator, f *arch.FPGA, dm arch.DelayModel, opt Options) (*Result, int, error) {
	r := newRouter(nl, pl, f, dm, opt)
	wmin, err := r.minWidth(ctx)
	if err != nil {
		return nil, 0, err
	}
	w := wmin + (wmin+4)/5 // ceil(1.2 × wmin)
	feasible, iters, err := r.run(ctx, w)
	if err != nil {
		return nil, 0, err
	}
	res, err := r.result(feasible, iters)
	if err != nil {
		return nil, 0, err
	}
	return res, w, nil
}

// Infinite routes with unbounded resources, the W∞ regime.
func Infinite(nl *netlist.Netlist, pl timing.Locator, f *arch.FPGA, dm arch.DelayModel, opt Options) (*Result, error) {
	opt.ChannelWidth = 0
	opt.MaxIters = 1
	return Route(nl, pl, f, dm, opt)
}
