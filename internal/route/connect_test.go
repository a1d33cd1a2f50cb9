package route

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/netlist"
)

// fullSearchConnect is connect without the early exit: the search
// pops until the target itself pops. It prices tiles with nodeCost,
// not the cost table, and commits by bumping occ alone.
func fullSearchConnect(r *router, nr *netRoute, target int32) error {
	r.epoch++
	slices.Sort(r.treeTiles)
	r.q = r.q[:0]
	for _, t := range r.treeTiles {
		r.search[t] = searchRec{dist: 0, prev: -1, visited: r.epoch}
		r.q = append(r.q, pqItem{cost: 0, tile: t})
	}
	found := false
	for len(r.q) > 0 {
		it := r.pop()
		t := it.tile
		if it.cost > r.search[t].dist {
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
			if s := &r.search[nt]; s.visited != r.epoch || c < s.dist {
				*s = searchRec{dist: c, prev: t, visited: r.epoch}
				r.push(pqItem{cost: c, tile: nt})
			}
		}
	}
	if !found {
		return errors.New("target unreachable")
	}
	path := r.path[:0]
	for t := target; ; t = r.search[t].prev {
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

// TestConnectMatchesFullSearch grows every net's tree twice in
// lockstep, once with connect and once with a search that runs until
// the target pops, over random placements, history and occupancy. The
// history and occupancy take few values, so equal-cost ties are
// everywhere. After every connect the two must have committed the same
// path: the same tree tiles in the same order, the same distance from
// the driver on each, and the same occupancy on every tile. The cost
// table must still price every tile as nodeCost does.
func TestConnectMatchesFullSearch(t *testing.T) {
	connects := 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nl := randomNetlist(t, rng, 20+rng.Intn(80))
		f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
		loc := mapLoc{}
		nl.Cells(func(c *netlist.Cell) {
			loc[c.ID] = arch.Loc{X: int16(rng.Intn(f.N + 2)), Y: int16(rng.Intn(f.N + 2))}
		})
		fast := newRouter(nl, loc, f, dm(), Defaults())
		ref := newRouter(nl, loc, f, dm(), Defaults())
		capacity := 1 + rng.Intn(3)
		presFac := presFacInit * math.Pow(presFacMult, float64(rng.Intn(4)))
		for _, r := range []*router{fast, ref} {
			r.capacity = capacity
			r.presFac = presFac
		}
		for t := range fast.hist {
			h, o := float64(rng.Intn(3))*0.5, int16(rng.Intn(3))
			fast.hist[t], ref.hist[t] = h, h
			fast.occ[t], ref.occ[t] = o, o
		}
		for t := range fast.cost {
			fast.cost[t] = fast.nodeCost(int32(t))
		}
		if seed%2 == 0 {
			// Cross the epoch wrap-around within the first net.
			fast.epoch = math.MaxInt32 - 1
		}
		for i := range fast.nets {
			nr := &fast.nets[i]
			for _, r := range []*router{fast, ref} {
				r.treeStamp++
				r.inTree[nr.driver] = r.treeStamp
				r.treeDist[nr.driver] = 0
				r.treeTiles = append(r.treeTiles[:0], nr.driver)
			}
			fast.occupy(nr.driver)
			ref.occ[nr.driver]++
			for _, c := range fast.conns[nr.lo:nr.hi] {
				if fast.inTree[c.tile] == fast.treeStamp {
					continue
				}
				if err := fast.connect(nr, c.tile); err != nil {
					t.Fatalf("seed %d net %d: %v", seed, nr.id, err)
				}
				if err := fullSearchConnect(ref, nr, c.tile); err != nil {
					t.Fatalf("seed %d net %d: reference: %v", seed, nr.id, err)
				}
				connects++
				if !slices.Equal(fast.treeTiles, ref.treeTiles) {
					t.Fatalf("seed %d net %d sink tile %d: tree %v, full search %v", seed, nr.id, c.tile, fast.treeTiles, ref.treeTiles)
				}
				for _, tt := range fast.treeTiles {
					if fast.treeDist[tt] != ref.treeDist[tt] {
						t.Fatalf("seed %d net %d: tile %d at distance %d, full search %d", seed, nr.id, tt, fast.treeDist[tt], ref.treeDist[tt])
					}
				}
				if !slices.Equal(fast.occ, ref.occ) {
					t.Fatalf("seed %d net %d sink tile %d: occupancy differs from the full search", seed, nr.id, c.tile)
				}
				for tt := range fast.cost {
					if want := fast.nodeCost(int32(tt)); math.Float64bits(fast.cost[tt]) != math.Float64bits(want) {
						t.Fatalf("seed %d: cost[%d] = %v, nodeCost %v", seed, tt, fast.cost[tt], want)
					}
				}
			}
		}
	}
	if connects < 1000 {
		t.Fatalf("only %d connects compared", connects)
	}
}
