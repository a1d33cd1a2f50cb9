package route

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/netlist"
	"repro/internal/timing"
)

// TestSearchWidthProbeSequence pins the exact widths the search probes,
// on fake feasibility patterns. Skipping probes below the pin bound is
// bit-identical only because the sequence never changes, and routing
// feasibility need not be monotone in width, so the non-monotone
// patterns are the ones that matter.
func TestSearchWidthProbeSequence(t *testing.T) {
	upTo := func(hi int) []int {
		var ws []int
		for w := 2; w <= hi; w *= 2 {
			ws = append(ws, w)
		}
		return ws
	}
	for _, tc := range []struct {
		name     string
		feasible func(w int) bool
		probes   []int
		want     int
	}{
		{"all", func(int) bool { return true }, []int{2, 1}, 1},
		{"from 3", func(w int) bool { return w >= 3 }, []int{2, 4, 3}, 3},
		{"from 5", func(w int) bool { return w >= 5 }, []int{2, 4, 8, 6, 5}, 5},
		{"from 13", func(w int) bool { return w >= 13 }, []int{2, 4, 8, 16, 12, 14, 13}, 13},
		// Feasible at 8 and 6, not at 7 or 5.
		{"6 and from 8", func(w int) bool { return w == 6 || w >= 8 }, []int{2, 4, 8, 6, 5}, 6},
		// Feasible at 3, but the search has passed 3 before it bisects.
		{"3 and from 8", func(w int) bool { return w == 3 || w >= 8 }, []int{2, 4, 8, 6, 7}, 8},
		// Infeasible at 7 inside a feasible run: bisection never probes it.
		{"from 5 but 7", func(w int) bool { return w >= 5 && w != 7 }, []int{2, 4, 8, 6, 5}, 5},
		{"only 4096", func(w int) bool { return w == maxProbeWidth }, append(upTo(maxProbeWidth), 3072, 3584, 3840, 3968, 4032, 4064, 4080, 4088, 4092, 4094, 4095), 4096},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var probes []int
			got, err := searchWidth(func(w int) (bool, error) {
				probes = append(probes, w)
				return tc.feasible(w), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want || !slices.Equal(probes, tc.probes) {
				t.Errorf("searchWidth = %d after probes %v, want %d after %v", got, probes, tc.want, tc.probes)
			}
		})
	}

	t.Run("never", func(t *testing.T) {
		var probes []int
		_, err := searchWidth(func(w int) (bool, error) {
			probes = append(probes, w)
			return false, nil
		})
		if want := upTo(maxProbeWidth); !slices.Equal(probes, want) {
			t.Errorf("probes %v, want %v", probes, want)
		}
		// The error names the widest width actually probed.
		if err == nil || !strings.HasSuffix(err.Error(), fmt.Sprintf("up to %d", maxProbeWidth)) {
			t.Errorf("err = %v, want one naming width %d", err, maxProbeWidth)
		}
	})

	t.Run("error", func(t *testing.T) {
		boom := errors.New("boom")
		var probes []int
		_, err := searchWidth(func(w int) (bool, error) {
			probes = append(probes, w)
			if w == 4 {
				return false, boom
			}
			return false, nil
		})
		if !errors.Is(err, boom) || !slices.Equal(probes, []int{2, 4}) {
			t.Errorf("err = %v after probes %v, want boom after [2 4]", err, probes)
		}
	})
}

// widthProbe is one probed width and the feasibility answer for it.
type widthProbe struct {
	width    int
	feasible bool
}

// refMinWidth is the width search without the pin bound: every probe
// routes. It records each probe.
func refMinWidth(r *router) (int, []widthProbe, error) {
	var probes []widthProbe
	lo, hi := 1, 2
	for {
		feasible, _, err := r.run(context.Background(), hi)
		if err != nil {
			return 0, nil, err
		}
		probes = append(probes, widthProbe{hi, feasible})
		if feasible {
			break
		}
		lo = hi + 1
		hi *= 2
		if hi > maxProbeWidth {
			return 0, nil, errors.New("no feasible width")
		}
	}
	for lo < hi {
		mid := (lo + hi) / 2
		feasible, _, err := r.run(context.Background(), mid)
		if err != nil {
			return 0, nil, err
		}
		probes = append(probes, widthProbe{mid, feasible})
		if feasible {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, probes, nil
}

type widthFixture struct {
	name string
	nl   *netlist.Netlist
	pl   timing.Locator
	f    *arch.FPGA
}

// widthFixtures are random placed circuits over several seeds and sizes
// plus the routing-golden designs.
func widthFixtures(t *testing.T) []widthFixture {
	var fx []widthFixture
	for _, seed := range []int64{1, 2, 21, 33} {
		for _, luts := range []int{30, 60, 120} {
			nl, pl, f := placedRandom(t, seed, luts)
			fx = append(fx, widthFixture{fmt.Sprintf("random-%d-%d", seed, luts), nl, pl, f})
		}
	}
	for _, d := range goldenDesigns() {
		nl, pl, f := placeGolden(t, d)
		fx = append(fx, widthFixture{d.spec.Name, nl, pl, f})
	}
	return fx
}

// TestPinBoundSound checks the pin bound against routing itself: no
// routing below it is feasible, and skipping the widths below it
// leaves the search's answer, and its answer at every probed width,
// unchanged.
func TestPinBoundSound(t *testing.T) {
	for _, fx := range widthFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			r := newRouter(fx.nl, fx.pl, fx.f, dm(), Defaults())
			b := r.pinBound
			if b < 1 {
				t.Fatalf("pin bound %d on a design with routed nets", b)
			}
			var probes []widthProbe
			wmin, err := searchWidth(func(w int) (bool, error) {
				feasible, err := r.probe(context.Background(), w)
				probes = append(probes, widthProbe{w, feasible})
				return feasible, err
			})
			if err != nil {
				t.Fatal(err)
			}
			refW, refProbes, err := refMinWidth(newRouter(fx.nl, fx.pl, fx.f, dm(), Defaults()))
			if err != nil {
				t.Fatal(err)
			}
			if wmin != refW || !slices.Equal(probes, refProbes) {
				t.Errorf("bounded search: wmin %d after %v; bound-free: wmin %d after %v", wmin, probes, refW, refProbes)
			}
			if got, err := MinChannelWidth(fx.nl, fx.pl, fx.f, dm(), Defaults()); err != nil || got != refW {
				t.Errorf("MinChannelWidth = %d, %v; bound-free search gives %d", got, err, refW)
			}
			if b > refW {
				t.Errorf("pin bound %d above Wmin %d", b, refW)
			}
			if b > 1 {
				opt := Defaults()
				opt.ChannelWidth = b - 1
				res, err := Route(fx.nl, fx.pl, fx.f, dm(), opt)
				if err != nil {
					t.Fatal(err)
				}
				if res.Feasible {
					t.Errorf("routing at width %d, below the pin bound %d, is feasible", b-1, b)
				}
			}
		})
	}
}

// TestPinBoundCountsDistinctNets pins the bound on a design where one
// net has several pins on a tile: a LUT reads the same net on both
// inputs, and two output pads on one I/O tile read the same net. Each
// tile counts a net once, however many of its pins sit there.
func TestPinBoundCountsDistinctNets(t *testing.T) {
	n := netlist.New("pins")
	i := n.AddCell("i", netlist.IPad, 0)
	a := n.AddCell("a", netlist.LUT, 2)
	n.ConnectByName(a.ID, 0, "i")
	n.ConnectByName(a.ID, 1, "i")
	o1 := n.AddCell("o1", netlist.OPad, 1)
	n.ConnectByName(o1.ID, 0, "a")
	o2 := n.AddCell("o2", netlist.OPad, 1)
	n.ConnectByName(o2.ID, 0, "a")
	f := arch.New(6)
	loc := mapLoc{i.ID: {X: 0, Y: 3}, a.ID: {X: 3, Y: 3}, o1.ID: {X: 7, Y: 3}, o2.ID: {X: 7, Y: 3}}
	// Tile (3,3) holds a sink of net i and the driver of net a.
	if got := newRouter(n, loc, f, dm(), Defaults()).pinBound; got != 2 {
		t.Errorf("pin bound = %d, want 2", got)
	}
}
