//go:build !race

// The race detector instruments allocations and changes their counts;
// this file builds without it.

package place

import (
	"testing"

	"repro/internal/arch"
)

// TestPlaceAllocs bounds one anneal's allocations. The move loop
// prices and commits with per-run scratch and the placement keeps an
// emptied tile's slice for the next cell, so what an anneal allocates
// is its set-up and one STA per temperature, not a slice per move.
func TestPlaceAllocs(t *testing.T) {
	nl := anneal400(t)
	f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
	const bound = 5000
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Place(nl, f, fastOpts(1)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= bound {
		t.Fatalf("one anneal of %d LUTs: %.0f allocs, want < %d", nl.NumLUTs(), allocs, bound)
	}
	t.Logf("%.0f allocs per anneal of %d LUTs", allocs, nl.NumLUTs())
}
