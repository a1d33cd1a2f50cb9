//go:build replassert

package timing

import "testing"

// These tests run only under -tags replassert: they prove the STA
// invariant layer panics on corrupted analyses and stays silent on
// clean ones (the regular suite, run under the tag, covers the latter
// on every Analyze call).

func TestAssertEnabledUnderTag(t *testing.T) {
	if !assertEnabled {
		t.Fatal("assertEnabled must be true under -tags replassert")
	}
}

func TestAssertArrivalMonotoneFires(t *testing.T) {
	nl, loc := chain(t)
	a, err := Analyze(nl, loc, dm())
	if err != nil {
		t.Fatal(err)
	}
	// A clean analysis passes (Analyze already asserted internally,
	// but the direct call documents the contract).
	assertArrivalMonotone(nl, ManhattanWire(loc, dm()), dm(), a)

	// Corrupt one interior arrival: the recurrence no longer holds.
	l1, _ := nl.CellByName("l1")
	a.Arr[l1] += 1
	defer func() {
		if recover() == nil {
			t.Fatal("assertArrivalMonotone did not panic on a corrupted arrival")
		}
	}()
	assertArrivalMonotone(nl, ManhattanWire(loc, dm()), dm(), a)
}
