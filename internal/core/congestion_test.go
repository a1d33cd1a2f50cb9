package core

import (
	"testing"

	"repro/internal/arch"
)

// TestCongestionFeedback exercises the Section VIII extension: with
// heavy reported channel occupancy across the straight corridor, the
// embedder pays extra wire cost there; the run must still succeed, stay
// legal, and never worsen timing.
func TestCongestionFeedback(t *testing.T) {
	d := detouredChain(t)
	before := d.period(t)

	cfg := Default()
	cfg.WireCongestion = map[arch.Loc]int{}
	// Saturate the direct corridor rows between the pads.
	for x := int16(0); x <= 9; x++ {
		for y := int16(3); y <= 5; y++ {
			cfg.WireCongestion[arch.Loc{X: x, Y: y}] = 100
		}
	}
	e := New(d.nl, d.pl, dm(), cfg)
	st, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	d.nl, d.pl = e.Netlist, e.Placement
	d.check(t)
	after := d.period(t)
	if after > before {
		t.Errorf("congestion-aware run worsened period %v -> %v", before, after)
	}
	if st.FinalPeriod != after {
		t.Errorf("stats/measured mismatch: %v vs %v", st.FinalPeriod, after)
	}
}

// TestCongestionFeedbackUnbiased: with zero occupancy everywhere the
// congested grid must behave exactly like the uniform one.
func TestCongestionFeedbackUnbiased(t *testing.T) {
	run := func(withMap bool) float64 {
		d := detouredChain(t)
		cfg := Default()
		if withMap {
			cfg.WireCongestion = map[arch.Loc]int{}
		}
		e := New(d.nl, d.pl, dm(), cfg)
		st, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.FinalPeriod
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("empty congestion map changed the result: %v vs %v", a, b)
	}
}
