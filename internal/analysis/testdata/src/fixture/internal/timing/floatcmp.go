// Package timing is a replint fixture for the floatcmp rule: exact
// ==/!=/switch on floats fires unless the comparison sits in a
// designated helper, a sort comparator, an Inf-sentinel check, or a
// constant fold.
package timing

import (
	"math"
	"sort"
)

// sameCost compares accumulated costs exactly: the parallel and serial
// schedules sum in different orders, so this is the canonical bug.
func sameCost(a, b float64) bool {
	return a == b // want floatcmp
}

// classify switches on a float tag, which compares cases exactly.
func classify(x float64) int {
	switch x { // want floatcmp
	case 0:
		return 0
	}
	return 1
}

// lexBefore is a designated deterministic tie-break: both sides derive
// from identical operation sequences, so bitwise compare is the
// intended semantics and the rule stays quiet.
//
//replint:floatcmp-helper
func lexBefore(a, b float64) bool {
	if a != b {
		return a < b
	}
	return false
}

// unreached checks against an infinity sentinel, exact by construction.
func unreached(d float64) bool {
	return d == math.Inf(1)
}

// constFold compares two compile-time constants: exempt.
func constFold() bool {
	return 1.0 == 2.0
}

// sortByCost compares exactly inside a comparator handed to sort: a
// strict weak ordering forbids epsilon ties, so exact compare is the
// only correct choice there and the rule stays quiet.
func sortByCost(xs []float64) {
	sort.Slice(xs, func(i, j int) bool {
		if xs[i] != xs[j] {
			return xs[i] < xs[j]
		}
		return i < j
	})
}

// zeroSentinel compares against the documented unset sentinel; the
// suppression records the argument.
func zeroSentinel(cost float64) bool {
	//replint:ignore floatcmp -- fixture: zero is the explicit unset sentinel, never accumulated
	return cost == 0 // wantsuppressed floatcmp
}

// malformedDirective carries an ignore without the mandatory reason;
// replint reports the directive itself and refuses to honor it.
func malformedDirective(a, b float64) bool {
	//replint:ignore floatcmp // want directive
	return a != b // want floatcmp
}

// staleDirective names a rule that does not exist (a typo, or a rule
// renamed after the suppression was written): the directive can never
// match a finding, so it is reported rather than rotting silently.
func staleDirective(a, b float64) bool {
	//replint:ignore floatcompare -- fixture: suppression left behind by a rule rename // want directive
	return a == b // want floatcmp
}

// retired carries the directive kinds of deleted rules: the detflow
// metadata marker and the stalegen generation guard. Neither is a
// directive any more, so both are reported instead of ignored.
type retired struct {
	//replint:metadata -- fixture: wall-clock telemetry // want directive
	started int64
	cache   []int //replint:guarded gen=gen // want directive
	gen     uint64
}
