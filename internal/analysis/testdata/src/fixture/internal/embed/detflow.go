// Fixture for the detflow rule, embed side: the result frontier and
// the canonical order helper (totalCmp) are determinism sinks, and
// taint crosses call boundaries — nowStamp below is the source, its
// callers carry the finding. Each tainted path uses its own point
// type: field facts are module-global, so sharing one type would
// conflate the clean and tainted cases.
package embed

import (
	"math/rand"
	"time"
)

// StampedPoint rides the tainted path.
type StampedPoint struct {
	Cost  int
	Stamp int
}

// StampedCurve collects StampedPoints; its Frontier is a sink.
type StampedCurve struct {
	Frontier []StampedPoint
}

// totalCmp is the canonical order helper: its arguments are sinks.
func totalCmp(a, b StampedPoint) int {
	if a.Cost != b.Cost {
		return a.Cost - b.Cost
	}
	return a.Stamp - b.Stamp
}

// nowStamp derives a key from the wall clock: the taint source sits
// one call below the sinks.
func nowStamp() int {
	return int(time.Now().UnixNano())
}

// buildStamped lets the clock-derived key reach both sink kinds: the
// order helper and the frontier store. The source is inside nowStamp;
// only the return-edge propagation connects it to these lines.
func buildStamped(c *StampedCurve, p StampedPoint) {
	q := StampedPoint{Cost: 1, Stamp: nowStamp()}
	if totalCmp(p, q) < 0 { // want detflow
		c.Frontier = append(c.Frontier, q) // want detflow
	}
}

// Point rides the clean path.
type Point struct {
	Cost int
}

// Curve is the clean result surface. BuiltAt deliberately records
// wall-clock metadata; the directive absorbs stores into it.
type Curve struct {
	Frontier []Point
	//replint:metadata -- fixture: assembly timestamp is diagnostics, not solver output
	BuiltAt time.Time
}

// buildClean stores the clock only into the annotated metadata field:
// absorbed, no finding on either store.
func buildClean(c *Curve, p Point) {
	c.BuiltAt = time.Now()
	c.Frontier = append(c.Frontier, p)
}

// SeededPoint rides the suppressed path.
type SeededPoint struct {
	Score int
}

// SeededCurve collects SeededPoints.
type SeededCurve struct {
	Frontier []SeededPoint
}

// buildSeeded feeds a global-rand score to the frontier under an
// ignore that records why the nondeterminism is accepted.
func buildSeeded(c *SeededCurve) {
	p := SeededPoint{Score: rand.Int()}
	//replint:ignore detflow -- fixture: exploratory mode is documented as non-reproducible
	c.Frontier = append(c.Frontier, p) // wantsuppressed detflow
}
