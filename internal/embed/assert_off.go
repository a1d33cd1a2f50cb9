//go:build !replassert

package embed

// assertEnabled is false in the default build: every assertion call
// below is an empty function guarded by a constant-false branch, so
// the compiler removes the checks and their argument plumbing from the
// hot paths entirely. Build with -tags replassert to turn them on.
const assertEnabled = false

func assertStaircase([]stairStep)                        {}
func assertNonDominatedCombos(Mode, []combo)             {}
func assertWaveOrder(Mode, *Sig, bool, *Sig)             {}
func assertNoReverseDomination(Mode, []solution, *Sig)   {}
func assertFrontier(Mode, []FrontierSol, bool)           {}
func assertWithinBound(*rootBound, NodeID, Vertex, *Sig) {}
func assertKeyable(*Sig)                                 {}
func poisonScratch(*solverScratch)                       {}
func poisonSlab([]solution)                              {}
