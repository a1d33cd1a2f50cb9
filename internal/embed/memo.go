// Deterministic 128-bit fingerprints over an embedding problem's
// canonical encoding. The node memo (NodeMemo, nodememo.go) keys each
// DP node by a fingerprint of its subtree's content, and the root of
// the last solve by the same scheme, so a solve whose tree or ε changed
// still reuses every node whose inputs did not, and a solve that repeats
// the last one reuses its root frontier too.
//
// The hash is an FNV-1a/128 variant evaluated inline (not hash/maphash, whose
// per-process seed would make hit patterns nondeterministic): equal
// inputs always produce equal fingerprints in every run, so a memoized
// node is only ever served for inputs whose canonical encoding matches
// byte for byte, and the solver's determinism guarantees the served
// sets are Float64bits-identical to a fresh solve.
package embed

import (
	"math"
	"math/bits"
)

// FNV-1a 128-bit parameters.
const (
	fnvOffsetHi = 0x6c62272e07bb0142
	fnvOffsetLo = 0x62b821756295c58d
	fnvPrimeHi  = 0x0000000001000000
	fnvPrimeLo  = 0x000000000000013B
)

// Fingerprint is a 128-bit content hash of an embedding problem. Two
// independent 64-bit halves make accidental collisions implausible
// over an engine run's lifetime (< 2^20 problems).
type Fingerprint struct {
	Hi, Lo uint64
}

// Hasher accumulates a Fingerprint over bytes and 64-bit words. The
// zero value is not ready; use NewHasher.
type Hasher struct {
	hi, lo uint64
}

// NewHasher returns a hasher at the FNV-1a offset basis.
func NewHasher() Hasher {
	return Hasher{hi: fnvOffsetHi, lo: fnvOffsetLo}
}

// Byte folds one byte into the hash.
func (h *Hasher) Byte(b byte) {
	h.lo ^= uint64(b)
	carry, lo := bits.Mul64(h.lo, fnvPrimeLo)
	h.hi = h.hi*fnvPrimeLo + h.lo*fnvPrimeHi + carry
	h.lo = lo
}

// U64 folds a uint64 as a single word-wide FNV-1a step (xor, then one
// 128-bit multiply by the prime). Word folding is 8x cheaper than
// byte-at-a-time and fingerprints are hashed from scratch on every
// engine iteration, so this is on the iteration critical path; the
// diffusion loss versus byte folding is irrelevant for content
// addressing of non-adversarial inputs.
func (h *Hasher) U64(v uint64) {
	h.lo ^= v
	carry, lo := bits.Mul64(h.lo, fnvPrimeLo)
	h.hi = h.hi*fnvPrimeLo + h.lo*fnvPrimeHi + carry
	h.lo = lo
}

// Int folds an int.
func (h *Hasher) Int(v int) { h.U64(uint64(int64(v))) }

// F64 folds a float64 by its exact bit pattern.
func (h *Hasher) F64(v float64) { h.U64(math.Float64bits(v)) }

// Bool folds a bool.
func (h *Hasher) Bool(b bool) {
	if b {
		h.Byte(1)
	} else {
		h.Byte(0)
	}
}

// Sum returns the accumulated fingerprint.
func (h *Hasher) Sum() Fingerprint { return Fingerprint{Hi: h.hi, Lo: h.lo} }

// Fingerprint folds the graph's canonical encoding: grid metadata,
// per-vertex blocked flags, and every edge with its exact cost and
// delay bits, in insertion order.
func (g *Graph) Fingerprint(h *Hasher) {
	h.Int(g.w)
	h.Int(g.h)
	h.Int(g.x0)
	h.Int(g.y0)
	h.Int(len(g.adj))
	for v := range g.adj {
		h.Bool(g.blocked[v])
		h.Int(len(g.adj[v]))
		for i := range g.adj[v] {
			e := &g.adj[v][i]
			h.U64(uint64(uint32(e.To)))
			h.F64(e.Cost)
			h.F64(e.Delay)
		}
	}
}

// Fingerprint folds the signature mode.
func (m Mode) Fingerprint(h *Hasher) {
	h.Int(m.LexDepth)
	h.Bool(m.MC)
	h.Byte(byte(m.Delay))
	h.F64(m.GateR)
	h.Bool(m.OverlapControl)
}

// MemoStats counts memo outcomes.
type MemoStats struct {
	Hits, Misses int
}
