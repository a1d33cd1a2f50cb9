// Embedding-frontier memoization: deterministic 128-bit fingerprints
// over an embedding problem's canonical encoding, and a bounded FIFO
// cache of solved Results keyed by them. The engine uses these to
// reuse whole solution frontiers across iterations whose extraction
// produced a bitwise-identical problem (same subtree structure, window
// geometry, and cost inputs) — the dominant regime in a converged
// run's patience tail, where the dynamic program is pure recomputation.
// Behind it, the per-node memo (NodeMemo, nodememo.go) keys single DP
// nodes by their subtree's content with the same Hasher, so a solve
// whose tree or ε changed still reuses every node whose inputs did not.
//
// The hash is an FNV-1a/128 variant evaluated inline (not hash/maphash, whose
// per-process seed would make hit patterns nondeterministic): equal
// inputs always produce equal fingerprints in every run, so a cached
// Result is only ever returned for a problem whose canonical encoding
// matches byte for byte, and the solver's determinism guarantees the
// cached frontier is Float64bits-identical to a fresh solve.
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

// Fingerprint folds the tree's canonical encoding: every node's
// children, pinned vertex, arrival and intrinsic bits, and critical
// flag.
func (t *Tree) Fingerprint(h *Hasher) {
	h.Int(len(t.Nodes))
	h.U64(uint64(uint32(t.Root)))
	for i := range t.Nodes {
		n := &t.Nodes[i]
		h.Int(len(n.Children))
		for _, c := range n.Children {
			h.U64(uint64(uint32(c)))
		}
		h.U64(uint64(uint32(n.Vertex)))
		h.F64(n.Arr)
		h.F64(n.Intrinsic)
		h.Bool(n.Critical)
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

// CacheStats counts cache outcomes.
type CacheStats struct {
	Hits, Misses int
}

// Cache is a bounded map from problem fingerprints to solved Results.
// Eviction is FIFO over insertion order — deterministic, never driven
// by map iteration — so identical runs hit and miss identically.
// Entries are frozen (Result.freeze): each keeps the frontier and the
// embedding of every frontier point, extracted on admission, but no
// node sets and no Problem. A hit therefore costs two map operations
// and one embedding copy per Extract, an entry costs a few small slices
// per frontier point instead of the DP's solution slabs, and an entry
// stays valid after the node memo recycles the slabs of the solve it
// came from.
//
// Admission is two-touch: a Result is only retained once its
// fingerprint has been offered before (the first offer records the
// fingerprint in a bounded doorkeeper set and retains nothing). During
// active optimization every productive iteration mutates the netlist,
// so fingerprints never repeat and the cache stays empty — freezing
// frontiers there would buy no hits and only cost their extraction. In
// the converged patience tail the same (ε, sink) extraction states
// recur, the second sighting admits, and every sighting after that is
// a hit. Not safe for concurrent use; each engine owns one.
type Cache struct {
	cap int
	// The retained-Result map and its FIFO order are generation-guarded:
	// external snapshots (diagnostics, tests asserting deterministic hit
	// sequences) are only comparable while gen is unchanged, so every
	// mutation of either must advance gen before returning (replint's
	// stalegen rule enforces this). The doorkeeper (seen/seenQ) is not
	// guarded: it never affects what a Get returns, only future
	// admission, so its churn is invisible to readers.
	m     map[Fingerprint]*Result //replint:guarded gen=gen
	fifo  []Fingerprint           //replint:guarded gen=gen
	seen  map[Fingerprint]struct{}
	seenQ []Fingerprint
	gen   uint64
	Stats CacheStats
}

// defaultCacheCap bounds retained frontiers. A converged engine cycles
// through a handful of distinct (ε, sink) extraction states; 16 covers
// the cycle while bounding retained frontier memory.
const defaultCacheCap = 16

// seenFactor sizes the doorkeeper relative to the Result capacity: it
// only stores 16-byte fingerprints, so remembering a longer history
// than we can retain Results for is nearly free and lets recurrence be
// detected across a cycle longer than the cache itself.
const seenFactor = 8

// NewCache returns a cache holding up to capacity Results; 0 selects
// the default.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = defaultCacheCap
	}
	return &Cache{
		cap:  capacity,
		m:    make(map[Fingerprint]*Result, capacity),
		seen: make(map[Fingerprint]struct{}, capacity*seenFactor),
	}
}

// Get returns the cached Result for k, counting the outcome.
func (c *Cache) Get(k Fingerprint) (*Result, bool) {
	r, ok := c.m[k]
	if ok {
		c.Stats.Hits++
	} else {
		c.Stats.Misses++
	}
	return r, ok
}

// Put offers r under k. A first-time fingerprint is only recorded in
// the doorkeeper; a repeat admits a frozen copy of the Result, evicting
// the oldest retained entry at capacity. r itself is not retained.
func (c *Cache) Put(k Fingerprint, r *Result) {
	if _, ok := c.m[k]; ok {
		return // first insertion wins; the Result is identical anyway
	}
	if _, ok := c.seen[k]; !ok {
		if len(c.seenQ) >= c.cap*seenFactor {
			delete(c.seen, c.seenQ[0])
			c.seenQ = c.seenQ[1:]
		}
		c.seen[k] = struct{}{}
		c.seenQ = append(c.seenQ, k)
		return
	}
	if len(c.m) >= c.cap {
		victim := c.fifo[0]
		c.fifo = c.fifo[1:]
		delete(c.m, victim)
	}
	c.m[k] = r.freeze()
	c.fifo = append(c.fifo, k)
	c.gen++
}

// Gen returns the cache's content generation: it advances on every
// admission or reset, so two observations with equal Gen saw an
// identical retained set.
func (c *Cache) Gen() uint64 { return c.gen }

// Reset drops every entry and the doorkeeper history (used when the
// engine invalidates all incremental state).
func (c *Cache) Reset() {
	clear(c.m)
	c.fifo = c.fifo[:0]
	clear(c.seen)
	c.seenQ = c.seenQ[:0]
	c.gen++
}
