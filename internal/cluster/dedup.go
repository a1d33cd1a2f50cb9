package cluster

import (
	"sync"
	"sync/atomic"
)

// Dedup is the read-through idempotency layer in front of the job
// manager: at most one local execution per spec hash is in flight at a
// time. A duplicate submission while the first runs coalesces onto the
// same job; a duplicate after completion is served from the replicated
// result cache (the caller checks that first and records it with
// Hit). Soundness rests on bit-determinism: the coalesced caller gets
// byte-for-byte the result its own execution would have produced.
type Dedup struct {
	mu       sync.Mutex
	inflight map[Hash]string
	// gen advances on every inflight-set mutation, so snapshots can
	// key their validity on it.
	gen uint64

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
}

// NewDedup returns an empty dedup layer.
func NewDedup() *Dedup {
	return &Dedup{inflight: make(map[Hash]string)}
}

// Claim resolves h to a local job: if an execution is already in
// flight, its job ID is returned with coalesced=true; otherwise submit
// is invoked under the lock (so two racing duplicates cannot both
// execute) and its job ID registered. The caller must pair every
// non-coalesced successful Claim with Done(h) when the job reaches a
// terminal state.
func (d *Dedup) Claim(h Hash, submit func() (string, error)) (id string, coalesced bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.inflight[h]; ok {
		d.coalesced.Add(1)
		return id, true, nil
	}
	id, err = submit()
	if err != nil {
		return "", false, err
	}
	d.inflight[h] = id
	d.gen++
	d.misses.Add(1)
	return id, false, nil
}

// Done retires an in-flight hash once its job is terminal.
func (d *Dedup) Done(h Hash) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.inflight, h)
	d.gen++
}

// Lookup returns the in-flight job ID for h, if any.
func (d *Dedup) Lookup(h Hash) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id, ok := d.inflight[h]
	return id, ok
}

// Hit records a result served from the replicated cache.
func (d *Dedup) Hit() { d.hits.Add(1) }

// DedupSnapshot is the layer's counter view for /debug/vars and the
// load generator's hit-rate report.
type DedupSnapshot struct {
	// CacheHits counts submissions answered from the replicated
	// result store without touching the job queue.
	CacheHits int64 `json:"cache_hits"`
	// Executed counts submissions that started a fresh execution.
	Executed int64 `json:"executed"`
	// Coalesced counts submissions attached to an in-flight duplicate.
	Coalesced int64 `json:"coalesced"`
	// Inflight is the current singleflight set size.
	Inflight int `json:"inflight"`
}

// Snapshot returns the current counters.
func (d *Dedup) Snapshot() DedupSnapshot {
	d.mu.Lock()
	n := len(d.inflight)
	d.mu.Unlock()
	return DedupSnapshot{
		CacheHits: d.hits.Load(),
		Executed:  d.misses.Load(),
		Coalesced: d.coalesced.Load(),
		Inflight:  n,
	}
}
