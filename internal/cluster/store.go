package cluster

import (
	"encoding/json"
	"sort"
	"sync"

	"repro/internal/serve"
)

// Record is one entry in the replicated job/result store, keyed by the
// spec's content hash. Versions are per-record and monotonic: the
// executing node writes version 1 when it accepts a job ("running")
// and version 2 with the result attached when it completes ("done").
// Because the engine is bit-deterministic, two nodes that race to
// execute the same hash write byte-identical results — version
// conflicts between equal versions are benign and resolved
// keep-existing.
type Record struct {
	Hash    Hash        `json:"hash"`
	Version uint64      `json:"version"`
	State   serve.State `json:"state"`
	// Node is the member that executed (or is executing) the job.
	Node string `json:"node,omitempty"`
	// Result is the serve.Result JSON; nil until the job completes.
	Result json.RawMessage `json:"result,omitempty"`
}

// Store is one node's local slice of the replicated store. Put applies
// last-writer-wins on Version (ties keep the existing record) and
// reports whether the record was applied; implementations must be safe
// for concurrent use.
type Store interface {
	Put(rec Record) (applied bool, err error)
	Get(h Hash) (Record, bool, error)
	// Len reports the resident record count; Hashes returns them
	// sorted, for introspection and the smoke tests.
	Len() int
	Hashes() []Hash
	Close() error
}

// MemStore is the in-memory Store.
type MemStore struct {
	mu   sync.RWMutex
	recs map[Hash]Record
	// epoch advances on every applied mutation; readers that cache
	// derived views key their validity on it.
	epoch uint64
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{recs: make(map[Hash]Record)}
}

// Put applies rec if it is newer than the resident version.
func (s *MemStore) Put(rec Record) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked(rec), nil
}

// applyLocked is the version-gated write shared with the disk store's
// recovery replay. Caller holds mu.
func (s *MemStore) applyLocked(rec Record) bool {
	if old, ok := s.recs[rec.Hash]; ok && old.Version >= rec.Version {
		return false
	}
	s.recs[rec.Hash] = rec
	s.epoch++
	return true
}

// Get returns the resident record for h.
func (s *MemStore) Get(h Hash) (Record, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.recs[h]
	return rec, ok, nil
}

// Len reports the resident record count.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// Hashes returns the resident hashes in sorted order.
func (s *MemStore) Hashes() []Hash {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Hash, 0, len(s.recs))
	for h := range s.recs {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// Close is a no-op for the in-memory store.
func (s *MemStore) Close() error { return nil }
