package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// fakeReplica is an in-process Replica with fault injection.
type fakeReplica struct {
	id    string
	store *MemStore
	// dead simulates an unreachable member.
	dead atomic.Bool
	// slow delays every op (to exercise the W-of-N early return).
	slow time.Duration

	puts atomic.Int64
}

func newFakeReplica(id string) *fakeReplica {
	return &fakeReplica{id: id, store: NewMemStore()}
}

func (f *fakeReplica) ID() string { return f.id }

func (f *fakeReplica) Store(ctx context.Context, rec Record) error {
	if f.dead.Load() {
		return errors.New("connection refused")
	}
	if f.slow > 0 {
		select {
		case <-time.After(f.slow):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	f.puts.Add(1)
	_, err := f.store.Put(rec)
	return err
}

func (f *fakeReplica) Fetch(ctx context.Context, h Hash) (Record, bool, error) {
	if f.dead.Load() {
		return Record{}, false, errors.New("connection refused")
	}
	if f.slow > 0 {
		select {
		case <-time.After(f.slow):
		case <-ctx.Done():
			return Record{}, false, ctx.Err()
		}
	}
	return f.store.Get(h)
}

// newTestQuorum builds a quorum over m fake replicas named n1..nm.
func newTestQuorum(t *testing.T, m int, cfg QuorumConfig) (*Quorum, map[string]*fakeReplica) {
	t.Helper()
	var (
		ids      []string
		replicas []Replica
	)
	fakes := make(map[string]*fakeReplica, m)
	for i := 1; i <= m; i++ {
		id := fmt.Sprintf("n%d", i)
		f := newFakeReplica(id)
		ids = append(ids, id)
		replicas = append(replicas, f)
		fakes[id] = f
	}
	ring, err := NewRing(ids, 16)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuorum(ring, replicas, cfg, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return q, fakes
}

func TestQuorumConfigValidate(t *testing.T) {
	bad := []QuorumConfig{
		{N: 0, R: 1, W: 1},
		{N: 4, R: 1, W: 1}, // N > members (3 below)
		{N: 3, R: 0, W: 2},
		{N: 3, R: 1, W: 4},
		{N: 3, R: 1, W: 2}, // R+W == N: split-brain reads allowed
	}
	for _, cfg := range bad {
		if err := cfg.Validate(3); err == nil {
			t.Errorf("Validate(%+v): expected error", cfg)
		}
	}
	if err := (QuorumConfig{N: 3, R: 2, W: 2}).Validate(3); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for members, want := range map[int]QuorumConfig{
		1: {N: 1, R: 1, W: 1},
		2: {N: 2, R: 1, W: 2},
		3: {N: 3, R: 2, W: 2},
		5: {N: 3, R: 2, W: 2},
	} {
		got := DefaultQuorum(members)
		if got.N != want.N || got.R != want.R || got.W != want.W {
			t.Errorf("DefaultQuorum(%d) = %+v, want %+v", members, got, want)
		}
		if err := got.Validate(members); err != nil {
			t.Errorf("DefaultQuorum(%d) invalid: %v", members, err)
		}
	}
}

// TestQuorumWriteRead: a write followed by a read through different
// quorum slices must return the written record.
func TestQuorumWriteRead(t *testing.T) {
	q, _ := newTestQuorum(t, 3, QuorumConfig{N: 3, R: 2, W: 2})
	ctx := context.Background()
	h := testHash(1)
	if err := q.Write(ctx, doneRec(h, 2, "n1")); err != nil {
		t.Fatal(err)
	}
	rec, found, err := q.Read(ctx, h)
	if err != nil || !found {
		t.Fatalf("Read: found=%v err=%v", found, err)
	}
	if rec.Version != 2 || rec.State != serve.StateDone {
		t.Fatalf("Read returned %+v", rec)
	}
	// A missing key is an agreed miss, not an error.
	if _, found, err := q.Read(ctx, testHash(99)); err != nil || found {
		t.Fatalf("missing key: found=%v err=%v", found, err)
	}
}

// TestQuorumOneDead: with N=3, W=2, R=2, one dead member must not
// block writes or reads — the availability the layer exists for.
func TestQuorumOneDead(t *testing.T) {
	q, fakes := newTestQuorum(t, 3, QuorumConfig{N: 3, R: 2, W: 2, OpTimeout: time.Second})
	ctx := context.Background()
	h := testHash(7)
	fakes["n2"].dead.Store(true)
	if err := q.Write(ctx, doneRec(h, 2, "n1")); err != nil {
		t.Fatalf("write with one dead member: %v", err)
	}
	rec, found, err := q.Read(ctx, h)
	if err != nil || !found || rec.Version != 2 {
		t.Fatalf("read with one dead member: rec=%+v found=%v err=%v", rec, found, err)
	}
}

// TestQuorumTwoDead: losing a write set's worth of members takes the
// quorum down — it must fail loudly, not fabricate agreement.
func TestQuorumTwoDead(t *testing.T) {
	q, fakes := newTestQuorum(t, 3, QuorumConfig{N: 3, R: 2, W: 2, OpTimeout: time.Second})
	ctx := context.Background()
	fakes["n1"].dead.Store(true)
	fakes["n2"].dead.Store(true)
	if err := q.Write(ctx, doneRec(testHash(1), 1, "n3")); err == nil {
		t.Fatal("write with two dead members succeeded")
	}
	if _, _, err := q.Read(ctx, testHash(1)); err == nil {
		t.Fatal("read with two dead members succeeded")
	}
	snap := q.Snapshot()
	if snap.WriteFails == 0 || snap.ReadMisses == 0 {
		t.Errorf("failure counters not advanced: %+v", snap)
	}
}

// TestQuorumMaxVersionWins: when replicas disagree, the read returns
// the newest version regardless of which R answered.
func TestQuorumMaxVersionWins(t *testing.T) {
	q, fakes := newTestQuorum(t, 3, QuorumConfig{N: 3, R: 3, W: 2})
	h := testHash(3)
	owners := q.ring.Owners(h, 3)
	// Hand-plant divergent replicas: the first owner is stale, the
	// second has the newest record, the third is empty.
	if _, err := fakes[owners[0]].store.Put(Record{Hash: h, Version: 1, State: serve.StateRunning, Node: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := fakes[owners[1]].store.Put(doneRec(h, 2, "y")); err != nil {
		t.Fatal(err)
	}
	rec, found, err := q.Read(context.Background(), h)
	if err != nil || !found {
		t.Fatalf("Read: found=%v err=%v", found, err)
	}
	if rec.Version != 2 || rec.Node != "y" {
		t.Fatalf("Read returned %+v, want the v2 record", rec)
	}
}

// TestQuorumReadRepair: a read that observes stale or missing replicas
// pushes the winning record to them in the background.
func TestQuorumReadRepair(t *testing.T) {
	q, fakes := newTestQuorum(t, 3, QuorumConfig{N: 3, R: 3, W: 2})
	h := testHash(4)
	owners := q.ring.Owners(h, 3)
	if _, err := fakes[owners[0]].store.Put(doneRec(h, 2, "y")); err != nil {
		t.Fatal(err)
	}
	if _, found, err := q.Read(context.Background(), h); err != nil || !found {
		t.Fatalf("Read: found=%v err=%v", found, err)
	}
	// Repair runs in background goroutines; poll for convergence.
	deadline := time.Now().Add(2 * time.Second)
	for {
		converged := true
		for _, id := range owners {
			rec, found, _ := fakes[id].store.Get(h)
			if !found || rec.Version != 2 {
				converged = false
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("read-repair did not converge the replicas")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if q.Snapshot().ReadRepairs == 0 {
		t.Error("read-repair counter not advanced")
	}
}

// TestQuorumWriteReturnsAtW: the write must return once W fast
// replicas acked, not wait for the slowest.
func TestQuorumWriteReturnsAtW(t *testing.T) {
	q, fakes := newTestQuorum(t, 3, QuorumConfig{N: 3, R: 2, W: 2, OpTimeout: 5 * time.Second})
	h := testHash(5)
	owners := q.ring.Owners(h, 3)
	fakes[owners[2]].slow = 2 * time.Second
	start := time.Now()
	if err := q.Write(context.Background(), doneRec(h, 1, "n1")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("write took %v; should return at W=2 acks without the slow third", elapsed)
	}
}

// TestQuorumStragglerOutlivesCaller: a caller that cancels its context
// as soon as Write returns (as Node.watch does) must not cut off the
// slow replica's write; the record still lands on all N owners.
func TestQuorumStragglerOutlivesCaller(t *testing.T) {
	q, fakes := newTestQuorum(t, 3, QuorumConfig{N: 3, R: 2, W: 2, OpTimeout: 5 * time.Second})
	h := testHash(7)
	owners := q.ring.Owners(h, 3)
	slow := fakes[owners[2]]
	slow.slow = 200 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	err := q.Write(ctx, doneRec(h, 1, "n1"))
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, found, _ := slow.store.Get(h); found {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("slow replica never stored the record after the caller cancelled")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQuorumConcurrentWrites races many versions of one key from many
// goroutines: the store must end at the maximum version everywhere the
// writes landed, and the race detector must stay quiet.
func TestQuorumConcurrentWrites(t *testing.T) {
	q, _ := newTestQuorum(t, 3, QuorumConfig{N: 3, R: 2, W: 2})
	h := testHash(6)
	var wg sync.WaitGroup
	for v := 1; v <= 20; v++ {
		wg.Add(1)
		go func(v uint64) {
			defer wg.Done()
			_ = q.Write(context.Background(), doneRec(h, v, "n1"))
		}(uint64(v))
	}
	wg.Wait()
	rec, found, err := q.Read(context.Background(), h)
	if err != nil || !found {
		t.Fatalf("Read: found=%v err=%v", found, err)
	}
	if rec.Version != 20 {
		t.Errorf("final version %d, want 20", rec.Version)
	}
}
