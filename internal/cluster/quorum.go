package cluster

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// Replica is one member's store as seen from a given node: the local
// Store for the node itself, a PeerClient for everyone else.
type Replica interface {
	ID() string
	Store(ctx context.Context, rec Record) error
	Fetch(ctx context.Context, h Hash) (Record, bool, error)
}

// LocalReplica adapts the node's own Store to the Replica interface.
type LocalReplica struct {
	NodeID string
	S      Store
}

// ID returns the owning node's ID.
func (l *LocalReplica) ID() string { return l.NodeID }

// Store applies rec to the local store.
func (l *LocalReplica) Store(_ context.Context, rec Record) error {
	_, err := l.S.Put(rec)
	return err
}

// Fetch reads h from the local store.
func (l *LocalReplica) Fetch(_ context.Context, h Hash) (Record, bool, error) {
	return l.S.Get(h)
}

// QuorumConfig sets the replication factor and quorum sizes. The
// linearizability condition is R+W > N: every read set intersects
// every write set, so a read that reaches R replicas always sees the
// newest acknowledged version.
type QuorumConfig struct {
	N, R, W int
	// OpTimeout bounds each per-replica store/fetch (default 5s).
	OpTimeout time.Duration
}

// Validate checks the quorum arithmetic against the membership size.
func (c QuorumConfig) Validate(members int) error {
	if c.N < 1 || c.N > members {
		return fmt.Errorf("cluster: replication factor %d outside [1, %d]", c.N, members)
	}
	if c.R < 1 || c.R > c.N || c.W < 1 || c.W > c.N {
		return fmt.Errorf("cluster: quorums R=%d W=%d outside [1, N=%d]", c.R, c.W, c.N)
	}
	if c.R+c.W <= c.N {
		return fmt.Errorf("cluster: R=%d + W=%d must exceed N=%d for linearizable reads", c.R, c.W, c.N)
	}
	return nil
}

// DefaultQuorum picks N = min(3, members) with majority write and
// matching read quorum (R+W = N+1).
func DefaultQuorum(members int) QuorumConfig {
	n := 3
	if members < n {
		n = members
	}
	w := n/2 + 1
	return QuorumConfig{N: n, R: n - w + 1, W: w}
}

// Quorum runs W-of-N writes and R-of-N reads with read-repair over the
// ring's replica placement. It is the only layer that talks to more
// than one Replica; above it, records read and write like a single
// store that stays available with up to N-quorum members down.
type Quorum struct {
	ring     *Ring
	replicas map[string]Replica // static after construction
	cfg      QuorumConfig

	// repairCtx detaches read-repair and straggler replica writes from
	// request lifetimes; the owning node cancels it on Close.
	repairCtx context.Context

	writes      atomic.Int64
	writeFails  atomic.Int64
	reads       atomic.Int64
	readMisses  atomic.Int64
	readRepairs atomic.Int64
}

// NewQuorum builds the quorum layer. replicas must cover every ring
// member; repairCtx bounds background read-repair (nil = background).
func NewQuorum(ring *Ring, replicas []Replica, cfg QuorumConfig, repairCtx context.Context) (*Quorum, error) {
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 5 * time.Second
	}
	if err := cfg.Validate(ring.Size()); err != nil {
		return nil, err
	}
	m := make(map[string]Replica, len(replicas))
	for _, r := range replicas {
		m[r.ID()] = r
	}
	for _, id := range ring.Nodes() {
		if m[id] == nil {
			return nil, fmt.Errorf("cluster: no replica for ring member %q", id)
		}
	}
	if repairCtx == nil {
		repairCtx = context.Background()
	}
	return &Quorum{ring: ring, replicas: m, cfg: cfg, repairCtx: repairCtx}, nil
}

// Config returns the quorum arithmetic in force.
func (q *Quorum) Config() QuorumConfig { return q.cfg }

// Write replicates rec to its N owners and returns once W of them
// acked. Slower replicas keep receiving the write in the background:
// each replica store runs under repairCtx and the per-op timeout, not
// under ctx, so a caller that cancels ctx as soon as Write returns
// does not cut the stragglers off, and a successful Write usually
// converges to all N shortly after. ctx bounds only the wait for acks.
func (q *Quorum) Write(ctx context.Context, rec Record) error {
	owners := q.ring.Owners(rec.Hash, q.cfg.N)
	q.writes.Add(1)
	if err := ctx.Err(); err != nil {
		q.writeFails.Add(1)
		return fmt.Errorf("cluster: write interrupted at 0/%d acks: %w", q.cfg.W, err)
	}
	acks := make(chan error, len(owners))
	for _, id := range owners {
		rep := q.replicas[id]
		go func() {
			sctx, cancel := context.WithTimeout(q.repairCtx, q.cfg.OpTimeout)
			defer cancel()
			if err := sctx.Err(); err != nil {
				acks <- err
				return
			}
			acks <- rep.Store(sctx, rec)
		}()
	}
	got, acked := 0, 0
	var lastErr error
	for got < len(owners) && acked < q.cfg.W {
		select {
		case err := <-acks:
			got++
			if err == nil {
				acked++
			} else {
				lastErr = err
			}
		case <-ctx.Done():
			q.writeFails.Add(1)
			return fmt.Errorf("cluster: write interrupted at %d/%d acks: %w",
				acked, q.cfg.W, ctx.Err())
		}
	}
	if acked < q.cfg.W {
		q.writeFails.Add(1)
		return fmt.Errorf("cluster: write quorum %d/%d not reached (last error: %v)",
			acked, q.cfg.W, lastErr)
	}
	return nil
}

// readResp is one replica's answer during a quorum read.
type readResp struct {
	id    string
	rec   Record
	found bool
	err   error
}

// Read fetches h from its N owners, requires R responses, and returns
// the highest-version record seen. Replicas observed stale or missing
// are repaired in the background with the winning record. found=false
// means a full read quorum agreed the record does not exist; an error
// means fewer than R replicas answered at all.
func (q *Quorum) Read(ctx context.Context, h Hash) (Record, bool, error) {
	owners := q.ring.Owners(h, q.cfg.N)
	q.reads.Add(1)
	resps := make(chan readResp, len(owners))
	for _, id := range owners {
		id, rep := id, q.replicas[id]
		go func() {
			fctx, cancel := context.WithTimeout(ctx, q.cfg.OpTimeout)
			defer cancel()
			if err := fctx.Err(); err != nil {
				resps <- readResp{id: id, err: err}
				return
			}
			rec, found, err := rep.Fetch(fctx, h)
			resps <- readResp{id: id, rec: rec, found: found, err: err}
		}()
	}
	var (
		answered []readResp
		got      int
	)
	for got < len(owners) && len(answered) < q.cfg.R {
		select {
		case r := <-resps:
			got++
			if r.err == nil {
				answered = append(answered, r)
			}
		case <-ctx.Done():
			q.readMisses.Add(1)
			return Record{}, false, fmt.Errorf("cluster: read interrupted at %d/%d responses: %w",
				len(answered), q.cfg.R, ctx.Err())
		}
	}
	if len(answered) < q.cfg.R {
		q.readMisses.Add(1)
		return Record{}, false, fmt.Errorf("cluster: read quorum %d/%d not reached for %s",
			len(answered), q.cfg.R, h)
	}
	var best Record
	haveBest := false
	for _, r := range answered {
		if r.found && (!haveBest || r.rec.Version > best.Version) {
			best, haveBest = r.rec, true
		}
	}
	if !haveBest {
		return Record{}, false, nil
	}
	// Read-repair: push the winner to every answered replica that was
	// behind. Unanswered replicas converge via the write path's
	// background acks or the next read.
	for _, r := range answered {
		if r.found && r.rec.Version >= best.Version {
			continue
		}
		rep := q.replicas[r.id]
		q.readRepairs.Add(1)
		go func() {
			rctx, cancel := context.WithTimeout(q.repairCtx, q.cfg.OpTimeout)
			defer cancel()
			if rctx.Err() != nil {
				return
			}
			_ = rep.Store(rctx, best)
		}()
	}
	return best, true, nil
}

// QuorumSnapshot is the layer's counter view for /debug/vars.
type QuorumSnapshot struct {
	Writes      int64 `json:"writes"`
	WriteFails  int64 `json:"write_quorum_failures"`
	Reads       int64 `json:"reads"`
	ReadMisses  int64 `json:"read_quorum_failures"`
	ReadRepairs int64 `json:"read_repairs"`
}

// Snapshot returns the current counters.
func (q *Quorum) Snapshot() QuorumSnapshot {
	return QuorumSnapshot{
		Writes:      q.writes.Load(),
		WriteFails:  q.writeFails.Load(),
		Reads:       q.reads.Load(),
		ReadMisses:  q.readMisses.Load(),
		ReadRepairs: q.readRepairs.Load(),
	}
}
