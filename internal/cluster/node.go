package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
)

// Config describes one member of a static cluster.
type Config struct {
	// NodeID is this member's unique name.
	NodeID string
	// Peers maps every OTHER member's ID to its base URL.
	Peers map[string]string
	// VNodes is the virtual-node count per member (0 = DefaultVNodes).
	VNodes int
	// Quorum sets N/R/W; the zero value selects DefaultQuorum for the
	// membership size.
	Quorum QuorumConfig
	// Store is this node's replica storage (nil = in-memory).
	Store Store
}

// Node is one repld cluster member: it wraps the local job manager
// with content-hash routing (jobs run on their ring owner), the
// read-through dedup layer, and quorum replication of results. Its
// Handler serves the same public surface as a single-process repld —
// clients need no cluster awareness beyond retrying across endpoints —
// plus the internode /v1/cluster/... endpoints.
//
// Job IDs leaving a clustered node are qualified "j000001@node2";
// any member resolves them, redirecting (307) to the owning node when
// the job is not local. Completed results are additionally addressable
// as "h<spec-hash>" on every member, served from the quorum store.
type Node struct {
	cfg    Config
	mgr    *serve.Manager
	srv    *serve.Server
	inner  http.Handler
	ring   *Ring
	quorum *Quorum
	dedup  *Dedup
	store  Store
	peers  map[string]*PeerClient // static after construction

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	forwarded     atomic.Int64
	forwardFailed atomic.Int64
	localFallback atomic.Int64
}

// NewNode builds a cluster member around an existing job manager.
func NewNode(m *serve.Manager, cfg Config) (*Node, error) {
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("cluster: node needs an ID")
	}
	members := make([]string, 0, len(cfg.Peers)+1)
	members = append(members, cfg.NodeID)
	for id := range cfg.Peers {
		if id == cfg.NodeID {
			return nil, fmt.Errorf("cluster: peer list contains own ID %q", id)
		}
		members = append(members, id)
	}
	sort.Strings(members)
	ring, err := NewRing(members, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	qcfg := cfg.Quorum
	if qcfg.N == 0 {
		opTimeout := qcfg.OpTimeout
		qcfg = DefaultQuorum(len(members))
		qcfg.OpTimeout = opTimeout
	}
	// Partial configs derive the unset quorums: majority writes, reads
	// sized so R+W = N+1.
	if qcfg.W == 0 {
		qcfg.W = qcfg.N/2 + 1
	}
	if qcfg.R == 0 {
		qcfg.R = qcfg.N - qcfg.W + 1
	}
	baseCtx, cancel := context.WithCancel(context.Background())
	peers := make(map[string]*PeerClient, len(cfg.Peers))
	replicas := []Replica{&LocalReplica{NodeID: cfg.NodeID, S: cfg.Store}}
	for _, id := range members {
		if id == cfg.NodeID {
			continue
		}
		p := NewPeerClient(id, cfg.Peers[id])
		peers[id] = p
		replicas = append(replicas, p)
	}
	q, err := NewQuorum(ring, replicas, qcfg, baseCtx)
	if err != nil {
		cancel()
		return nil, err
	}
	srv := serve.NewServer(m)
	return &Node{
		cfg:     cfg,
		mgr:     m,
		srv:     srv,
		inner:   srv.Handler(),
		ring:    ring,
		quorum:  q,
		dedup:   NewDedup(),
		store:   cfg.Store,
		peers:   peers,
		baseCtx: baseCtx,
		cancel:  cancel,
	}, nil
}

// Close stops background replication and closes the store. The job
// manager is drained separately (serve.Manager.Shutdown).
func (n *Node) Close() error {
	n.cancel()
	n.wg.Wait()
	return n.store.Close()
}

// Ring exposes the placement ring (for tests and introspection).
func (n *Node) Ring() *Ring { return n.ring }

// Handler builds the route table: the cluster-aware job surface, the
// internode endpoints, and the wrapped single-process routes
// (healthz, pprof) from the inner serve handler.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", n.handleJobs)
	mux.HandleFunc("/v1/jobs/", n.handleJob)
	mux.HandleFunc("/v1/cluster/submit", n.handleClusterSubmit)
	mux.HandleFunc("/v1/cluster/replicate", n.handleReplicate)
	mux.HandleFunc("/v1/cluster/fetch", n.handleFetch)
	mux.HandleFunc("/v1/cluster/info", n.handleInfo)
	mux.HandleFunc("/debug/vars", n.handleVars)
	mux.Handle("/", n.inner)
	return mux
}

func (n *Node) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		n.handleSubmit(w, r, true)
	case http.MethodGet:
		// Listings are per-node: they enumerate local executions.
		n.inner.ServeHTTP(w, r)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleClusterSubmit is the internode submit: execute as owner, never
// re-forward, so a forwarded job makes at most one hop.
func (n *Node) handleClusterSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	n.handleSubmit(w, r, false)
}

// handleSubmit is the clustered submission path: hash the spec, serve
// it from the replicated cache if a completed result exists, otherwise
// route it to its ring owner (forwarding at most one hop) and run it
// through the dedup layer there.
func (n *Node) handleSubmit(w http.ResponseWriter, r *http.Request, allowForward bool) {
	spec, err := serve.DecodeSpec(http.MaxBytesReader(w, r.Body, serve.MaxSpecBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
		return
	}
	h, err := HashSpec(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Read-through: a completed record anywhere in the quorum answers
	// the submission without consuming a queue slot. A quorum failure
	// here only costs the optimization — fall through and execute.
	if rec, found, rerr := n.quorum.Read(r.Context(), h); rerr == nil && found && rec.State == serve.StateDone {
		n.dedup.Hit()
		writeJSON(w, http.StatusAccepted, n.cacheStatus(h, rec, &spec))
		return
	}
	owners := n.ring.Owners(h, n.quorum.Config().N)
	if allowForward && len(owners) > 0 && owners[0] != n.cfg.NodeID {
		for _, id := range owners {
			if id == n.cfg.NodeID {
				continue
			}
			st, ferr := n.peers[id].SubmitNoForward(r.Context(), spec)
			switch {
			case ferr == nil:
				n.forwarded.Add(1)
				w.Header().Set("Location", "/v1/jobs/"+st.ID)
				writeJSON(w, http.StatusAccepted, st)
				return
			case errors.Is(ferr, client.ErrQueueFull):
				// The owner is saturated: propagate the backpressure
				// rather than scattering duplicates across non-owners,
				// which would defeat coalescing.
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests, ferr.Error())
				return
			case errors.Is(ferr, client.ErrDraining):
				writeError(w, http.StatusServiceUnavailable, ferr.Error())
				return
			}
			// Transport-level failure: try the next replica owner.
			n.forwardFailed.Add(1)
		}
		// Every owner is unreachable. Bit-determinism makes executing
		// here sound (the result is identical wherever it runs); we
		// lose coalescing with the dead owner's in-flight jobs, not
		// correctness.
		n.localFallback.Add(1)
	}
	n.runLocal(w, r, spec, h)
}

// runLocal executes (or coalesces) the job on this node.
func (n *Node) runLocal(w http.ResponseWriter, _ *http.Request, spec serve.JobSpec, h Hash) {
	id, coalesced, err := n.dedup.Claim(h, func() (string, error) {
		st, serr := n.mgr.Submit(spec)
		if serr != nil {
			return "", serr
		}
		n.watch(h, st.ID)
		return st.ID, nil
	})
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, serve.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	st, gerr := n.mgr.Get(id)
	if gerr != nil {
		writeError(w, http.StatusInternalServerError, gerr.Error())
		return
	}
	source := "executed"
	if coalesced {
		source = "coalesced"
	}
	n.decorate(&st, h, source)
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

// watch follows one local execution to its terminal state and
// replicates the outcome: version 1 announces the execution, version 2
// carries the completed result. Failed and cancelled jobs are retired
// from the singleflight set without poisoning the cache.
func (n *Node) watch(h Hash, id string) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer n.dedup.Done(h)
		wctx, cancel := context.WithTimeout(n.baseCtx, n.quorum.Config().OpTimeout)
		_ = n.quorum.Write(wctx, Record{
			Hash: h, Version: 1, State: serve.StateRunning, Node: n.cfg.NodeID,
		})
		cancel()
		st, err := n.mgr.Wait(n.baseCtx, id)
		if err != nil || st.State != serve.StateDone || st.Result == nil {
			return
		}
		payload, merr := json.Marshal(st.Result)
		if merr != nil {
			return
		}
		// The write deadline is generous relative to OpTimeout: the
		// result is the expensive thing the whole layer exists to
		// keep, so give slow replicas every chance to ack.
		wctx2, cancel2 := context.WithTimeout(n.baseCtx, 3*n.quorum.Config().OpTimeout)
		defer cancel2()
		_ = n.quorum.Write(wctx2, Record{
			Hash: h, Version: 2, State: serve.StateDone, Node: n.cfg.NodeID, Result: payload,
		})
	}()
}

// handleJob resolves the three job-ID forms: "h<hash>" from the
// quorum store, "<id>@<node>" locally or via a 307 redirect to the
// owning member, and bare local IDs.
func (n *Node) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		http.NotFound(w, r)
		return
	}
	if r.Method != http.MethodGet && r.Method != http.MethodDelete {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if h, ok := parseHashID(id); ok {
		n.handleHashJob(w, r, h)
		return
	}
	local, node, qualified := splitQualified(id)
	if qualified && node != n.cfg.NodeID {
		p, ok := n.peers[node]
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Sprintf("no cluster member %q", node))
			return
		}
		// The standard HTTP client follows 307 for GET and DELETE, so
		// any member is a valid entry point for any job ID.
		http.Redirect(w, r, p.BaseURL+"/v1/jobs/"+id, http.StatusTemporaryRedirect)
		return
	}
	var (
		st  serve.Status
		err error
	)
	if r.Method == http.MethodGet {
		st, err = n.mgr.Get(local)
	} else {
		st, err = n.mgr.Cancel(local)
	}
	if errors.Is(err, serve.ErrNotFound) {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	st.Node = n.cfg.NodeID
	if qualified {
		st.ID = local + "@" + n.cfg.NodeID
	}
	// Polled statuses carry the content address too, so a client that
	// only kept the job ID still learns the spec hash. Source is left
	// alone: how the submission was satisfied is known only on the
	// submit response.
	if hh, herr := HashSpec(st.Spec); herr == nil {
		st.SpecHash = hh.String()
	}
	writeJSON(w, http.StatusOK, st)
}

// handleHashJob serves a content-addressed job status from the quorum
// store, falling back to the local in-flight execution when the
// record has not landed yet.
func (n *Node) handleHashJob(w http.ResponseWriter, r *http.Request, h Hash) {
	if r.Method == http.MethodDelete {
		// Cancelling a content address only makes sense for a local
		// in-flight execution; completed records are immutable.
		if id, ok := n.dedup.Lookup(h); ok {
			st, err := n.mgr.Cancel(id)
			if err == nil {
				n.decorate(&st, h, "executed")
				writeJSON(w, http.StatusOK, st)
				return
			}
		}
	}
	rec, found, err := n.quorum.Read(r.Context(), h)
	if err != nil {
		writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	if found {
		writeJSON(w, http.StatusOK, n.cacheStatus(h, rec, nil))
		return
	}
	if id, ok := n.dedup.Lookup(h); ok {
		if st, gerr := n.mgr.Get(id); gerr == nil {
			n.decorate(&st, h, "executed")
			writeJSON(w, http.StatusOK, st)
			return
		}
	}
	writeError(w, http.StatusNotFound, "no record for spec hash "+h.String())
}

// handleReplicate applies one record to the local store (internode).
func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var rec Record
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxEntryLen))
	if err := dec.Decode(&rec); err != nil {
		writeError(w, http.StatusBadRequest, "bad record: "+err.Error())
		return
	}
	applied, err := n.store.Put(rec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"applied": applied})
}

// handleFetch serves one local record (internode).
func (n *Node) handleFetch(w http.ResponseWriter, r *http.Request) {
	h, err := ParseHash(r.URL.Query().Get("hash"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	rec, found, err := n.store.Get(h)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if !found {
		writeError(w, http.StatusNotFound, "no record for "+h.String())
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// infoDoc is the /v1/cluster/info document.
type infoDoc struct {
	Node    string   `json:"node"`
	Members []string `json:"members"`
	VNodes  int      `json:"vnodes"`
	N       int      `json:"replication_factor"`
	R       int      `json:"read_quorum"`
	W       int      `json:"write_quorum"`
	// StoreLen and StoreHashes expose the local replica's contents
	// (hashes truncated to a sample) for smoke tests and debugging.
	StoreLen    int      `json:"store_len"`
	StoreHashes []string `json:"store_hashes,omitempty"`
}

func (n *Node) handleInfo(w http.ResponseWriter, _ *http.Request) {
	cfg := n.quorum.Config()
	vn := n.cfg.VNodes
	if vn <= 0 {
		vn = DefaultVNodes
	}
	doc := infoDoc{
		Node:     n.cfg.NodeID,
		Members:  n.ring.Nodes(),
		VNodes:   vn,
		N:        cfg.N,
		R:        cfg.R,
		W:        cfg.W,
		StoreLen: n.store.Len(),
	}
	hashes := n.store.Hashes()
	if len(hashes) > 8 {
		hashes = hashes[:8]
	}
	for _, h := range hashes {
		doc.StoreHashes = append(doc.StoreHashes, h.String())
	}
	writeJSON(w, http.StatusOK, doc)
}

// Snapshot is the cluster section of /debug/vars.
type Snapshot struct {
	Node          string         `json:"node"`
	Members       []string       `json:"members"`
	N             int            `json:"replication_factor"`
	R             int            `json:"read_quorum"`
	W             int            `json:"write_quorum"`
	StoreLen      int            `json:"store_len"`
	Forwarded     int64          `json:"submissions_forwarded"`
	ForwardFailed int64          `json:"forward_failures"`
	LocalFallback int64          `json:"local_fallbacks"`
	Dedup         DedupSnapshot  `json:"dedup"`
	Quorum        QuorumSnapshot `json:"quorum"`
}

// Snapshot returns the node's cluster counters.
func (n *Node) Snapshot() Snapshot {
	cfg := n.quorum.Config()
	return Snapshot{
		Node:          n.cfg.NodeID,
		Members:       n.ring.Nodes(),
		N:             cfg.N,
		R:             cfg.R,
		W:             cfg.W,
		StoreLen:      n.store.Len(),
		Forwarded:     n.forwarded.Load(),
		ForwardFailed: n.forwardFailed.Load(),
		LocalFallback: n.localFallback.Load(),
		Dedup:         n.dedup.Snapshot(),
		Quorum:        n.quorum.Snapshot(),
	}
}

// handleVars serves the single-process introspection document with the
// cluster section appended, so dashboards work against both shapes.
func (n *Node) handleVars(w http.ResponseWriter, _ *http.Request) {
	doc := struct {
		serve.VarsDoc
		Cluster Snapshot `json:"cluster"`
	}{n.srv.Vars(), n.Snapshot()}
	writeJSON(w, http.StatusOK, doc)
}

// decorate attaches the cluster fields to a local job status and
// qualifies its ID so any member can resolve it later.
func (n *Node) decorate(st *serve.Status, h Hash, source string) {
	st.SpecHash = h.String()
	st.Source = source
	st.Node = n.cfg.NodeID
	if !strings.Contains(st.ID, "@") {
		st.ID += "@" + n.cfg.NodeID
	}
}

// cacheStatus synthesizes a job status from a replicated record.
func (n *Node) cacheStatus(h Hash, rec Record, spec *serve.JobSpec) serve.Status {
	st := serve.Status{
		ID:       "h" + h.String(),
		State:    rec.State,
		SpecHash: h.String(),
		Source:   "cache",
		Node:     rec.Node,
	}
	if spec != nil {
		st.Spec = *spec
	}
	if len(rec.Result) > 0 {
		var res serve.Result
		if json.Unmarshal(rec.Result, &res) == nil {
			st.Result = &res
		}
	}
	return st
}

// parseHashID recognizes the content-addressed job-ID form:
// "h" + 64 hex chars.
func parseHashID(id string) (Hash, bool) {
	if len(id) != 65 || id[0] != 'h' {
		return Hash{}, false
	}
	h, err := ParseHash(id[1:])
	if err != nil {
		return Hash{}, false
	}
	return h, true
}

// splitQualified splits "local@node" IDs at the last '@'.
func splitQualified(id string) (local, node string, ok bool) {
	i := strings.LastIndex(id, "@")
	if i <= 0 || i == len(id)-1 {
		return id, "", false
	}
	return id[:i], id[i+1:], true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// WaitSettled blocks until no execution is in flight on this node or
// the timeout elapses — the graceful-shutdown hook between draining
// the HTTP listener and closing the store, so completed results get
// replicated before the process exits.
func (n *Node) WaitSettled(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for n.dedup.Snapshot().Inflight > 0 {
		if n.baseCtx.Err() != nil || time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	return true
}
