package cluster

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
)

// lateHandler lets an httptest server start before the Node it will
// serve exists: member URLs must be known at Node construction, so the
// servers come up first with an empty handler that is swapped in after.
type lateHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.RLock()
	h := l.h
	l.mu.RUnlock()
	if h == nil {
		http.Error(w, "node not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (l *lateHandler) set(h http.Handler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

// testCluster is a 3-node in-process repld cluster over httptest.
type testCluster struct {
	ids      []string
	nodes    map[string]*Node
	mgrs     map[string]*serve.Manager
	servers  map[string]*httptest.Server
	handlers map[string]*lateHandler
	urls     map[string]string
}

// startCluster brings up members with the given IDs. stores maps an ID
// to a Store override (nil entries and missing keys get MemStores).
func startCluster(t *testing.T, ids []string, stores map[string]Store) *testCluster {
	t.Helper()
	tc := &testCluster{
		ids:      ids,
		nodes:    map[string]*Node{},
		mgrs:     map[string]*serve.Manager{},
		servers:  map[string]*httptest.Server{},
		handlers: map[string]*lateHandler{},
		urls:     map[string]string{},
	}
	for _, id := range ids {
		lh := &lateHandler{}
		srv := httptest.NewServer(lh)
		tc.handlers[id] = lh
		tc.servers[id] = srv
		tc.urls[id] = srv.URL
	}
	for _, id := range ids {
		peers := map[string]string{}
		for _, other := range ids {
			if other != id {
				peers[other] = tc.urls[other]
			}
		}
		m := serve.NewManager(serve.Config{
			Workers:        2,
			QueueDepth:     32,
			DefaultTimeout: time.Minute,
		})
		n, err := NewNode(m, Config{
			NodeID: id,
			Peers:  peers,
			VNodes: 16,
			Quorum: QuorumConfig{OpTimeout: 5 * time.Second},
			Store:  stores[id],
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.mgrs[id] = m
		tc.nodes[id] = n
		tc.handlers[id].set(n.Handler())
	}
	t.Cleanup(func() { tc.shutdown() })
	return tc
}

func (tc *testCluster) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, id := range tc.ids {
		if srv := tc.servers[id]; srv != nil {
			srv.Close()
		}
	}
	for _, id := range tc.ids {
		if m := tc.mgrs[id]; m != nil {
			m.Shutdown(ctx)
		}
		if n := tc.nodes[id]; n != nil {
			n.WaitSettled(5 * time.Second)
			n.Close()
			tc.nodes[id] = nil
		}
	}
}

// kill stops one member's HTTP server and drains its manager,
// simulating a crashed node (its Store stays as-is).
func (tc *testCluster) kill(t *testing.T, id string) {
	t.Helper()
	tc.servers[id].Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tc.mgrs[id].Shutdown(ctx)
	tc.nodes[id].WaitSettled(5 * time.Second)
	tc.nodes[id].Close()
	tc.nodes[id] = nil
}

func (tc *testCluster) client(id string) *client.Client {
	return client.New(tc.urls[id])
}

// smallSpec is the cheapest real job that exercises the full engine.
func smallSpec() serve.JobSpec {
	return serve.JobSpec{Circuit: "ex5p", Scale: 0.05, MaxIters: 2, Seed: 1}
}

// runOn submits spec via member id and waits for the terminal status.
func (tc *testCluster) runOn(t *testing.T, id string, spec serve.JobSpec) serve.Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := tc.client(id).Run(ctx, spec, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("run via %s: %v", id, err)
	}
	return st
}

// TestClusterRoutingAndDedup is the core end-to-end flow: the same
// spec submitted through every member must execute once, come back
// bit-identical everywhere, and leave dedup evidence in the counters.
func TestClusterRoutingAndDedup(t *testing.T) {
	tc := startCluster(t, []string{"n1", "n2", "n3"}, nil)
	spec := smallSpec()
	h, err := HashSpec(spec)
	if err != nil {
		t.Fatal(err)
	}

	// First run through n1: executes somewhere (owner side), and its
	// status carries the cluster fields.
	st1 := tc.runOn(t, "n1", spec)
	if st1.State != serve.StateDone || st1.Result == nil {
		t.Fatalf("first run: %+v", st1)
	}
	if st1.SpecHash != h.String() {
		t.Errorf("spec hash %q, want %q", st1.SpecHash, h)
	}
	if st1.Node == "" {
		t.Error("status missing executing node")
	}

	// Wait for the v2 record to replicate, then resubmit via the other
	// members: both must be answered from the cache, terminal at
	// submit time, with the identical result bits.
	waitStore(t, tc, h, 2)
	for _, id := range []string{"n2", "n3"} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		st, err := tc.client(id).Submit(ctx, spec)
		cancel()
		if err != nil {
			t.Fatalf("resubmit via %s: %v", id, err)
		}
		if st.State != serve.StateDone || st.Source != "cache" || st.Result == nil {
			t.Fatalf("resubmit via %s: state=%s source=%q result=%v", id, st.State, st.Source, st.Result != nil)
		}
		if !strings.HasPrefix(st.ID, "h") {
			t.Errorf("cache hit ID %q not content-addressed", st.ID)
		}
		if math.Float64bits(st.Result.OptimizedPeriod) != math.Float64bits(st1.Result.OptimizedPeriod) ||
			st.Result.Iterations != st1.Result.Iterations {
			t.Errorf("cached result differs from executed result: %+v vs %+v", st.Result, st1.Result)
		}
	}

	hits := int64(0)
	for _, id := range tc.ids {
		hits += tc.nodes[id].Snapshot().Dedup.CacheHits
	}
	if hits < 2 {
		t.Errorf("cluster-wide cache hits = %d, want >= 2", hits)
	}
}

// waitStore polls the cluster until h is resident at version >= v on
// at least a read quorum's worth of members.
func waitStore(t *testing.T, tc *testCluster, h Hash, v uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		holders := 0
		for _, id := range tc.ids {
			n := tc.nodes[id]
			if n == nil {
				continue
			}
			if rec, found, _ := n.store.Get(h); found && rec.Version >= v {
				holders++
			}
		}
		if holders >= 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("record %s did not replicate to 2 members", h)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterCoalescing: duplicate submissions while the first is in
// flight must attach to the same execution, not start a second one.
func TestClusterCoalescing(t *testing.T) {
	tc := startCluster(t, []string{"n1", "n2", "n3"}, nil)
	spec := smallSpec()
	spec.Seed = 42 // distinct hash from other tests in the run

	const dups = 6
	ids := make([]string, dups)
	var wg sync.WaitGroup
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entry := tc.ids[i%len(tc.ids)]
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			st, err := tc.client(entry).Run(ctx, spec, 20*time.Millisecond)
			if err != nil {
				t.Errorf("dup %d via %s: %v", i, entry, err)
				return
			}
			if st.State != serve.StateDone {
				t.Errorf("dup %d: state %s (%s)", i, st.State, st.Error)
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()

	var executed, coalesced, hits int64
	for _, id := range tc.ids {
		d := tc.nodes[id].Snapshot().Dedup
		executed += d.Executed
		coalesced += d.Coalesced
		hits += d.CacheHits
	}
	if executed != 1 {
		t.Errorf("%d executions for one spec, want exactly 1 (coalesced=%d hits=%d)", executed, coalesced, hits)
	}
	if coalesced+hits != dups-1 {
		t.Errorf("coalesced=%d + hits=%d, want %d duplicates absorbed", coalesced, hits, dups-1)
	}
}

// TestClusterQualifiedIDRedirect: a job ID qualified with its home
// node must resolve through any member via 307.
func TestClusterQualifiedIDRedirect(t *testing.T) {
	tc := startCluster(t, []string{"n1", "n2", "n3"}, nil)
	spec := smallSpec()
	spec.Seed = 43
	st := tc.runOn(t, "n1", spec)
	if !strings.Contains(st.ID, "@") {
		t.Fatalf("cluster job ID %q not qualified", st.ID)
	}
	for _, id := range tc.ids {
		got, err := tc.client(id).Get(context.Background(), st.ID)
		if err != nil {
			t.Fatalf("get %s via %s: %v", st.ID, id, err)
		}
		if got.ID != st.ID || !got.State.Terminal() {
			t.Errorf("via %s: got ID=%q state=%s", id, got.ID, got.State)
		}
	}
	// Unknown member in the qualifier is a 404, not a hang.
	if _, err := tc.client("n1").Get(context.Background(), "j000001@ghost"); err == nil {
		t.Error("qualified ID with unknown member resolved")
	}
}

// TestClusterHashAddress: "h<hash>" must serve the completed result
// from every member, including ones that never saw the job.
func TestClusterHashAddress(t *testing.T) {
	tc := startCluster(t, []string{"n1", "n2", "n3"}, nil)
	spec := smallSpec()
	spec.Seed = 44
	st := tc.runOn(t, "n2", spec)
	h, err := ParseHash(st.SpecHash)
	if err != nil {
		t.Fatal(err)
	}
	waitStore(t, tc, h, 2)
	for _, id := range tc.ids {
		got, err := tc.client(id).Get(context.Background(), "h"+st.SpecHash)
		if err != nil {
			t.Fatalf("hash get via %s: %v", id, err)
		}
		if got.State != serve.StateDone || got.Result == nil || got.Source != "cache" {
			t.Errorf("via %s: state=%s source=%q", id, got.State, got.Source)
		}
	}
}

// TestClusterNodeDownReads: after one member dies, the quorum must
// keep serving completed results through the survivors.
func TestClusterNodeDownReads(t *testing.T) {
	tc := startCluster(t, []string{"n1", "n2", "n3"}, nil)
	spec := smallSpec()
	spec.Seed = 45
	st := tc.runOn(t, "n1", spec)
	h, err := ParseHash(st.SpecHash)
	if err != nil {
		t.Fatal(err)
	}
	waitStore(t, tc, h, 2)

	tc.kill(t, "n3")

	for _, id := range []string{"n1", "n2"} {
		got, err := tc.client(id).Get(context.Background(), "h"+st.SpecHash)
		if err != nil {
			t.Fatalf("hash get via %s with n3 dead: %v", id, err)
		}
		if got.State != serve.StateDone || got.Result == nil {
			t.Errorf("via %s with n3 dead: state=%s", id, got.State)
		}
		// A fresh duplicate submission is still served from the cache.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		sub, err := tc.client(id).Submit(ctx, spec)
		cancel()
		if err != nil {
			t.Fatalf("resubmit via %s with n3 dead: %v", id, err)
		}
		if sub.State != serve.StateDone || sub.Source != "cache" {
			t.Errorf("resubmit via %s with n3 dead: state=%s source=%q", id, sub.State, sub.Source)
		}
	}
}

// TestClusterNodeDownSubmit: new work keeps flowing with a member
// dead — forwarding falls back across the surviving owners.
func TestClusterNodeDownSubmit(t *testing.T) {
	tc := startCluster(t, []string{"n1", "n2", "n3"}, nil)
	tc.kill(t, "n2")
	for seed := int64(50); seed < 53; seed++ {
		spec := smallSpec()
		spec.Seed = seed
		st := tc.runOn(t, "n1", spec)
		if st.State != serve.StateDone {
			t.Fatalf("seed %d with n2 dead: state=%s (%s)", seed, st.State, st.Error)
		}
	}
}

// TestClusterDiskRecovery: a member restarted onto its log must come
// back holding every result it had replicated.
func TestClusterDiskRecovery(t *testing.T) {
	dir := t.TempDir()
	openStore := func(id string) Store {
		s, err := OpenDiskStore(filepath.Join(dir, id+".results.log"))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	stores := map[string]Store{"n1": openStore("n1"), "n2": openStore("n2"), "n3": openStore("n3")}
	tc := startCluster(t, []string{"n1", "n2", "n3"}, stores)
	spec := smallSpec()
	spec.Seed = 46
	st := tc.runOn(t, "n1", spec)
	h, err := ParseHash(st.SpecHash)
	if err != nil {
		t.Fatal(err)
	}
	waitStore(t, tc, h, 2)
	tc.shutdown()

	// "Restart": reopen each log and check the record survived on at
	// least a write quorum of members.
	holders := 0
	for _, id := range tc.ids {
		s, err := OpenDiskStore(filepath.Join(dir, id+".results.log"))
		if err != nil {
			t.Fatalf("reopen %s: %v", id, err)
		}
		rec, found, err := s.Get(h)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if found && rec.Version >= 2 && rec.State == serve.StateDone {
			var res serve.Result
			if jerr := json.Unmarshal(rec.Result, &res); jerr != nil {
				t.Fatalf("recovered result corrupt on %s: %v", id, jerr)
			}
			if math.Float64bits(res.OptimizedPeriod) != math.Float64bits(st.Result.OptimizedPeriod) {
				t.Errorf("recovered result on %s differs from served result", id)
			}
			holders++
		}
	}
	if holders < 2 {
		t.Errorf("result recovered on %d members, want >= 2", holders)
	}
}

// TestClusterVars: /debug/vars must carry both the single-process
// document and the cluster section.
func TestClusterVars(t *testing.T) {
	tc := startCluster(t, []string{"n1", "n2", "n3"}, nil)
	resp, err := http.Get(tc.urls["n1"] + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Goroutines int `json:"goroutines"`
		Cluster    struct {
			Node    string   `json:"node"`
			Members []string `json:"members"`
			N       int      `json:"replication_factor"`
			Dedup   struct {
				CacheHits int64 `json:"cache_hits"`
			} `json:"dedup"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Cluster.Node != "n1" || len(doc.Cluster.Members) != 3 || doc.Cluster.N != 3 {
		t.Errorf("cluster section %+v", doc.Cluster)
	}
	if doc.Goroutines == 0 {
		t.Error("serve vars section missing (goroutines = 0)")
	}
}

// TestClusterInfo: the membership endpoint must agree across members.
func TestClusterInfo(t *testing.T) {
	tc := startCluster(t, []string{"n1", "n2", "n3"}, nil)
	for _, id := range tc.ids {
		resp, err := http.Get(tc.urls[id] + "/v1/cluster/info")
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Node    string   `json:"node"`
			Members []string `json:"members"`
			N       int      `json:"replication_factor"`
			R       int      `json:"read_quorum"`
			W       int      `json:"write_quorum"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if doc.Node != id || len(doc.Members) != 3 || doc.N != 3 || doc.R != 2 || doc.W != 2 {
			t.Errorf("%s info %+v", id, doc)
		}
	}
}

// TestSingleNodeCluster: a cluster of one must behave like a repld
// with a cache — N=R=W=1, no forwarding, dedup still active.
func TestSingleNodeCluster(t *testing.T) {
	tc := startCluster(t, []string{"solo"}, nil)
	spec := smallSpec()
	spec.Seed = 47
	st := tc.runOn(t, "solo", spec)
	if st.State != serve.StateDone {
		t.Fatalf("run: %+v", st)
	}
	h, _ := ParseHash(st.SpecHash)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if rec, found, _ := tc.nodes["solo"].store.Get(h); found && rec.Version >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("record did not land in the solo store")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sub, err := tc.client("solo").Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Source != "cache" {
		t.Errorf("resubmit source %q, want cache", sub.Source)
	}
}

// TestClusterRacedSpecDedup is the racing acceptance path end to end:
// identical raced specs — even with the variant list spelled in a
// different order — canonicalize to the same SpecHash, so duplicates
// are answered from the dedup layer with the identical winner and
// period bits. First-finisher-wins racing would break exactly this
// (see DESIGN.md); the canonical-order decision rule keeps raced
// results safe to cache.
func TestClusterRacedSpecDedup(t *testing.T) {
	tc := startCluster(t, []string{"n1", "n2", "n3"}, nil)
	spec := smallSpec()
	spec.Seed = 61 // distinct hash from other tests in the run
	spec.Algo = serve.AlgoRace
	spec.RaceVariants = []string{"rt", "lex3"}

	st1 := tc.runOn(t, "n1", spec)
	if st1.State != serve.StateDone || st1.Result == nil {
		t.Fatalf("raced run: %+v", st1)
	}
	if st1.Result.RaceWinner == "" {
		t.Fatal("raced result carries no winner")
	}
	h, err := HashSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st1.SpecHash != h.String() {
		t.Errorf("spec hash %q, want %q", st1.SpecHash, h)
	}

	// The same race spelled differently (variant order, case) must hash
	// identically — the hash covers the canonical fold, not the JSON.
	reordered := spec
	reordered.RaceVariants = []string{"LEX3", "rt", "lex3"}
	if h2, err := HashSpec(reordered); err != nil || h2 != h {
		t.Fatalf("reordered variant list changed the hash: %v vs %v (err %v)", h2, h, err)
	}

	// Resubmit through the other members, reordered: every duplicate is
	// served from the dedup layer with the identical decision.
	waitStore(t, tc, h, 2)
	for _, id := range []string{"n2", "n3"} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		st, err := tc.client(id).Submit(ctx, reordered)
		cancel()
		if err != nil {
			t.Fatalf("raced resubmit via %s: %v", id, err)
		}
		if st.State != serve.StateDone || st.Source != "cache" || st.Result == nil {
			t.Fatalf("raced resubmit via %s: state=%s source=%q", id, st.State, st.Source)
		}
		if st.Result.RaceWinner != st1.Result.RaceWinner {
			t.Errorf("cached winner %q differs from executed winner %q", st.Result.RaceWinner, st1.Result.RaceWinner)
		}
		if math.Float64bits(st.Result.OptimizedPeriod) != math.Float64bits(st1.Result.OptimizedPeriod) {
			t.Errorf("cached raced period differs: %x vs %x",
				math.Float64bits(st.Result.OptimizedPeriod), math.Float64bits(st1.Result.OptimizedPeriod))
		}
	}

	hits := int64(0)
	for _, id := range tc.ids {
		hits += tc.nodes[id].Snapshot().Dedup.CacheHits
	}
	if hits < 2 {
		t.Errorf("raced-spec cache hits = %d, want >= 2", hits)
	}
}

// TestClusterConcurrentWatchers completes distinct jobs at once on one
// node, so several (*Node).watch goroutines run together — the case
// the race detector needs to see an unsynchronized write on the
// watcher's path. Every result must still replicate to the store.
func TestClusterConcurrentWatchers(t *testing.T) {
	tc := startCluster(t, []string{"solo"}, nil)
	// Four distinct specs submitted at once: the manager runs two at a
	// time, and every pair of watchers is a chance for the detector to
	// see two unordered writes.
	specs := make([]serve.JobSpec, 4)
	for i := range specs {
		specs[i] = smallSpec()
		specs[i].Seed = 71 + int64(i) // distinct hashes from other tests in the run
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec serve.JobSpec) {
			defer wg.Done()
			<-start
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			st, err := tc.client("solo").Run(ctx, spec, 20*time.Millisecond)
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			if st.State != serve.StateDone {
				t.Errorf("job %d: state %s (%s)", i, st.State, st.Error)
			}
		}(i, spec)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := tc.nodes["solo"].Snapshot().Dedup.Executed; got != int64(len(specs)) {
		t.Errorf("%d executions for %d distinct specs", got, len(specs))
	}
	for _, spec := range specs {
		h, err := HashSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			if rec, found, _ := tc.nodes["solo"].store.Get(h); found && rec.Version >= 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("record %s did not land in the store", h)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
