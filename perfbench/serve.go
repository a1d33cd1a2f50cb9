package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// The serve workload: a 3-node repld cluster in this process, each node
// on its own loopback HTTP server with a memory store and one manager
// worker. One client submits a seeded Zipf stream of job specs over a
// small pool of distinct specs, one request at a time, and polls at a
// fixed interval. Every spec in the pool is requested at least once,
// so the cluster executes exactly one job per distinct spec and
// answers every other request from its replicated result cache.
var serveCircuits = []string{"ex5p", "tseng", "apex2", "seq"}

const (
	serveNodes    = 3
	serveSpecs    = 18  // distinct specs: the executions of a pass
	serveRequests = 120 // requests per pass, executions included
	serveScale    = 0.03
	serveMaxIters = 20
	servePoll     = 50 * time.Millisecond
	serveZipfS    = 1.2
)

// serveSpecPool returns the pool of distinct specs and one warm-up spec
// outside it, the same on every seed, and the request stream the seed
// draws over the pool.
func serveSpecPool(seed int64) (pool []serve.JobSpec, stream []int, warm serve.JobSpec) {
	rng := rand.New(rand.NewSource(suiteSeed))
	spec := func(i int) serve.JobSpec {
		algo := "rt"
		if i%2 == 1 {
			algo = "lex3"
		}
		return serve.JobSpec{
			Circuit:     serveCircuits[i%len(serveCircuits)],
			Scale:       serveScale,
			Algo:        algo,
			Seed:        1 + rng.Int63n(1<<31),
			Effort:      1,
			MaxIters:    serveMaxIters,
			Parallelism: 1,
			Route:       i%6 == 0,
		}
	}
	warm = spec(0)
	for i := 0; i < serveSpecs; i++ {
		pool = append(pool, spec(i))
	}
	// Every spec once, the rest Zipf-distributed over the pool.
	rng = rand.New(rand.NewSource(seed))
	for i := range pool {
		stream = append(stream, i)
	}
	z := rand.NewZipf(rng, serveZipfS, 1, serveSpecs-1)
	for len(stream) < serveRequests {
		stream = append(stream, int(z.Uint64()))
	}
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	return pool, stream, warm
}

// serveCluster is the in-process cluster of one pass.
type serveCluster struct {
	servers []*httptest.Server
	mgrs    []*serve.Manager
	nodes   []*cluster.Node
	urls    []string
	polls   atomic.Int64 // job-status requests the nodes served
}

func startCluster() (*serveCluster, error) {
	c := &serveCluster{}
	ids := make([]string, serveNodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("node%d", i+1)
		srv := httptest.NewUnstartedServer(nil)
		c.servers = append(c.servers, srv)
		c.urls = append(c.urls, "http://"+srv.Listener.Addr().String())
	}
	for i, id := range ids {
		peers := map[string]string{}
		for j, other := range ids {
			if j != i {
				peers[other] = c.urls[j]
			}
		}
		m := serve.NewManager(serve.Config{Workers: 1, QueueDepth: 32, DefaultTimeout: time.Minute})
		c.mgrs = append(c.mgrs, m)
		n, err := cluster.NewNode(m, cluster.Config{
			NodeID: id,
			Peers:  peers,
			VNodes: 16,
			Quorum: cluster.QuorumConfig{OpTimeout: 5 * time.Second},
		})
		if err != nil {
			c.stop()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		h := n.Handler()
		c.servers[i].Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
				c.polls.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	}
	for _, srv := range c.servers {
		srv.Start()
	}
	return c, nil
}

// stop shuts the cluster down and waits for its goroutines.
func (c *serveCluster) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range c.servers {
		srv.Close()
	}
	for _, m := range c.mgrs {
		m.Shutdown(ctx)
	}
	for _, n := range c.nodes {
		n.WaitSettled(5 * time.Second)
		n.Close()
	}
}

// settle waits until no execution is in flight on any node: the
// result has reached its write quorum, so the next request for the
// same spec is a cache hit on every run.
func (c *serveCluster) settle() error {
	for _, n := range c.nodes {
		if !n.WaitSettled(30 * time.Second) {
			return fmt.Errorf("cluster did not settle")
		}
	}
	return nil
}

// snapshot sums the nodes' cluster counters.
func (c *serveCluster) snapshot() map[string]float64 {
	out := map[string]float64{}
	for _, n := range c.nodes {
		s := n.Snapshot()
		out["cluster.cache_hits"] += float64(s.Dedup.CacheHits)
		out["cluster.executed"] += float64(s.Dedup.Executed)
		out["cluster.coalesced"] += float64(s.Dedup.Coalesced)
		out["cluster.forwarded"] += float64(s.Forwarded)
		out["cluster.quorum_reads"] += float64(s.Quorum.Reads)
		out["cluster.quorum_writes"] += float64(s.Quorum.Writes)
		out["cluster.read_repairs"] += float64(s.Quorum.ReadRepairs)
	}
	return out
}

// request submits one spec and waits for its result, as one timed
// call, and returns the terminal status.
func request(m *meter, cc *client.ClusterClient, spec serve.JobSpec) (serve.Status, int, error) {
	var st serve.Status
	idx, err := m.call("serve.request", func() (err error) {
		st, _, err = cc.Run(context.Background(), spec, servePoll)
		return err
	})
	if err == nil && st.State != serve.StateDone {
		err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st, idx, err
}

func servePass(m *meter, seed int64) (*passResult, error) {
	res := &passResult{counts: map[string]float64{}}
	pool, stream, warm := serveSpecPool(seed)

	m.beginSetup()
	c, err := startCluster()
	var cc *client.ClusterClient
	if err == nil {
		cc, err = client.NewClusterClient(c.urls, nil)
	}
	if err == nil {
		// One execution outside the pool warms connections and the heap.
		if _, _, err = request(m, cc, warm); err == nil {
			err = c.settle()
		}
	}
	m.endSetup()
	if c != nil {
		defer c.stop()
	}
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res.setupCPU = m.setupCPU
	base := c.snapshot()
	polls0 := c.polls.Load()

	first := map[string]*serve.Result{}
	var queueMS, runMS float64
	var inc core.IncrementalStats
	for i, k := range stream {
		m.beginOp(i + 1)
		st, idx, err := request(m, cc, pool[k])
		sample := m.endOp()
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i+1, err)
		}
		if st.Result == nil {
			return nil, fmt.Errorf("request %d: done without a result", i+1)
		}
		if prev, ok := first[st.SpecHash]; ok {
			if err := sameResult(prev, st.Result); err != nil {
				return nil, fmt.Errorf("request %d (%s, spec %d): %w", i+1, st.Source, k, err)
			}
		} else {
			if st.Source != "executed" {
				return nil, fmt.Errorf("request %d: first request of spec %d served as %q", i+1, k, st.Source)
			}
			first[st.SpecHash] = st.Result
			r := st.Result
			res.ratios = append(res.ratios, r.OptimizedPeriod/r.PlacedPeriod)
			queueMS += 1000 * st.QueueSeconds
			runMS += 1000 * st.RunSeconds
			res.counts["core.iterations"] += float64(r.Iterations)
			res.counts["core.replicated"] += float64(r.Replicated)
			res.counts["core.unified"] += float64(r.Unified)
			addInc(&inc, r.Incremental)
			if m.traced {
				// The job's own stage timer splits the request: the
				// solver runs single-threaded, so its wall seconds are
				// charged as CPU seconds.
				kids := m.synthetic(idx, []string{"place.anneal", "core.run", "route.lowstress"},
					[]float64{r.PlaceSeconds, r.EngineSeconds, r.RouteSeconds}, 1)
				if kids[1] >= 0 {
					m.synthetic(kids[1], phaseNames, phaseWalls(r.Phases), 0)
				}
			}
			if err := c.settle(); err != nil {
				return nil, fmt.Errorf("request %d: %w", i+1, err)
			}
		}
		res.ops = append(res.ops, sample)
		res.exact = append(res.exact, fmt.Sprintf("request %d spec=%d source=%s hash=%s placed=%s optimized=%s it=%d",
			i+1, k, st.Source, st.SpecHash, fmtExact(st.Result.PlacedPeriod), fmtExact(st.Result.OptimizedPeriod),
			st.Result.Iterations))
	}
	for k, v := range c.snapshot() {
		res.counts[k] = v - base[k]
	}
	if got := res.counts["cluster.executed"]; got != float64(len(first)) || len(first) != serveSpecs {
		return nil, fmt.Errorf("cluster executed %v jobs for %d distinct specs", got, len(first))
	}
	// Read repairs are not exact: a quorum write returns after W of N
	// acks and cancels the slowest replica's write, and whether a later
	// R-of-N read reaches that stale replica depends on which replicas
	// answer first.
	for _, k := range sortedKeys(c.snapshot()) {
		if k != "cluster.read_repairs" {
			res.exact = append(res.exact, fmt.Sprintf("%s=%v", k, res.counts[k]))
		}
	}
	incCounts(res.counts, inc)
	res.counts["serve.polls"] = float64(c.polls.Load() - polls0)
	res.counts["serve.queue_ms"] = queueMS / float64(len(first))
	res.counts["serve.run_ms"] = runMS / float64(len(first))
	return res, nil
}

// sameResult demands a duplicate's result be bit-identical to the
// first execution of its spec in every solver output.
func sameResult(a, b *serve.Result) error {
	fa := []float64{a.PlacedPeriod, a.OptimizedPeriod, a.RoutedCritPath}
	fb := []float64{b.PlacedPeriod, b.OptimizedPeriod, b.RoutedCritPath}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return fmt.Errorf("duplicate result differs: %v vs %v", fa, fb)
		}
	}
	ia := []int{a.LUTs, a.IOs, a.Iterations, a.Replicated, a.Unified, a.FFRelocations, a.ChannelWidth, a.WireLength}
	ib := []int{b.LUTs, b.IOs, b.Iterations, b.Replicated, b.Unified, b.FFRelocations, b.ChannelWidth, b.WireLength}
	for i := range ia {
		if ia[i] != ib[i] {
			return fmt.Errorf("duplicate result differs: %v vs %v", ia, ib)
		}
	}
	if a.Circuit != b.Circuit || a.Algo != b.Algo || a.StoppedEarly != b.StoppedEarly || a.Incremental != b.Incremental {
		return fmt.Errorf("duplicate result differs in circuit, algorithm or engine counters")
	}
	return nil
}
