// Command replload load-tests a repld daemon or cluster: it fires N
// replication jobs at bounded concurrency across one or more
// endpoints, absorbs 429 backpressure with the client's jittered
// exponential backoff, and reports latency percentiles (overall and
// per executing node), throughput, the cluster's cache hit rate, and
// a determinism cross-check (identical specs must produce
// bit-identical results, wherever and however they were served).
//
//	repld -addr :8080 &
//	replload -n 50 -concurrency 8 -circuit ex5p -scale 0.1
//
// Against a cluster, list every member and introduce duplicates:
//
//	replload -addrs http://n1:8081,http://n2:8082,http://n3:8083 \
//	         -n 30 -distinct 15
//
// -distinct K cycles K distinct placement seeds across the N jobs, so
// K < N submits duplicate specs the cluster should coalesce or serve
// from its result cache.
//
// Exit status is 1 when any job fails or determinism is violated.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
)

func main() {
	var (
		addr        = flag.String("addr", "http://localhost:8080", "repld base URL")
		addrs       = flag.String("addrs", "", "comma-separated endpoint list (overrides -addr)")
		n           = flag.Int("n", 50, "total jobs to submit")
		concurrency = flag.Int("concurrency", 8, "concurrent in-flight jobs")
		circuit     = flag.String("circuit", "ex5p", "suite circuit per job")
		scale       = flag.Float64("scale", 0.1, "circuit size multiplier")
		algo        = flag.String("algo", "rt", "algorithm per job")
		maxIters    = flag.Int("max-iters", 10, "engine iteration cap per job (0 = engine default)")
		route       = flag.Bool("route", false, "route each job after optimization")
		timeoutMS   = flag.Int("timeout-ms", 0, "per-job timeout (0 = server default)")
		distinct    = flag.Int("distinct", 1, "distinct placement seeds cycled across jobs (<n introduces duplicates; 0 or >=n makes every job unique)")
		raceList    = flag.String("race-variants", "", `race the listed variants per job (comma list, or "all" for every engine variant; empty = no racing)`)
		periodBound = flag.Float64("period-bound", 0, "racing period bound (0 = first full board decides)")
		deadlineFr  = flag.Float64("deadline-frac", 0, "fraction of jobs submitted in the deadline QoS class (0..1)")
		varySeed    = flag.Bool("vary-seed", false, "give each job a distinct placement seed (same as -distinct=n)")
		poll        = flag.Duration("poll", 50*time.Millisecond, "status poll interval")
		wait        = flag.Duration("wait", 10*time.Minute, "overall deadline")
	)
	flag.Parse()

	endpoints := []string{*addr}
	if *addrs != "" {
		endpoints = nil
		for _, a := range strings.Split(*addrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				endpoints = append(endpoints, a)
			}
		}
	}
	groups := *distinct
	if *varySeed || groups <= 0 || groups > *n {
		groups = *n
	}

	ctx, cancel := context.WithTimeout(context.Background(), *wait)
	defer cancel()

	cc, err := client.NewClusterClient(endpoints, client.DefaultBackoff())
	if err != nil {
		fmt.Fprintf(os.Stderr, "replload: %v\n", err)
		os.Exit(2)
	}
	spec := serve.JobSpec{
		Circuit:   *circuit,
		Scale:     *scale,
		Algo:      *algo,
		MaxIters:  *maxIters,
		Route:     *route,
		TimeoutMS: *timeoutMS,
	}
	if *raceList != "" {
		spec.Algo = serve.AlgoRace
		spec.PeriodBound = *periodBound
		if *raceList != "all" {
			for _, v := range strings.Split(*raceList, ",") {
				if v = strings.TrimSpace(v); v != "" {
					spec.RaceVariants = append(spec.RaceVariants, v)
				}
			}
		}
	}
	lg := &loadgen{
		cc:           cc,
		poll:         *poll,
		groups:       groups,
		deadlineFrac: *deadlineFr,
		results:      make([]outcome, *n),
		work:         make(chan int),
		spec:         spec,
	}

	reachable := 0
	for _, ep := range endpoints {
		if _, herr := client.New(ep).Health(ctx); herr == nil {
			reachable++
		}
	}
	if reachable == 0 {
		fmt.Fprintf(os.Stderr, "replload: no reachable endpoint among %v\n", endpoints)
		os.Exit(2)
	}

	start := time.Now()
	done := make(chan struct{})
	workers := *concurrency
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		// The shared Backoff's fields are written once inside
		// sync.Once.Do and its jitter rng is guarded by its own mutex;
		// workers only read the frozen schedule.
		go lg.worker(ctx, done)
	}
	for i := 0; i < *n; i++ {
		lg.work <- i
	}
	close(lg.work)
	for w := 0; w < workers; w++ {
		<-done
	}
	wall := time.Since(start)

	if !report(lg.results, wall) {
		os.Exit(1)
	}
}

// outcome records one job's fate from the client's point of view.
type outcome struct {
	state   serve.State
	latency time.Duration // submit call → terminal status
	err     string
	// seed is the job's placement seed — its duplicate-group key.
	seed int64
	// node and source are the cluster's routing/dedup telemetry:
	// which member executed and whether the job was executed fresh,
	// coalesced onto an in-flight duplicate, or served from the
	// result cache. Empty against a single-process daemon.
	node   string
	source string
	// endpoint is the base URL that accepted the submission.
	endpoint string
	// periodBits is the optimized period's bit pattern, for the exact
	// determinism cross-check.
	periodBits uint64
	iterations int
	// deadline is the submitted QoS class; winner is the raced variant
	// that decided the job (empty when not racing). Duplicate groups
	// must agree on the winner too — racing is part of the spec, so a
	// deterministic race picks the same variant everywhere.
	deadline bool
	winner   string
}

// loadgen drives the job stream. Workers claim indices from work and
// write only results[idx] — disjoint slots, no lock needed.
type loadgen struct {
	cc           *client.ClusterClient
	spec         serve.JobSpec
	poll         time.Duration
	groups       int
	deadlineFrac float64
	work         chan int
	results      []outcome
}

// isDeadline assigns QoS classes deterministically and interleaved: a
// multiplicative hash of the index spreads the deadline fraction
// evenly through the submission order.
func (lg *loadgen) isDeadline(idx int) bool {
	return lg.deadlineFrac > 0 && (idx*7919)%100 < int(lg.deadlineFrac*100+0.5)
}

func (lg *loadgen) worker(ctx context.Context, done chan<- struct{}) {
	for idx := range lg.work {
		// Each index arrives over the unbuffered work channel to
		// exactly one worker, so results slots are disjoint per job.
		lg.results[idx] = lg.runJob(ctx, idx)
	}
	done <- struct{}{}
}

// runJob submits one job (the cluster client absorbs 429s with
// backoff and rotates endpoints) and waits for its terminal state.
func (lg *loadgen) runJob(ctx context.Context, idx int) outcome {
	spec := lg.spec
	spec.Seed = int64(idx%lg.groups) + 1
	if lg.isDeadline(idx) {
		spec.QoS = serve.QoSDeadline
	}
	out := outcome{seed: spec.Seed, deadline: spec.QoS == serve.QoSDeadline}
	t0 := time.Now()
	fin, ep, err := lg.cc.Run(ctx, spec, lg.poll)
	out.latency = time.Since(t0)
	if ep != nil {
		out.endpoint = ep.BaseURL
	}
	if err != nil {
		out.state = serve.StateFailed
		out.err = err.Error()
		return out
	}
	out.state = fin.State
	out.err = fin.Error
	out.node = fin.Node
	out.source = fin.Source
	if fin.Result != nil {
		out.periodBits = math.Float64bits(fin.Result.OptimizedPeriod)
		out.iterations = fin.Result.Iterations
		out.winner = fin.Result.RaceWinner
	}
	return out
}

// report prints the summary and returns false on failures or broken
// determinism.
func report(results []outcome, wall time.Duration) bool {
	var completed, failed, cancelled int
	var lats []float64
	byNode := make(map[string][]float64)
	byClass := make(map[string][]float64)
	bySource := make(map[string]int)
	for i := range results {
		r := &results[i]
		switch r.state {
		case serve.StateDone:
			completed++
			lats = append(lats, r.latency.Seconds())
			node := r.node
			if node == "" {
				node = r.endpoint
			}
			byNode[node] = append(byNode[node], r.latency.Seconds())
			class := "best-effort"
			if r.deadline {
				class = "deadline"
			}
			byClass[class] = append(byClass[class], r.latency.Seconds())
			if r.source != "" {
				bySource[r.source]++
			}
		case serve.StateCancelled:
			cancelled++
		default:
			failed++
		}
	}
	fmt.Printf("jobs: %d total, %d completed, %d cancelled, %d failed\n",
		len(results), completed, cancelled, failed)
	fmt.Printf("wall: %.2fs, throughput %.2f jobs/s\n",
		wall.Seconds(), float64(completed)/wall.Seconds())
	if len(lats) > 0 {
		sort.Float64s(lats)
		fmt.Printf("latency: %s\n", latLine(lats))
	}
	// Per-QoS-class percentiles: only printed for a mixed load, where
	// the deadline class's p99 is the scheduler's headline number.
	if len(byClass) > 1 {
		for _, class := range []string{"deadline", "best-effort"} {
			ls := byClass[class]
			if len(ls) == 0 {
				continue
			}
			sort.Float64s(ls)
			fmt.Printf("  class %-12s %3d jobs  %s\n", class, len(ls), latLine(ls))
		}
	}
	// Per-node percentiles: sorted node names for a stable report.
	if len(byNode) > 1 || (len(byNode) == 1 && anyNode(byNode) != "") {
		nodes := make([]string, 0, len(byNode))
		for node := range byNode {
			nodes = append(nodes, node)
		}
		sort.Strings(nodes)
		for _, node := range nodes {
			ls := byNode[node]
			sort.Float64s(ls)
			name := node
			if name == "" {
				name = "(unknown)"
			}
			fmt.Printf("  node %-12s %3d jobs  %s\n", name, len(ls), latLine(ls))
		}
	}
	// Cache effectiveness: only meaningful against a cluster (sources
	// are set by the cluster layer).
	if len(bySource) > 0 {
		hits := bySource["cache"] + bySource["coalesced"]
		fmt.Printf("dedup: %d executed, %d coalesced, %d cache hits — hit rate %.0f%%\n",
			bySource["executed"]+bySource["forwarded"], bySource["coalesced"], bySource["cache"],
			100*float64(hits)/float64(completed))
	}
	for i := range results {
		if results[i].state == serve.StateFailed {
			fmt.Printf("  FAILED job %d (seed %d): %s\n", i, results[i].seed, results[i].err)
		}
	}
	ok := failed == 0
	// Determinism cross-check per duplicate group: every completed job
	// with the same seed ran the identical spec, so each must report
	// the bit-identical optimized period and iteration count — whether
	// it executed, coalesced, or came from the cache on any node.
	type ref struct {
		bits   uint64
		iters  int
		winner string
		have   bool
	}
	refs := make(map[int64]*ref)
	mismatches, checked := 0, 0
	for i := range results {
		r := &results[i]
		if r.state != serve.StateDone {
			continue
		}
		g := refs[r.seed]
		if g == nil {
			g = &ref{}
			refs[r.seed] = g
		}
		if !g.have {
			g.bits, g.iters, g.winner, g.have = r.periodBits, r.iterations, r.winner, true
			continue
		}
		checked++
		if r.periodBits != g.bits || r.iterations != g.iters {
			mismatches++
			fmt.Printf("  MISMATCH job %d (seed %d): period bits %x vs %x\n",
				i, r.seed, r.periodBits, g.bits)
		}
		// Raced duplicates must also agree on which variant won: the
		// race decision is a function of the spec, not of finish order.
		if r.winner != g.winner {
			mismatches++
			fmt.Printf("  MISMATCH job %d (seed %d): race winner %q vs %q\n",
				i, r.seed, r.winner, g.winner)
		}
	}
	if mismatches > 0 {
		fmt.Printf("DETERMINISM VIOLATION: %d job(s) disagree with their duplicate group\n", mismatches)
		ok = false
	} else if checked > 0 {
		fmt.Printf("determinism: %d duplicate jobs across %d groups, bit-identical results\n",
			checked, len(refs))
	}
	return ok
}

// latLine formats the standard percentile line for sorted seconds.
func latLine(sorted []float64) string {
	mean := 0.0
	for _, l := range sorted {
		mean += l
	}
	mean /= float64(len(sorted))
	return fmt.Sprintf("mean %.0fms  p50 %.0fms  p90 %.0fms  p99 %.0fms  max %.0fms",
		mean*1e3, pctl(sorted, 50)*1e3, pctl(sorted, 90)*1e3, pctl(sorted, 99)*1e3,
		sorted[len(sorted)-1]*1e3)
}

// anyNode returns the single map key (helper for the one-node case).
func anyNode(m map[string][]float64) string {
	for k := range m {
		return k
	}
	return ""
}

// pctl returns the p-th percentile (nearest-rank) of sorted values.
func pctl(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
