// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload (flow, eco or serve) for a fixed time, checks every
// output, and prints its metrics by name and unit, ending with one
// JSON line:
//
//	bash perfbench/run.sh --workload flow --seed 1 --seconds 20 --trace 0
//
// All timings are process CPU seconds (getrusage), not wall-clock, so
// hypervisor steal on a shared host does not show up as a slowdown.
// See README.md in this directory for the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// passResult is what one pass of a workload measured: a fresh set-up
// followed by a fixed, seed-determined sequence of operations.
type passResult struct {
	setupCPU float64
	ops      []opSample
	wall     float64 // pass wall seconds, set-up included
	steal    float64
	// ratios holds optimized/starting clock period, one per
	// optimization; period_ratio is their geometric mean.
	ratios []float64
	// exact lists every value that must repeat bit for bit on every
	// pass of the same seed; a difference means a broken benchmark.
	exact []string
	// counts are per-layer counters and non-time measures of the pass.
	counts map[string]float64
	spans  []span
}

// workload runs one pass of a traffic mix: set-up, then operations.
type workload func(m *meter, seed int64) (*passResult, error)

var workloads = map[string]workload{
	"flow":  flowPass,
	"eco":   ecoPass,
	"serve": servePass,
}

// suiteSeed fixes the designs every workload runs; the workload seed
// draws what varies from run to run (order, edits, request stream).
const suiteSeed = 1

// Passes per run: at least minPasses (one untraced and one traced
// pass in a traced run), more while the requested seconds last, and
// none started past hardStop.
const (
	minPasses = 2
	hardStop  = 120 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload: flow, eco or serve")
	seed := flag.Int64("seed", 1, "workload seed; equal seeds give equal inputs")
	seconds := flag.Float64("seconds", 20, "measuring time")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (flow, eco, serve)\n", *name)
		os.Exit(2)
	}
	if err := run(*name, w, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, w workload, seed int64, seconds float64, traced bool) error {
	start := time.Now()
	budget := time.Duration(seconds * float64(time.Second))
	var plain, withTrace []*passResult
	for {
		// A traced run alternates untraced and traced passes so the
		// tracing overhead is measured on the same inputs.
		useTrace := traced && len(withTrace) < len(plain)
		m := newMeter(useTrace)
		t0 := readTicks()
		res, err := w(m, seed)
		if err != nil {
			done := 0
			for _, p := range append(plain, withTrace...) {
				done += len(p.ops)
			}
			printResult(false, done+1, 1, nil)
			return fmt.Errorf("%s pass %d: %w", name, len(plain)+len(withTrace)+1, err)
		}
		res.wall = time.Since(m.origin.wall).Seconds()
		res.steal = stealFrac(t0, readTicks())
		res.spans = m.spans
		if useTrace {
			withTrace = append(withTrace, res)
		} else {
			plain = append(plain, res)
		}
		enough := len(plain) >= minPasses
		if traced {
			enough = len(withTrace) >= 1
		}
		elapsed := time.Since(start)
		if (enough && elapsed >= budget) || elapsed >= hardStop {
			break
		}
	}
	all := append(append([]*passResult(nil), plain...), withTrace...)
	attempted := 0
	for _, p := range all {
		attempted += len(p.ops)
	}
	h := host()
	fmt.Printf("perfbench workload=%s seed=%d trace=%v passes=%d+%d ops/pass=%d\n",
		name, seed, traced, len(plain), len(withTrace), len(plain[0].ops))
	fmt.Printf("host gomaxprocs=%d nproc=%d cpu=%q go=%s host.steal_frac=%.4f host.pass_wall_s=%.3f\n",
		h.GOMAXPROCS, h.NumCPU, h.CPUModel, h.GoVersion,
		median(collect(all, func(p *passResult) float64 { return p.steal })),
		median(collect(all, func(p *passResult) float64 { return p.wall })))

	// Determinism guard: every pass ran the same inputs, so the exact
	// values must agree bit for bit.
	digest := fingerprint(all[0])
	for i, p := range all[1:] {
		if d := fingerprint(p); d != digest {
			printResult(false, attempted, 0, nil)
			return fmt.Errorf("broken benchmark: pass %d exact values differ from pass 1 (%s vs %s): %s",
				i+2, d[:12], digest[:12], firstDiff(all[0].exact, p.exact))
		}
	}
	fmt.Printf("exact sha256=%s values=%d period_ratio=%s\n", digest, len(all[0].exact),
		fmtExact(geomean(all[0].ratios)))

	metrics := map[string]metric{}
	if !traced {
		endToEnd(metrics, plain)
	} else {
		if err := perLayer(metrics, name, plain, withTrace); err != nil {
			printResult(false, attempted, 0, nil)
			return err
		}
		writeTrace(name, seed, withTrace)
	}
	for _, k := range sortedKeys(metrics) {
		fmt.Printf("metric %-28s %.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	printResult(true, attempted, 0, metrics)
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd fills the gated metrics: medians over passes.
func endToEnd(out map[string]metric, passes []*passResult) {
	cpu := collect(passes, func(p *passResult) float64 { return sumCPU(p.ops) })
	p50 := collect(passes, func(p *passResult) float64 { return percentile(opCPUs(p.ops), 50) })
	p90 := collect(passes, func(p *passResult) float64 { return percentile(opCPUs(p.ops), 90) })
	setup := collect(passes, func(p *passResult) float64 { return p.setupCPU })
	out["cpu_s"] = metric{median(cpu), "s"}
	out["op_p50_ms"] = metric{1000 * median(p50), "ms"}
	out["op_p90_ms"] = metric{1000 * median(p90), "ms"}
	out["period_ratio"] = metric{geomean(passes[0].ratios), "ratio"}
	out["setup_s"] = metric{median(setup), "s"}
	out["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
}

// layerTimes maps per-layer metric names to the span whose time they
// report; inclusive spans count their children, the rest report self
// time only.
var layerTimes = []struct {
	metric, span string
	inclusive    bool
}{
	{"core.run_s", "core.run", true},
	{"core.analyze_s", "core.analyze", false},
	{"core.extract_s", "core.extract", false},
	{"core.embed_s", "core.embed", false},
	{"core.apply_s", "core.apply", false},
	{"core.legalize_s", "core.legalize", false},
	{"core.unattributed_s", "core.run", false},
	{"place.anneal_s", "place.anneal", false},
	{"route.infinite_s", "route.infinite", false},
	{"route.lowstress_s", "route.lowstress", false},
	{"circuits.generate_s", "circuits.generate", false},
	{"timing.sta_s", "timing.sta", false},
}

// counterUnits names every per-layer counter a workload may report;
// workloads that do not exercise a layer report 0.
var counterUnits = map[string]string{
	"core.iterations":             "count",
	"core.replicated":             "count",
	"core.unified":                "count",
	"embed.frontier_hit_frac":     "frac",
	"timing.sta_incremental_frac": "frac",
	"timing.sta_fallbacks":        "count",
	"timing.spt_reuse_frac":       "frac",
	"cluster.cache_hits":          "count",
	"cluster.executed":            "count",
	"cluster.coalesced":           "count",
	"cluster.forwarded":           "count",
	"cluster.quorum_reads":        "count",
	"cluster.quorum_writes":       "count",
	"cluster.read_repairs":        "count",
	"serve.polls":                 "count",
	"serve.queue_ms":              "ms",
	"serve.run_ms":                "ms",
}

// perLayer fills the traced run's metrics from the spans of the traced
// passes (medians over passes) and checks that the per-layer self
// times close on the operations' time.
func perLayer(out map[string]metric, name string, plain, traced []*passResult) error {
	type passLayers struct {
		incl, self map[string]float64
		opTime     float64
	}
	var per []passLayers
	for _, p := range traced {
		self := selfTimes(p.spans, false)
		incl := map[string]float64{}
		opTime := 0.0
		for i := range p.spans {
			s := &p.spans[i]
			if s.Op == 0 {
				continue
			}
			incl[s.Name] += s.cpu()
			if s.Parent < 0 {
				opTime += s.cpu()
			}
		}
		var sum float64
		for _, v := range self {
			sum += v
		}
		if math.Abs(sum-opTime) > 1e-9*math.Max(1, opTime) {
			return fmt.Errorf("layer closure: self times sum to %v s, operations took %v s", sum, opTime)
		}
		per = append(per, passLayers{incl: incl, self: self, opTime: opTime})
	}
	med := func(f func(passLayers) float64) float64 {
		v := make([]float64, len(per))
		for i, p := range per {
			v[i] = f(p)
		}
		return median(v)
	}
	for _, lt := range layerTimes {
		out[lt.metric] = metric{med(func(p passLayers) float64 {
			if lt.inclusive {
				return p.incl[lt.span]
			}
			return p.self[lt.span]
		}), "s"}
	}
	for k, unit := range counterUnits {
		out[k] = metric{median(collect(traced, func(p *passResult) float64 { return p.counts[k] })), unit}
	}
	// Time no layer accounts for: the operations' own glue between
	// calls plus the engine time outside its five phases.
	unattributed := med(func(p passLayers) float64 {
		if p.opTime == 0 {
			return 0
		}
		return (p.self["op"] + p.self["core.run"]) / p.opTime
	})
	out["unattributed_frac"] = metric{unattributed, "frac"}
	fmt.Printf("%s.unattributed %.4f of operation CPU (op glue %.6f s, engine outside phases %.6f s, operations %.3f s)\n",
		name, unattributed, med(func(p passLayers) float64 { return p.self["op"] }),
		med(func(p passLayers) float64 { return p.self["core.run"] }), med(func(p passLayers) float64 { return p.opTime }))
	setup := selfTimes(traced[0].spans, true)
	var parts []string
	for _, k := range sortedKeys(setup) {
		parts = append(parts, fmt.Sprintf("%s=%.4f", k, setup[k]))
	}
	fmt.Printf("setup self-time split (first traced pass, s): %s\n", strings.Join(parts, " "))
	share := med(func(p passLayers) float64 {
		d := p.self["place.anneal"] + p.self["route.infinite"] + p.self["route.lowstress"]
		if d == 0 {
			return 0
		}
		return p.incl["core.run"] / d
	})
	out["flow.engine_share"] = metric{share, "ratio"}
	out["runtime.alloc_mb"] = metric{median(collect(traced, func(p *passResult) float64 {
		var b uint64
		for _, o := range p.ops {
			b += o.allocBytes
		}
		return float64(b) / (1 << 20)
	})), "MB"}
	out["runtime.gc_cycles"] = metric{median(collect(traced, func(p *passResult) float64 {
		var n uint64
		for _, o := range p.ops {
			n += o.gcCycles
		}
		return float64(n)
	})), "count"}
	all := append(append([]*passResult(nil), plain...), traced...)
	out["host.pass_wall_s"] = metric{median(collect(all, func(p *passResult) float64 { return p.wall })), "s"}
	out["host.steal_frac"] = metric{median(collect(all, func(p *passResult) float64 { return p.steal })), "frac"}
	cpuPlain := median(collect(plain, func(p *passResult) float64 { return sumCPU(p.ops) }))
	cpuTraced := median(collect(traced, func(p *passResult) float64 { return sumCPU(p.ops) }))
	out["trace.overhead_frac"] = metric{cpuTraced/cpuPlain - 1, "frac"}
	out["failed_ratio"] = metric{0, "frac"}
	return nil
}

// writeTrace writes the traced passes' spans under .bench_build in the
// current directory (the checkout root).
func writeTrace(name string, seed int64, traced []*passResult) {
	dir := filepath.Join(".bench_build", "perfbench", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: trace not written:", err)
		return
	}
	doc := make([][]span, len(traced))
	for i, p := range traced {
		doc[i] = p.spans
	}
	data, err := json.Marshal(doc)
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: trace not written:", err)
		return
	}
	fmt.Printf("trace %s (%d passes)\n", path, len(traced))
}

// printResult prints the final JSON line.
func printResult(correct bool, attempted, failed int, metrics map[string]metric) {
	if metrics == nil {
		metrics = map[string]metric{}
	}
	if attempted < 1 {
		attempted = 1
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, metrics})
	fmt.Println(string(line))
}

func fingerprint(p *passResult) string {
	sum := sha256.Sum256([]byte(strings.Join(p.exact, "\n")))
	return fmt.Sprintf("%x", sum)
}

func firstDiff(a, b []string) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("%q vs %q", a[i], b[i])
		}
	}
	return fmt.Sprintf("%d vs %d values", len(a), len(b))
}

// fmtExact prints a float with its bit pattern, for values that must
// repeat exactly.
func fmtExact(v float64) string {
	return fmt.Sprintf("%v[%016x]", v, math.Float64bits(v))
}
