// Package serve turns the replication engine into a long-running
// service: a bounded FIFO job queue feeding a worker pool, with
// per-job timeouts, cooperative cancellation threaded down into the
// engine/embedder/STA, panic isolation, graceful drain, and
// expvar-style introspection. cmd/repld is the HTTP front end;
// internal/serve/client and cmd/replload drive it.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/netlist"
)

// JobSpec describes one replication job. Exactly one of Circuit (a
// synthetic suite circuit by name) or Netlist (inline text-format
// netlist) selects the design; the rest tune the flow. The zero value
// of every optional field selects a sane default, so a minimal job is
// {"circuit":"ex5p"}.
type JobSpec struct {
	// Circuit names a synthetic suite circuit (circuits.ByName).
	Circuit string `json:"circuit,omitempty"`
	// Scale multiplies the suite circuit size (default 0.2; ignored
	// with Netlist).
	Scale float64 `json:"scale,omitempty"`
	// Netlist is an inline netlist in the package text format.
	Netlist string `json:"netlist,omitempty"`
	// Algo is the optimization algorithm, in the shared
	// flow.ParseAlgorithm vocabulary (default "rt").
	Algo string `json:"algo,omitempty"`
	// Seed drives placement (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Effort is the placer annealing effort (default 2).
	Effort float64 `json:"effort,omitempty"`
	// MaxIters caps engine iterations (default: engine default).
	MaxIters int `json:"max_iters,omitempty"`
	// Parallelism bounds the embedder's workers (default: all CPUs).
	Parallelism int `json:"parallelism,omitempty"`
	// Route runs the low-stress router after optimization.
	Route bool `json:"route,omitempty"`
	// TimeoutMS caps the job's run time; 0 uses the manager default.
	TimeoutMS int `json:"timeout_ms,omitempty"`

	// RaceVariants lists the engine variants to race when Algo is
	// AlgoRace (default: every flow.EngineAlgorithms variant). Order,
	// case, and duplicates are irrelevant — Normalized folds the list
	// into canonical racing order, so two raced specs differing only in
	// list order hash identically in the cluster layer.
	RaceVariants []string `json:"race_variants,omitempty"`
	// PeriodBound is the racing target (AlgoRace only): the earliest
	// canonical-order variant whose optimized period meets the bound
	// wins. 0 means unbounded — every variant runs and the best period
	// wins (ties go to canonical order).
	PeriodBound float64 `json:"period_bound,omitempty"`
	// QoS selects the scheduling class: QoSDeadline jobs are scheduled
	// ahead of QoSBestEffort ones (with a bounded bypass count so
	// best-effort jobs cannot starve). Scheduling-only: it never
	// changes what a job computes, so the cluster layer excludes it
	// from the content hash.
	QoS string `json:"qos,omitempty"`
}

// AlgoRace is the JobSpec.Algo value selecting speculative
// multi-variant racing.
const AlgoRace = "race"

// QoS class names accepted in JobSpec.QoS. Empty means best-effort.
const (
	QoSBestEffort = "best-effort"
	QoSDeadline   = "deadline"
)

// IsRace reports whether the spec requests speculative racing.
func (s *JobSpec) IsRace() bool {
	return strings.EqualFold(s.Algo, AlgoRace)
}

// Deadline reports whether the spec is in the deadline QoS class.
func (s *JobSpec) Deadline() bool {
	return strings.EqualFold(s.QoS, QoSDeadline)
}

// maxInlineNetlist bounds inline netlist text (16 MiB, matching the
// parser's line-buffer cap) so a single request cannot exhaust memory.
const maxInlineNetlist = 16 << 20

// maxEffort caps the placer effort at 10× VPR's default of 10. The
// annealer converts effort·n^(4/3) to an int moves-per-temperature
// count, and an out-of-range conversion is implementation-defined in
// Go (amd64 yields math.MinInt64, which the annealer's floor turns into
// 32 moves), so an unbounded effort could serve different results for
// one content hash on nodes of different architectures.
const maxEffort = 100.0

// ErrEffortRange rejects a spec whose effort exceeds maxEffort or is
// NaN.
var ErrEffortRange = errors.New("serve: effort out of range")

// Normalized returns the spec with every semantic default applied:
// the canonical algorithm spelling, seed 1, the service effort and
// scale defaults, and — for inline-netlist jobs — the circuit/scale
// fields cleared (they are ignored on that path). Two valid specs that
// normalize equal produce bit-identical results, which is what the
// cluster layer's content hash keys on; ExecuteJob resolves its
// defaults through here so the two can never drift. Parallelism and
// TimeoutMS are left untouched: they change how fast a job runs, not
// what it computes.
func (s JobSpec) Normalized() JobSpec {
	n := s
	if n.IsRace() {
		n.Algo = AlgoRace
		n.RaceVariants = canonVariants(n.RaceVariants)
	} else {
		if a, ok := flow.ParseAlgorithm(n.Algo); ok {
			n.Algo = flow.CanonicalName(a)
		}
		// Race tuning is meaningless outside racing; clearing it here
		// (rather than hashing it) would let a stray bound alias two
		// different submissions, so Validate rejects it instead and
		// normalization only has to handle the race side.
	}
	n.QoS = strings.ToLower(n.QoS)
	if n.Seed == 0 {
		n.Seed = 1
	}
	//replint:ignore floatcmp -- 0 is the unset JSON field, never a computed effort
	if n.Effort == 0 {
		n.Effort = defaultEffort
	}
	if n.Netlist != "" {
		n.Circuit = ""
		n.Scale = 0
	} else if n.Scale == 0 { //replint:ignore floatcmp -- 0 is the unset JSON field, never a computed scale
		n.Scale = defaultScale
	}
	return n
}

// canonVariants folds a raced variant list into canonical racing
// order: names resolve through flow.ParseAlgorithm, duplicates and
// case variants collapse, and the result follows flow.EngineAlgorithms
// order — the order racing winners are decided in. An empty list
// selects every engine variant. Lists containing empty, unknown, or
// non-engine names come back unchanged for Validate to reject.
func canonVariants(vs []string) []string {
	if len(vs) == 0 {
		return flow.EngineAlgorithmNames()
	}
	have := make(map[flow.Algorithm]bool, len(vs))
	for _, v := range vs {
		a, ok := flow.ParseAlgorithm(v)
		if v == "" || !ok || flow.EngineOrder(a) < 0 {
			return vs
		}
		have[a] = true
	}
	out := make([]string, 0, len(have))
	for _, a := range flow.EngineAlgorithms {
		if have[a] {
			out = append(out, flow.CanonicalName(a))
		}
	}
	return out
}

// DecodeSpec parses one job spec from r, rejecting unknown fields. It
// does not validate — submission does that — but any input, however
// hostile, must come back as an error, never a panic; the fuzz harness
// holds it to that.
func DecodeSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, err
	}
	return spec, nil
}

// Validate rejects malformed specs up front, before the job consumes a
// queue slot.
func (s *JobSpec) Validate() error {
	if (s.Circuit == "") == (s.Netlist == "") {
		return fmt.Errorf("spec needs exactly one of circuit or netlist")
	}
	if s.Circuit != "" {
		if _, ok := circuits.ByName(s.Circuit); !ok {
			return fmt.Errorf("unknown circuit %q", s.Circuit)
		}
	}
	if len(s.Netlist) > maxInlineNetlist {
		return fmt.Errorf("inline netlist exceeds %d bytes", maxInlineNetlist)
	}
	if s.IsRace() {
		for _, v := range s.RaceVariants {
			a, ok := flow.ParseAlgorithm(v)
			if v == "" || !ok || flow.EngineOrder(a) < 0 {
				return fmt.Errorf("race variant %q is not an engine variant (valid: %s)",
					v, strings.Join(flow.EngineAlgorithmNames(), ", "))
			}
		}
		if math.IsNaN(s.PeriodBound) || math.IsInf(s.PeriodBound, 0) || s.PeriodBound < 0 {
			return fmt.Errorf("period bound %v must be finite and non-negative", s.PeriodBound)
		}
	} else {
		if _, ok := flow.ParseAlgorithm(s.Algo); !ok {
			return fmt.Errorf("unknown algorithm %q (valid: %s, %s)",
				s.Algo, strings.Join(flow.AlgorithmNames(), ", "), AlgoRace)
		}
		//replint:ignore floatcmp -- any bound but the unset 0 is rejected here, however small
		if len(s.RaceVariants) > 0 || s.PeriodBound != 0 {
			return fmt.Errorf("race_variants/period_bound require algo %q", AlgoRace)
		}
	}
	switch strings.ToLower(s.QoS) {
	case "", QoSBestEffort, QoSDeadline:
	default:
		return fmt.Errorf("unknown qos %q (valid: %s, %s)", s.QoS, QoSBestEffort, QoSDeadline)
	}
	if s.Scale < 0 || s.Scale > 1 {
		return fmt.Errorf("scale %v out of range (0, 1]", s.Scale)
	}
	if s.TimeoutMS < 0 || s.MaxIters < 0 || s.Parallelism < 0 || s.Effort < 0 {
		return fmt.Errorf("negative tuning field")
	}
	if math.IsNaN(s.Effort) || s.Effort > maxEffort {
		return fmt.Errorf("%w: %v not in [0, %v]", ErrEffortRange, s.Effort, maxEffort)
	}
	if s.Netlist != "" {
		// Parse once at admission so syntax errors come back on the
		// submit response, not as a failed job.
		if _, err := netlist.Read(strings.NewReader(s.Netlist)); err != nil {
			return fmt.Errorf("netlist: %w", err)
		}
	}
	return nil
}

// State is a job's lifecycle state.
type State string

// Job lifecycle: Queued → Running → one of the terminal states
// (Done, Failed, Cancelled). A queued job can go straight to
// Cancelled without running.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Result is a completed job's outcome.
type Result struct {
	Circuit string `json:"circuit"`
	Algo    string `json:"algo"`
	LUTs    int    `json:"luts"`
	IOs     int    `json:"ios"`
	// PlacedPeriod / OptimizedPeriod are the placement-level STA clock
	// periods before and after optimization.
	PlacedPeriod    float64 `json:"placed_period"`
	OptimizedPeriod float64 `json:"optimized_period"`
	Iterations      int     `json:"iterations"`
	Replicated      int     `json:"replicated"`
	Unified         int     `json:"unified"`
	FFRelocations   int     `json:"ff_relocations"`
	StoppedEarly    bool    `json:"stopped_early,omitempty"`
	// Phases is the engine's per-phase wall-clock breakdown.
	Phases core.PhaseTimes `json:"phases"`
	// Incremental is the engine's reuse telemetry: node-memo hits and
	// misses, iterations replayed, and the analyses and trees the run
	// computed.
	Incremental core.IncrementalStats `json:"incremental"`
	// Coarse per-stage seconds for the whole flow.
	PlaceSeconds  float64 `json:"place_seconds"`
	EngineSeconds float64 `json:"engine_seconds"`
	RouteSeconds  float64 `json:"route_seconds,omitempty"`
	// Routing results (Route jobs only).
	RoutedCritPath float64 `json:"routed_crit_path,omitempty"`
	ChannelWidth   int     `json:"channel_width,omitempty"`
	WireLength     int     `json:"wire_length,omitempty"`

	// Race outcome (raced jobs only). RaceWinner is the canonical name
	// of the variant whose result this is, and RaceMetBound reports
	// whether it met the spec's period bound. Both are functions of the
	// per-variant results alone — never of finish order — so they are
	// as bit-reproducible as the rest of the Result.
	RaceWinner   string `json:"race_winner,omitempty"`
	RaceMetBound bool   `json:"race_met_bound,omitempty"`
}

// Status is the externally visible job record, as served at
// GET /v1/jobs/{id}.
type Status struct {
	ID    string  `json:"id"`
	State State   `json:"state"`
	Spec  JobSpec `json:"spec"`
	Error string  `json:"error,omitempty"`
	// Position is the number of same-QoS-class jobs ahead in the queue
	// (queued only); cross-class order depends on the bypass policy.
	Position int `json:"position,omitempty"`

	// SpecHash, Source, and Node are set by the cluster layer
	// (internal/cluster): the job's content address, how this status
	// was satisfied ("executed", "coalesced", "cache", or
	// "forwarded"), and the node that executed it. Empty on a
	// single-process repld.
	SpecHash string `json:"spec_hash,omitempty"`
	Source   string `json:"source,omitempty"`
	Node     string `json:"node,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// QueueSeconds and RunSeconds split the job's latency.
	QueueSeconds float64 `json:"queue_seconds"`
	RunSeconds   float64 `json:"run_seconds,omitempty"`

	Result *Result `json:"result,omitempty"`
}
