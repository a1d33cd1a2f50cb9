package serve

import (
	"math"
	"sync/atomic"
)

// atomicFloat accumulates float64 seconds across workers.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// counters are the manager's monotonic event counts and gauges,
// surfaced expvar-style at /debug/vars.
type counters struct {
	accepted      atomic.Int64
	rejectedFull  atomic.Int64
	rejectedDrain atomic.Int64
	completed     atomic.Int64
	failed        atomic.Int64
	cancelled     atomic.Int64
	panics        atomic.Int64
	running       atomic.Int64
	engineSeconds atomicFloat
	embedSeconds  atomicFloat
	// Node-memo hit and miss counters and replayed iterations,
	// accumulated from completed jobs' engine telemetry.
	frontierHits   atomic.Int64
	frontierMisses atomic.Int64
	replays        atomic.Int64
	// Racing and QoS counters: raced jobs run, losing variants
	// cancelled before they finished, and deadline-class admissions.
	races            atomic.Int64
	raceCancelled    atomic.Int64
	deadlineAccepted atomic.Int64
}

// CounterSnapshot is a point-in-time view of the manager's counters.
type CounterSnapshot struct {
	JobsAccepted      int64 `json:"jobs_accepted"`
	JobsRejectedFull  int64 `json:"jobs_rejected_queue_full"`
	JobsRejectedDrain int64 `json:"jobs_rejected_draining"`
	JobsCompleted     int64 `json:"jobs_completed"`
	JobsFailed        int64 `json:"jobs_failed"`
	JobsCancelled     int64 `json:"jobs_cancelled"`
	JobPanics         int64 `json:"job_panics"`
	WorkersBusy       int64 `json:"workers_busy"`
	Workers           int   `json:"workers"`
	QueueDepth        int   `json:"queue_depth"`
	QueueCapacity     int   `json:"queue_capacity"`
	// Cumulative engine wall seconds and embed-phase seconds across
	// completed jobs: the live view of where the service spends time.
	EngineSeconds float64 `json:"engine_seconds"`
	EmbedSeconds  float64 `json:"embed_seconds"`
	// Node-memo hits and misses (non-root DP nodes served and
	// computed) across completed jobs.
	FrontierHits   int64 `json:"frontier_hits"`
	FrontierMisses int64 `json:"frontier_misses"`
	// Engine iterations replayed across completed jobs.
	Replays int64 `json:"replays"`
	// Racing and QoS: raced jobs run, losing variants cancelled before
	// finishing (the racing latency win), deadline-class admissions.
	Races               int64 `json:"races"`
	RaceLosersCancelled int64 `json:"race_losers_cancelled"`
	JobsDeadline        int64 `json:"jobs_deadline"`
}

// Counters snapshots the manager's counters.
func (m *Manager) Counters() CounterSnapshot {
	return CounterSnapshot{
		JobsAccepted:        m.c.accepted.Load(),
		JobsRejectedFull:    m.c.rejectedFull.Load(),
		JobsRejectedDrain:   m.c.rejectedDrain.Load(),
		JobsCompleted:       m.c.completed.Load(),
		JobsFailed:          m.c.failed.Load(),
		JobsCancelled:       m.c.cancelled.Load(),
		JobPanics:           m.c.panics.Load(),
		WorkersBusy:         m.c.running.Load(),
		Workers:             m.cfg.Workers,
		QueueDepth:          m.QueueDepth(),
		QueueCapacity:       m.cfg.QueueDepth,
		EngineSeconds:       m.c.engineSeconds.load(),
		EmbedSeconds:        m.c.embedSeconds.load(),
		FrontierHits:        m.c.frontierHits.Load(),
		FrontierMisses:      m.c.frontierMisses.Load(),
		Replays:             m.c.replays.Load(),
		Races:               m.c.races.Load(),
		RaceLosersCancelled: m.c.raceCancelled.Load(),
		JobsDeadline:        m.c.deadlineAccepted.Load(),
	}
}
