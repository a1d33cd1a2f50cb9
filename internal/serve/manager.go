package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// Submission errors, mapped to HTTP statuses by the server layer.
var (
	// ErrQueueFull is backpressure: the bounded queue has no free slot
	// (HTTP 429).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining means the manager is shutting down and no longer
	// accepts work (HTTP 503).
	ErrDraining = errors.New("serve: draining, not accepting jobs")
	// ErrNotFound means no job has the requested ID (HTTP 404).
	ErrNotFound = errors.New("serve: no such job")
)

// Runner executes one job under a context. The default is ExecuteJob;
// tests substitute stubs (slow, panicking, failing) to exercise the
// manager in isolation.
type Runner func(ctx context.Context, spec JobSpec) (*Result, error)

// Config tunes a Manager. Zero values select the defaults noted.
type Config struct {
	// Workers is the concurrent job limit (default 2).
	Workers int
	// QueueDepth bounds the jobs waiting to run (default 64). A full
	// queue rejects submissions with ErrQueueFull.
	QueueDepth int
	// DefaultTimeout applies to jobs that do not set TimeoutMS
	// (default 10 minutes). MaxTimeout caps what a job may request
	// (default 30 minutes).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBypass bounds best-effort starvation: at most MaxBypass
	// consecutive deadline jobs may be scheduled past a waiting
	// best-effort job before the best-effort head runs (default 4).
	MaxBypass int
	// Runner executes jobs (default ExecuteJob). Raced jobs fan out
	// through the same Runner once per variant, so a test Runner seam
	// covers the race path too.
	Runner Runner
	// Clock overrides the manager's time source (default time.Now) so
	// scheduler tests can drive timestamps with a fake clock.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Minute
	}
	if c.MaxBypass <= 0 {
		c.MaxBypass = 4
	}
	if c.Runner == nil {
		c.Runner = ExecuteJob
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// job is the manager's internal record. All mutable fields are guarded
// by the owning Manager's mu; the snapshot under the same lock is what
// leaves the package.
type job struct {
	id   string
	spec JobSpec

	state      State
	err        string
	result     *Result
	submitted  time.Time
	started    time.Time
	finished   time.Time
	cancelRun  context.CancelFunc // non-nil while running
	userCancel bool
	done       chan struct{} // closed on reaching a terminal state
}

// Manager owns the bounded job queue and worker pool. The queue is two
// FIFOs — deadline-class and best-effort — drained under a bounded-
// bypass policy: deadline jobs go first, but after MaxBypass
// consecutive deadline pops past a waiting best-effort job, the
// best-effort head runs. Within a class, order is strictly FIFO.
type Manager struct {
	cfg Config

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond // signalled on enqueue and on drain start
	jobs     map[string]*job
	order    []string // submission order, for stable listings
	queued   []string // FIFO of not-yet-started job IDs, for positions
	seq      int
	draining bool

	queueD []*job // deadline-class FIFO
	queueB []*job // best-effort FIFO
	bypass int    // deadline pops since the best-effort head last ran

	wg sync.WaitGroup

	c counters
}

// NewManager builds a manager and starts its workers.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
	}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		// Each worker executes only jobs it alone dequeued under m.mu;
		// a job's netlist is cloned inside that job's execution and is
		// never shared across workers.
		go m.worker()
	}
	return m
}

// Submit validates and enqueues a job, returning its initial status.
// A full queue fails with ErrQueueFull without mutating anything; a
// draining manager fails with ErrDraining.
func (m *Manager) Submit(spec JobSpec) (Status, error) {
	if err := spec.Validate(); err != nil {
		return Status{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		m.c.rejectedDrain.Add(1)
		return Status{}, ErrDraining
	}
	// Admission is one shared bound across both QoS classes — a
	// deadline flood still hits ErrQueueFull at the same depth the
	// pre-QoS single queue did.
	if len(m.queueD)+len(m.queueB) >= m.cfg.QueueDepth {
		m.c.rejectedFull.Add(1)
		return Status{}, ErrQueueFull
	}
	m.seq++
	j := &job{
		id:        fmt.Sprintf("j%06d", m.seq),
		spec:      spec,
		state:     StateQueued,
		submitted: m.cfg.Clock(),
		done:      make(chan struct{}),
	}
	if j.spec.Deadline() {
		m.queueD = append(m.queueD, j)
		m.c.deadlineAccepted.Add(1)
	} else {
		m.queueB = append(m.queueB, j)
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.queued = append(m.queued, j.id)
	m.c.accepted.Add(1)
	m.cond.Signal()
	return m.statusLocked(j), nil
}

// Get returns a job's status.
func (m *Manager) Get(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return m.statusLocked(j), nil
}

// List returns every job's status in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.statusLocked(m.jobs[id]))
	}
	return out
}

// Cancel requests cancellation: a queued job is finalized as cancelled
// immediately (the worker skips it when popped); a running job has its
// context cancelled and reaches the cancelled state when the engine
// unwinds. Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	switch j.state {
	case StateQueued:
		j.userCancel = true
		m.finalizeLocked(j, StateCancelled, "cancelled before start")
	case StateRunning:
		j.userCancel = true
		if j.cancelRun != nil {
			j.cancelRun()
		}
	}
	return m.statusLocked(j), nil
}

// Wait blocks until the job reaches a terminal state or ctx is done.
func (m *Manager) Wait(ctx context.Context, id string) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, ErrNotFound
	}
	select {
	case <-j.done:
		return m.Get(id)
	case <-ctx.Done():
		return Status{}, ctx.Err()
	}
}

// Draining reports whether Shutdown has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Shutdown drains the manager: new submissions are rejected, queued
// and running jobs get until ctx is done to finish, then their
// contexts are cancelled and the remaining queue entries are finalized
// as cancelled. It returns once every worker has exited, so no job
// goroutine survives the call.
func (m *Manager) Shutdown(ctx context.Context) {
	m.mu.Lock()
	m.draining = true
	// Wake every idle worker: they drain the remaining queue entries,
	// then exit on the empty-while-draining condition.
	m.cond.Broadcast()
	m.mu.Unlock()

	workersDone := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(workersDone)
	}()
	select {
	case <-workersDone:
	case <-ctx.Done():
		// Out of patience: cancel every running job's context (they
		// all derive from baseCtx) and wait for the unwind, which is
		// prompt because cancellation is threaded into the engine.
		m.baseCancel()
		<-workersDone
	}
	m.baseCancel()
}

// worker pulls scheduled jobs until the manager drains empty. Jobs
// popped after the base context died (drain deadline passed) are
// finalized as cancelled without running.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j := m.nextJob()
		if j == nil {
			return
		}
		m.runOne(j)
	}
}

// nextJob blocks until the scheduler yields a job; nil means the
// manager is draining and both queues are empty.
func (m *Manager) nextJob() *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	//replint:ignore ctxstride -- worker parking loop: woken by Submit's Signal or Shutdown's draining+Broadcast, the manager's lifecycle events; there is no per-job ctx to poll here
	for {
		if j := m.popLocked(); j != nil {
			return j
		}
		if m.draining {
			return nil
		}
		m.cond.Wait()
	}
}

// popLocked applies the QoS policy to the two FIFOs: deadline first,
// except that once the waiting best-effort head has been bypassed
// MaxBypass consecutive times it runs next regardless. Caller holds mu.
func (m *Manager) popLocked() *job {
	if len(m.queueD) > 0 && (len(m.queueB) == 0 || m.bypass < m.cfg.MaxBypass) {
		j := m.queueD[0]
		m.queueD[0] = nil // drop the backing-array reference
		m.queueD = m.queueD[1:]
		if len(m.queueB) > 0 {
			m.bypass++ // the best-effort head waited through this pop
		}
		return j
	}
	if len(m.queueB) > 0 {
		j := m.queueB[0]
		m.queueB[0] = nil
		m.queueB = m.queueB[1:]
		m.bypass = 0 // the head ran; the next one starts a fresh count
		return j
	}
	return nil
}

// runOne moves one job queued → running → terminal, isolating panics.
func (m *Manager) runOne(j *job) {
	m.mu.Lock()
	if j.state != StateQueued {
		// Cancelled while waiting; already finalized.
		m.mu.Unlock()
		return
	}
	if m.baseCtx.Err() != nil {
		m.finalizeLocked(j, StateCancelled, "server shutting down")
		m.mu.Unlock()
		return
	}
	timeout := m.cfg.DefaultTimeout
	if j.spec.TimeoutMS > 0 {
		timeout = time.Duration(j.spec.TimeoutMS) * time.Millisecond
	}
	if timeout > m.cfg.MaxTimeout {
		timeout = m.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(m.baseCtx, timeout)
	j.state = StateRunning
	j.started = m.cfg.Clock()
	j.cancelRun = cancel
	m.dequeueLocked(j.id)
	m.c.running.Add(1)
	m.mu.Unlock()
	defer cancel()

	res, err := m.runProtected(ctx, j.spec)

	m.mu.Lock()
	defer m.mu.Unlock()
	m.c.running.Add(-1)
	switch {
	case err == nil:
		j.result = res
		if res != nil {
			m.c.engineSeconds.add(res.EngineSeconds)
			m.c.embedSeconds.add(res.Phases.Embed)
			inc := &res.Incremental
			m.c.staUpdates.Add(int64(inc.STAUpdates))
			m.c.staFullRuns.Add(int64(inc.STAFullRuns))
			m.c.staCells.Add(int64(inc.STACellsForward + inc.STACellsBackward))
			m.c.sptPatches.Add(int64(inc.SPTPatches))
			m.c.sptRebuilds.Add(int64(inc.SPTRebuilds))
			m.c.frontierHits.Add(int64(inc.FrontierHits))
			m.c.frontierMisses.Add(int64(inc.FrontierMisses))
		}
		m.finalizeLocked(j, StateDone, "")
	case errors.Is(err, context.DeadlineExceeded) && !j.userCancel:
		m.finalizeLocked(j, StateCancelled, fmt.Sprintf("timed out after %v", timeout))
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		m.finalizeLocked(j, StateCancelled, "cancelled")
	default:
		m.finalizeLocked(j, StateFailed, err.Error())
	}
}

// runProtected invokes the runner with panic isolation: a panicking
// job fails with the panic value and stack instead of killing the
// process — one malformed design must not take down the daemon. Raced
// jobs route through the speculative layer, fanning the same Runner
// out once per variant.
func (m *Manager) runProtected(ctx context.Context, spec JobSpec) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.c.panics.Add(1)
			err = fmt.Errorf("job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	if spec.IsRace() {
		m.c.races.Add(1)
		return raceRun(ctx, spec, m.cfg.Runner, &m.c)
	}
	return m.cfg.Runner(ctx, spec)
}

// finalizeLocked moves a job to a terminal state. Caller holds mu.
func (m *Manager) finalizeLocked(j *job, s State, errMsg string) {
	if j.state.Terminal() {
		return
	}
	if j.state == StateQueued {
		m.dequeueLocked(j.id)
	}
	j.state = s
	j.err = errMsg
	j.finished = m.cfg.Clock()
	if j.started.IsZero() {
		j.started = j.finished
	}
	switch s {
	case StateDone:
		m.c.completed.Add(1)
	case StateFailed:
		m.c.failed.Add(1)
	case StateCancelled:
		m.c.cancelled.Add(1)
	}
	close(j.done)
}

// dequeueLocked removes one ID from the queued-position list.
func (m *Manager) dequeueLocked(id string) {
	for i, q := range m.queued {
		if q == id {
			m.queued = append(m.queued[:i], m.queued[i+1:]...)
			return
		}
	}
}

// statusLocked snapshots a job. Caller holds mu.
func (m *Manager) statusLocked(j *job) Status {
	st := Status{
		ID:          j.id,
		State:       j.state,
		Spec:        j.spec,
		Error:       j.err,
		SubmittedAt: j.submitted,
		Result:      j.result,
	}
	if j.state == StateQueued {
		// Position is class-relative: the number of same-class jobs
		// scheduled ahead. Cross-class order depends on the bypass
		// policy, so a single global position would be a lie.
		pos := 0
		for _, q := range m.queued {
			if q == j.id {
				break
			}
			if m.jobs[q].spec.Deadline() == j.spec.Deadline() {
				pos++
			}
		}
		st.Position = pos
		st.QueueSeconds = m.cfg.Clock().Sub(j.submitted).Seconds()
		return st
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
		st.QueueSeconds = j.started.Sub(j.submitted).Seconds()
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
		st.RunSeconds = j.finished.Sub(j.started).Seconds()
	} else if j.state == StateRunning {
		st.RunSeconds = m.cfg.Clock().Sub(j.started).Seconds()
	}
	return st
}

// QueueDepth returns the number of jobs waiting to start.
func (m *Manager) QueueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queued)
}
