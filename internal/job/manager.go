package job

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"sort"
	"sync"
	"time"

	"cordoba/api"
)

// ErrQueueFull is returned by Submit when the queue is at capacity; callers
// translate it to 429 with a Retry-After hint.
var ErrQueueFull = errors.New("job: queue full")

// ErrNotFound is returned for unknown job IDs.
var ErrNotFound = errors.New("job: not found")

// ErrUnknownKind is returned by Submit for kinds without a registered runner.
var ErrUnknownKind = errors.New("job: no runner registered for kind")

// QuotaError is returned by SubmitJob when a per-tenant limit would be
// exceeded; callers translate it to 429 quota_exceeded with a Retry-After
// hint.
type QuotaError struct {
	Tenant   string // display name ("anonymous" for the anonymous tenant)
	Resource string // "queued_jobs" or "grid_points"
	Used     int64  // current usage
	Want     int64  // usage the submission would reach
	Max      int64  // the configured cap
}

func (e *QuotaError) Error() string {
	if e.Resource == "grid_points" {
		return fmt.Sprintf("tenant %q would have %d grid points in flight (max %d); retry after jobs finish",
			e.Tenant, e.Want, e.Max)
	}
	return fmt.Sprintf("tenant %q has %d queued jobs (max %d); retry after the queue drains",
		e.Tenant, e.Used, e.Max)
}

// Defaults applied by NewManager.
const (
	DefaultWorkers    = 2
	DefaultQueueDepth = 16
	DefaultHistory    = 256
	DefaultRetryAfter = 2 * time.Second
)

// Config tunes a Manager.
type Config struct {
	// Workers is the number of concurrent job executors; < 1 selects
	// DefaultWorkers.
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs across
	// all tenants; < 1 selects DefaultQueueDepth. Jobs recovered from the
	// store are admitted past the bound — dropping persisted work would be
	// worse than a long queue.
	QueueDepth int
	// Store persists one record per job for crash recovery; nil with Dir
	// set selects a DirStore there, nil with Dir empty keeps jobs in memory
	// only.
	Store Store
	// Dir is the DirStore shorthand used when Store is nil.
	Dir string
	// RetryAfter is the hint returned alongside ErrQueueFull and
	// QuotaError; <= 0 selects DefaultRetryAfter.
	RetryAfter time.Duration
	// History bounds the number of terminal jobs retained (memory and disk);
	// < 1 selects DefaultHistory. Oldest-finished are pruned first.
	History int
	// Logger receives job lifecycle events; nil discards them.
	Logger *slog.Logger
}

// Limits carries one tenant's scheduling weight and quota caps into a
// submission; the manager enforces them without owning tenant config.
type Limits struct {
	// Weight is the fair-share weight; <= 0 selects 1.
	Weight float64
	// MaxQueued caps the tenant's queued jobs; 0 is unlimited.
	MaxQueued int
	// MaxPoints caps the tenant's grid points across queued + running jobs;
	// 0 is unlimited.
	MaxPoints int64
}

// Submission is a fully-specified job submission.
type Submission struct {
	Kind    string
	Request json.RawMessage
	// Tenant is the owning tenant's name; empty is the anonymous tenant.
	Tenant string
	Limits Limits
	// Priority is the scheduling class; empty is batch.
	Priority api.Priority
	// NotBefore holds a deferrable job until the given time (the
	// launch-window start); zero runs as soon as a worker frees up.
	NotBefore time.Time
	// CO2AvoidedG is the operational carbon the deferral avoids versus an
	// immediate start, accounted in Counts.
	CO2AvoidedG float64
	// Points is the job's grid-point weight against MaxPoints.
	Points int64
}

// Counts is an atomic snapshot of the manager's population and counters,
// exported to Prometheus by the server.
type Counts struct {
	Queued, Running                           int
	Succeeded, Failed, Canceled               int64
	Submitted, Resumed, Checkpoints, Rejected int64
	// QuotaRejected counts submissions rejected by a per-tenant quota
	// (Rejected counts only global queue-full rejections).
	QuotaRejected int64
	// Deferred counts deferrable jobs held for a launch window; CO2AvoidedG
	// sums the grams of operational carbon those deferrals avoid.
	Deferred    int64
	CO2AvoidedG float64
	// Adopted counts fresh submissions that resumed from another job's
	// content-addressed checkpoint.
	Adopted int64
}

// TenantCount is one tenant's live population (TenantCounts).
type TenantCount struct {
	Queued  int
	Running int
	Points  int64 // grid points across queued + running jobs
}

// tenantState is the fair-share scheduler's per-tenant record: one FIFO
// queue per priority class (the deferrable queue is kept sorted by
// not-before time) and the stride-scheduling virtual-time pass.
type tenantState struct {
	name   string
	weight float64
	// pass is the tenant's virtual time: incremented by 1/weight per
	// dequeue, so heavier tenants accrue it slower and dequeue more often.
	// The scheduler always picks the eligible tenant with the least pass.
	pass    float64
	queues  [numPriorities][]string
	queued  int
	running int
	points  int64
}

// Manager owns the queue, the workers, and the job table.
type Manager struct {
	cfg     Config
	log     *slog.Logger
	store   Store
	runners map[string]Runner

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*job
	tenants map[string]*tenantState
	// vclock tracks the largest pass handed out, so a newly active tenant
	// starts at the current virtual time instead of replaying banked credit.
	vclock    float64
	wakeTimer *time.Timer // arms the earliest deferrable not-before
	// counters (under mu)
	succeeded, failed, canceled     int64
	submitted, resumed, checkpoints int64
	rejected, quotaRejected         int64
	deferred, adopted               int64
	co2AvoidedG                     float64
	running                         int
	stopping                        bool

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	started bool
}

// NewManager builds a manager and, when a store is configured, recovers
// persisted jobs: terminal ones become history, queued and
// interrupted-running ones are re-enqueued in creation order (running jobs
// keep their checkpoint, so their runner resumes instead of starting over).
// Call Start to begin executing.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Workers < 1 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.History < 1 {
		cfg.History = DefaultHistory
	}
	log := cfg.Logger
	if log == nil {
		// A handler whose level no record reaches: logging is off.
		log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:     cfg,
		log:     log,
		store:   cfg.Store,
		runners: make(map[string]Runner),
		jobs:    make(map[string]*job),
		tenants: make(map[string]*tenantState),
		baseCtx: ctx,
		stop:    cancel,
	}
	m.cond = sync.NewCond(&m.mu)
	if m.store == nil && cfg.Dir != "" {
		ds, err := NewDirStore(cfg.Dir)
		if err != nil {
			cancel()
			return nil, err
		}
		m.store = ds
	}
	if m.store != nil {
		if err := m.recover(); err != nil {
			cancel()
			return nil, err
		}
	}
	return m, nil
}

// SetRunner registers the executor for a job kind. Register every kind
// before Start; recovered jobs of unregistered kinds fail when dequeued.
func (m *Manager) SetRunner(kind string, r Runner) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runners[kind] = r
}

// RetryAfter returns the backoff hint paired with ErrQueueFull.
func (m *Manager) RetryAfter() time.Duration { return m.cfg.RetryAfter }

// Start launches the worker pool.
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started || m.stopping {
		return
	}
	m.started = true
	for w := 0; w < m.cfg.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
}

// Stop cancels running jobs and waits for the workers to drain, up to ctx's
// deadline. Interrupted jobs go back to the queue with their checkpoint
// intact and are persisted, so a later manager on the same store resumes
// them.
func (m *Manager) Stop(ctx context.Context) error {
	m.mu.Lock()
	m.stopping = true
	if m.wakeTimer != nil {
		m.wakeTimer.Stop()
		m.wakeTimer = nil
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	m.stop() // cancels every running job's context

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("job: shutdown timed out: %w", ctx.Err())
	}
}

// SubmitJob enqueues a fully-specified submission and returns the queued
// job's status. A full global queue returns ErrQueueFull; a tenant over one
// of its limits returns a *QuotaError.
func (m *Manager) SubmitJob(sub Submission) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.runners[sub.Kind]; !ok {
		return Status{}, fmt.Errorf("%w: %q", ErrUnknownKind, sub.Kind)
	}
	if m.queuedLocked() >= m.cfg.QueueDepth {
		m.rejected++
		return Status{}, ErrQueueFull
	}
	ts := m.tenantStateLocked(sub.Tenant, sub.Limits.Weight)
	display := sub.Tenant
	if display == "" {
		display = "anonymous"
	}
	if sub.Limits.MaxQueued > 0 && ts.queued >= sub.Limits.MaxQueued {
		m.quotaRejected++
		return Status{}, &QuotaError{
			Tenant: display, Resource: "queued_jobs",
			Used: int64(ts.queued), Want: int64(ts.queued + 1), Max: int64(sub.Limits.MaxQueued),
		}
	}
	if sub.Limits.MaxPoints > 0 && ts.points+sub.Points > sub.Limits.MaxPoints {
		m.quotaRejected++
		return Status{}, &QuotaError{
			Tenant: display, Resource: "grid_points",
			Used: ts.points, Want: ts.points + sub.Points, Max: sub.Limits.MaxPoints,
		}
	}
	j := &job{
		id:     newID(),
		seq:    1, // state version 1: the queued snapshot
		kind:   sub.Kind,
		tenant: sub.Tenant,
		// Stored raw: the empty priority schedules as batch but stays
		// omitted on the wire, keeping single-tenant output byte-identical.
		priority:    sub.Priority,
		notBefore:   sub.NotBefore,
		co2AvoidedG: sub.CO2AvoidedG,
		points:      sub.Points,
		state:       StateQueued,
		request:     append(json.RawMessage(nil), sub.Request...),
		created:     time.Now().UTC(),
	}
	if j.priority != api.PriorityDeferrable {
		// Only deferrable jobs are held for a launch window.
		j.notBefore = time.Time{}
		j.co2AvoidedG = 0
	}
	// Content-addressed adoption: when the store knows a checkpoint for this
	// exact request from a job this manager is not actively running (a
	// worker that died elsewhere, or a failed attempt), seed the new job
	// with it so the runner resumes instead of starting over.
	if ad, ok := m.store.(CheckpointAdopter); ok {
		if prevID, cp, ok := ad.AdoptCheckpoint(sub.Kind, sub.Request); ok && len(cp) > 0 {
			if prev, live := m.jobs[prevID]; !live || prev.state.Terminal() {
				j.checkpoint = append(json.RawMessage(nil), cp...)
				m.adopted++
				m.log.Info("job adopted checkpoint", "job", j.id, "from", prevID)
			}
		}
	}
	m.jobs[j.id] = j
	m.enqueueLocked(ts, j)
	m.submitted++
	if j.priority == api.PriorityDeferrable {
		m.deferred++
		m.co2AvoidedG += j.co2AvoidedG
	}
	m.persistLocked(j)
	m.publishLocked(j, EventState)
	m.pruneHistoryLocked()
	m.cond.Signal()
	m.log.Info("job queued", "job", j.id, "kind", sub.Kind,
		"tenant", display, "priority", string(j.priority))
	return j.status(), nil
}

// tenantStateLocked returns (creating if needed) the tenant's scheduler
// state, refreshing its weight and aligning a newly active tenant's pass
// with the virtual clock so idle time does not bank scheduling credit.
func (m *Manager) tenantStateLocked(name string, weight float64) *tenantState {
	ts, ok := m.tenants[name]
	if !ok {
		ts = &tenantState{name: name, weight: 1}
		m.tenants[name] = ts
	}
	if weight > 0 {
		ts.weight = weight
	}
	if ts.queued == 0 && ts.pass < m.vclock {
		ts.pass = m.vclock
	}
	return ts
}

// enqueueLocked adds a queued job to its tenant's priority queue. The
// deferrable queue stays sorted by not-before so eligibility is a
// head-of-queue check.
func (m *Manager) enqueueLocked(ts *tenantState, j *job) {
	pri := priorityIndex(j.priority)
	q := ts.queues[pri]
	if pri == priorityIndex(api.PriorityDeferrable) {
		at := sort.Search(len(q), func(i int) bool {
			other, ok := m.jobs[q[i]]
			return ok && other.notBefore.After(j.notBefore)
		})
		q = append(q, "")
		copy(q[at+1:], q[at:])
		q[at] = j.id
	} else {
		q = append(q, j.id)
	}
	ts.queues[pri] = q
	ts.queued++
	ts.points += j.points
}

// eligibleHeadLocked returns the tenant's next runnable job — highest
// priority first, FIFO within a class, deferrable only once its not-before
// has passed — popping stale entries (canceled while queued) as it scans.
func (m *Manager) eligibleHeadLocked(ts *tenantState, now time.Time) (*job, int) {
	for pri := 0; pri < numPriorities; pri++ {
		q := ts.queues[pri]
		for len(q) > 0 {
			j, ok := m.jobs[q[0]]
			if !ok || j.state != StateQueued {
				q = q[1:]
				continue
			}
			if !j.notBefore.IsZero() && j.notBefore.After(now) {
				break // sorted: nothing behind it is eligible either
			}
			ts.queues[pri] = q
			return j, pri
		}
		ts.queues[pri] = q
	}
	return nil, 0
}

// nextLocked picks and pops the next job under weighted fair share: among
// tenants with an eligible job, the one with the least virtual time runs,
// and its pass advances by 1/weight.
func (m *Manager) nextLocked(now time.Time) *job {
	var (
		best    *tenantState
		bestJob *job
		bestPri int
	)
	for _, ts := range m.tenants {
		j, pri := m.eligibleHeadLocked(ts, now)
		if j == nil {
			continue
		}
		if best == nil || ts.pass < best.pass || (ts.pass == best.pass && ts.name < best.name) {
			best, bestJob, bestPri = ts, j, pri
		}
	}
	if best == nil {
		return nil
	}
	best.queues[bestPri] = best.queues[bestPri][1:]
	best.queued--
	best.running++
	w := best.weight
	if w <= 0 {
		w = 1
	}
	best.pass += 1 / w
	if best.pass > m.vclock {
		m.vclock = best.pass
	}
	return bestJob
}

// armWakeLocked schedules a broadcast at the earliest ineligible
// deferrable job's not-before, so a worker wakes exactly when the launch
// window opens.
func (m *Manager) armWakeLocked(now time.Time) {
	var earliest time.Time
	for _, ts := range m.tenants {
		q := ts.queues[priorityIndex(api.PriorityDeferrable)]
		for _, id := range q {
			j, ok := m.jobs[id]
			if !ok || j.state != StateQueued {
				continue
			}
			if j.notBefore.After(now) && (earliest.IsZero() || j.notBefore.Before(earliest)) {
				earliest = j.notBefore
			}
			break // sorted: the first live entry is the tenant's earliest
		}
	}
	if m.wakeTimer != nil {
		m.wakeTimer.Stop()
		m.wakeTimer = nil
	}
	if earliest.IsZero() {
		return
	}
	m.wakeTimer = time.AfterFunc(earliest.Sub(now), func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
}

// Get returns a job's status.
func (m *Manager) Get(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return j.status(), nil
}

// List returns every known job, newest first.
func (m *Manager) List() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.status())
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Created.Equal(out[b].Created) {
			return out[a].Created.After(out[b].Created)
		}
		return out[a].ID > out[b].ID
	})
	return out
}

// Result returns a terminal job's result payload alongside its status.
// Non-terminal or failed jobs return a nil payload; the caller decides how
// to respond based on the status.
func (m *Manager) Result(id string) (json.RawMessage, Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, Status{}, ErrNotFound
	}
	return append(json.RawMessage(nil), j.result...), j.status(), nil
}

// Checkpoint returns a job's last saved checkpoint, nil when none exists.
// Coordinators use it to salvage a stalled worker's partial shard progress
// before requeueing the shard elsewhere.
func (m *Manager) Checkpoint(id string) (json.RawMessage, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return append(json.RawMessage(nil), j.checkpoint...), nil
}

// Cancel requests cancellation: a queued job is canceled immediately, a
// running one is signaled through its context and reaches StateCanceled when
// its runner returns. Canceling a terminal job is a no-op.
func (m *Manager) Cancel(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.finished = time.Now().UTC()
		m.canceled++
		if ts, ok := m.tenants[j.tenant]; ok {
			ts.queued--
			ts.points -= j.points
		}
		m.persistLocked(j)
		m.publishLocked(j, EventDone)
		m.log.Info("job canceled while queued", "job", j.id)
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
		m.log.Info("job cancellation requested", "job", j.id)
	}
	return j.status(), nil
}

// Counts snapshots the population and lifetime counters.
func (m *Manager) Counts() Counts {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Counts{
		Queued:        m.queuedLocked(),
		Running:       m.running,
		Succeeded:     m.succeeded,
		Failed:        m.failed,
		Canceled:      m.canceled,
		Submitted:     m.submitted,
		Resumed:       m.resumed,
		Checkpoints:   m.checkpoints,
		Rejected:      m.rejected,
		QuotaRejected: m.quotaRejected,
		Deferred:      m.deferred,
		CO2AvoidedG:   m.co2AvoidedG,
		Adopted:       m.adopted,
	}
}

// TenantCounts snapshots per-tenant populations, keyed by tenant name
// ("" for anonymous).
func (m *Manager) TenantCounts() map[string]TenantCount {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]TenantCount, len(m.tenants))
	for name, ts := range m.tenants {
		out[name] = TenantCount{Queued: ts.queued, Running: ts.running, Points: ts.points}
	}
	return out
}

// queuedLocked counts jobs currently in StateQueued across all tenants.
func (m *Manager) queuedLocked() int {
	n := 0
	for _, ts := range m.tenants {
		n += ts.queued
	}
	return n
}

// worker executes queued jobs until the manager stops.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		var j *job
		for {
			if m.stopping {
				// Never start (or restart) work during shutdown — jobs
				// requeued by runOne stay queued for the next process.
				m.mu.Unlock()
				return
			}
			if j = m.nextLocked(time.Now()); j != nil {
				break
			}
			m.armWakeLocked(time.Now())
			m.cond.Wait()
		}
		ctx, cancel := context.WithCancel(m.baseCtx)
		j.state = StateRunning
		j.started = time.Now().UTC()
		j.cancel = cancel
		m.running++
		if len(j.checkpoint) > 0 {
			j.resumes++
			m.resumed++
		}
		runner := m.runners[j.kind]
		m.persistLocked(j)
		m.publishLocked(j, EventState)
		m.mu.Unlock()

		m.runOne(ctx, cancel, j, runner)
	}
}

// runOne executes a single job and records the outcome.
func (m *Manager) runOne(ctx context.Context, cancel context.CancelFunc, j *job, runner Runner) {
	defer cancel()
	var (
		res json.RawMessage
		err error
	)
	if runner == nil {
		err = fmt.Errorf("%w: %q", ErrUnknownKind, j.kind)
	} else {
		res, err = m.safeRun(ctx, j, runner)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.running--
	ts := m.tenants[j.tenant] // exists: the job was enqueued under it
	ts.running--
	j.cancel = nil
	switch {
	case err == nil:
		j.state = StateSucceeded
		j.result = res
		j.checkpoint = nil // the result supersedes it
		j.finished = time.Now().UTC()
		m.succeeded++
		ts.points -= j.points
		m.log.Info("job succeeded", "job", j.id)
	case j.cancelRequested:
		j.state = StateCanceled
		j.errMsg = ""
		j.finished = time.Now().UTC()
		m.canceled++
		ts.points -= j.points
		m.log.Info("job canceled", "job", j.id)
	case m.stopping && errors.Is(err, context.Canceled):
		// Interrupted by shutdown: back to the queue with the checkpoint
		// intact so the next manager on this store picks it up.
		j.state = StateQueued
		j.started = time.Time{}
		j.notBefore = time.Time{} // its window has opened; resume promptly
		ts.points -= j.points     // enqueueLocked re-adds them
		m.enqueueLocked(ts, j)
		m.persistLocked(j)
		m.publishLocked(j, EventState)
		m.log.Info("job interrupted by shutdown, requeued", "job", j.id)
		return
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		j.finished = time.Now().UTC()
		m.failed++
		ts.points -= j.points
		m.log.Warn("job failed", "job", j.id, "err", err)
	}
	m.persistLocked(j)
	m.publishLocked(j, EventDone)
	m.pruneHistoryLocked()
}

// safeRun shields the manager from panicking runners.
func (m *Manager) safeRun(ctx context.Context, j *job, runner Runner) (res json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job: runner panic: %v", r)
		}
	}()
	return runner(ctx, &runContext{m: m, j: j})
}

// runContext is the manager's RunContext implementation.
type runContext struct {
	m *Manager
	j *job
}

func (rc *runContext) Request() json.RawMessage {
	rc.m.mu.Lock()
	defer rc.m.mu.Unlock()
	return append(json.RawMessage(nil), rc.j.request...)
}

func (rc *runContext) Checkpoint() json.RawMessage {
	rc.m.mu.Lock()
	defer rc.m.mu.Unlock()
	return append(json.RawMessage(nil), rc.j.checkpoint...)
}

func (rc *runContext) SaveCheckpoint(cp json.RawMessage) error {
	rc.m.mu.Lock()
	defer rc.m.mu.Unlock()
	rc.j.checkpoint = append(json.RawMessage(nil), cp...)
	rc.m.checkpoints++
	err := rc.m.persistLocked(rc.j)
	rc.m.publishLocked(rc.j, EventCheckpoint)
	return err
}

// ReportProgress records p at once, so status reads and ETAs stay exact,
// and advances the job's sequence number, so a reconnecting ?after= reader
// still gets the snapshot. It publishes a progress frame only when none of
// the job's went out in the last progressFrameInterval: runners report per
// unit of work (per shape, per generation), far faster than a follower
// needs frames. The newest progress rides the next frame of any kind, and
// the done frame carries the final one.
func (rc *runContext) ReportProgress(p Progress) {
	rc.m.mu.Lock()
	defer rc.m.mu.Unlock()
	j := rc.j
	j.progress = p
	now := time.Now()
	if !j.progressFramed.IsZero() && now.Sub(j.progressFramed) < progressFrameInterval {
		j.seq++
		return
	}
	j.progressFramed = now
	rc.m.publishLocked(j, EventProgress)
}

// pruneHistoryLocked evicts the oldest-finished terminal jobs beyond the
// History bound, removing their files too.
func (m *Manager) pruneHistoryLocked() {
	var term []*job
	for _, j := range m.jobs {
		if j.state.Terminal() {
			term = append(term, j)
		}
	}
	excess := len(term) - m.cfg.History
	if excess <= 0 {
		return
	}
	sort.Slice(term, func(a, b int) bool { return term[a].finished.Before(term[b].finished) })
	for _, j := range term[:excess] {
		delete(m.jobs, j.id)
		m.removeRecord(j.id)
	}
}

// newID returns a 12-hex-char random job ID.
func newID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("job: id entropy: %v", err)) // crypto/rand never fails on supported platforms
	}
	return "j" + hex.EncodeToString(b[:])
}
