package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cordoba/api"
	"cordoba/client"
	"cordoba/internal/dse"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

// Defaults applied by New.
const (
	DefaultHeartbeatEvery = 5 * time.Second
	DefaultShardTimeout   = 2 * time.Minute
	DefaultMaxAttempts    = 3
)

// Config tunes a Coordinator.
type Config struct {
	// Workers lists the worker daemons' base URLs. At least one is required.
	Workers []string
	// NewClient builds the typed client for one worker; nil selects
	// client.New with defaults. Tests substitute tuned retry settings.
	NewClient func(url string) *client.Client
	// APIKey, when set, authenticates the coordinator to its workers as a
	// bearer token — required when workers run with a tenant key file that
	// doesn't admit anonymous callers. Ignored when NewClient is supplied.
	APIKey string
	// HeartbeatEvery is the membership probe cadence; <= 0 selects the
	// default. Heartbeats only feed the GET /v1/cluster listing — dispatch
	// discovers dead workers directly through transport errors.
	HeartbeatEvery time.Duration
	// ShardTimeout bounds how long a dispatched shard may go without
	// progress before the coordinator salvages its checkpoint and requeues
	// it; <= 0 selects the default.
	ShardTimeout time.Duration
	// MaxAttempts bounds how many times one shard is attempted (worker
	// deaths do not consume attempts — those are bounded by the worker
	// count); < 1 selects the default.
	MaxAttempts int
	// Logger receives dispatch events; nil discards them.
	Logger *slog.Logger
}

// workerState is the coordinator's view of one worker.
type workerState struct {
	url string
	cli *client.Client

	mu           sync.Mutex
	up           bool
	everBeat     bool
	lastBeat     time.Time
	shardsDone   int64
	shardsFailed int64
	shardSeconds float64
}

func (w *workerState) setUp(ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.up = ok
	if ok {
		w.everBeat = true
		w.lastBeat = time.Now().UTC()
	}
}

func (w *workerState) finished(ok bool, elapsed time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if ok {
		w.shardsDone++
		w.shardSeconds += elapsed.Seconds()
	} else {
		w.shardsFailed++
	}
}

// Coordinator fans sharded explorations out to a fixed worker set and merges
// the returned envelopes. Safe for concurrent Runs; the worker set is fixed
// at construction.
type Coordinator struct {
	cfg     Config
	log     *slog.Logger
	workers []*workerState

	dispatched atomic.Int64
	retried    atomic.Int64
	merged     atomic.Int64

	hbStop chan struct{}
	hbWG   sync.WaitGroup
	hbOnce sync.Once
}

// New builds a coordinator over the configured workers.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one worker URL")
	}
	if cfg.NewClient == nil {
		var opts []client.Option
		if cfg.APIKey != "" {
			opts = append(opts, client.WithAPIKey(cfg.APIKey))
		}
		cfg.NewClient = func(url string) *client.Client { return client.New(url, opts...) }
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = DefaultShardTimeout
	}
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	log := cfg.Logger
	if log == nil {
		// A handler whose level no record reaches: logging is off.
		log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	c := &Coordinator{cfg: cfg, log: log, hbStop: make(chan struct{})}
	for _, u := range cfg.Workers {
		c.workers = append(c.workers, &workerState{url: u, cli: cfg.NewClient(u)})
	}
	return c, nil
}

// Start launches the heartbeat loop feeding the membership listing.
func (c *Coordinator) Start() {
	c.hbWG.Add(1)
	go func() {
		defer c.hbWG.Done()
		c.beat()
		t := time.NewTicker(c.cfg.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-c.hbStop:
				return
			case <-t.C:
				c.beat()
			}
		}
	}()
}

// Stop terminates the heartbeat loop. Safe to call more than once.
func (c *Coordinator) Stop() {
	c.hbOnce.Do(func() { close(c.hbStop) })
	c.hbWG.Wait()
}

// beat probes every worker's /healthz concurrently.
func (c *Coordinator) beat() {
	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HeartbeatEvery)
			defer cancel()
			w.setUp(w.cli.Healthz(ctx) == nil)
		}(w)
	}
	wg.Wait()
}

// Stats snapshots the coordinator for GET /v1/cluster and the Prometheus
// cordobad_cluster_* metrics.
func (c *Coordinator) Stats() api.ClusterStatus {
	st := api.ClusterStatus{
		Role:             "coordinator",
		ShardsDispatched: c.dispatched.Load(),
		ShardsRetried:    c.retried.Load(),
		ShardsMerged:     c.merged.Load(),
	}
	for _, w := range c.workers {
		w.mu.Lock()
		row := api.ClusterWorker{
			URL:          w.url,
			State:        "down",
			ShardsDone:   w.shardsDone,
			ShardsFailed: w.shardsFailed,
		}
		if w.up {
			row.State = "up"
		}
		if w.everBeat {
			t := w.lastBeat
			row.LastHeartbeat = &t
		}
		if w.shardsDone > 0 {
			row.AvgShardS = w.shardSeconds / float64(w.shardsDone)
		}
		w.mu.Unlock()
		st.Workers = append(st.Workers, row)
	}
	return st
}

// Checkpoint is the coordinator's resumable state for one sharded run: the
// fingerprint binding it to the request and plan, and the envelopes of the
// shards already finished. Requeued coordinator jobs skip finished shards.
type Checkpoint struct {
	Fingerprint string              `json:"fingerprint"`
	Shards      int                 `json:"shards"`
	Done        []api.ShardEnvelope `json:"done"`
}

// Progress is a live view of a sharded run, reported after every finished
// shard. Point counters aggregate the finished shards' envelopes.
type Progress struct {
	ShardsDone  int
	ShardsTotal int
	Streamed    int64
	Pruned      int64
	Kept        int
}

// RunOptions tunes one sharded run.
type RunOptions struct {
	// Shards is the requested fan-out; Plan clamps it to [1, shapes].
	Shards int
	// Resume skips the shards a previous interrupted run already finished.
	Resume *Checkpoint
	// OnShardDone, when set, receives the run's checkpoint after every
	// finished shard; an error aborts the run.
	OnShardDone func(*Checkpoint) error
	// OnProgress, when set, observes progress after every finished shard.
	OnProgress func(Progress)
}

// Result is a finished sharded run.
type Result struct {
	// Merged is the whole-grid result, identical to a single-node run (the
	// floating-point sums to within re-association, everything else exactly).
	Merged *dse.StreamResult
	// Envelopes holds the per-shard envelopes in shard order.
	Envelopes []api.ShardEnvelope
	// Retried counts shard attempts beyond the first dispatch.
	Retried int
}

// fingerprint binds a coordinator checkpoint to its request and plan.
func fingerprint(req api.DSERequest, shards int) string {
	req.Shards = 0
	req.Shard = nil
	b, err := json.Marshal(struct {
		Req    api.DSERequest `json:"req"`
		Shards int            `json:"shards"`
	}{req, shards})
	if err != nil {
		panic(fmt.Sprintf("cluster: fingerprint marshal: %v", err)) // plain values; cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// attempt is one dispatch of one shard.
type attempt struct {
	shard  Shard
	tries  int // completed attempts so far (worker deaths excluded)
	resume json.RawMessage
}

// outcomeKind classifies how a dispatch ended.
type outcomeKind int

const (
	outcomeOK         outcomeKind = iota
	outcomeRequeue                // shard stalled or was canceled — try again elsewhere
	outcomeWorkerDown             // transport failure — requeue, retire the worker
	outcomeFatal                  // deterministic failure — retrying cannot help
)

type outcome struct {
	kind   outcomeKind
	at     attempt
	env    api.ShardEnvelope
	err    error
	worker *workerState
}

// Run executes one sharded exploration: plan, fan out, merge. The request
// must be a fully defaulted knobs request (the same body a worker's shard
// job validates); task and ci are the coordinator's resolved task and
// use-phase intensity, used to rebuild and merge the shard results.
func (c *Coordinator) Run(ctx context.Context, req api.DSERequest, task workload.Task, ci units.CarbonIntensity, opts RunOptions) (*Result, error) {
	if req.Knobs == nil {
		return nil, fmt.Errorf("cluster: sharded runs need a knobs grid")
	}
	shapes := len(req.Knobs.MACArrays) * len(req.Knobs.SRAMMB)
	plan := Plan(shapes, opts.Shards)
	if len(plan) == 0 {
		return nil, fmt.Errorf("cluster: knobs grid has no shapes")
	}
	fp := fingerprint(req, len(plan))

	done := make(map[int]api.ShardEnvelope, len(plan))
	if cp := opts.Resume; cp != nil {
		if cp.Fingerprint != fp {
			return nil, fmt.Errorf("cluster: checkpoint fingerprint %.12s does not match this run (%.12s)", cp.Fingerprint, fp)
		}
		if cp.Shards != len(plan) {
			return nil, fmt.Errorf("cluster: checkpoint has %d shards, plan has %d", cp.Shards, len(plan))
		}
		for _, env := range cp.Done {
			matched := false
			for _, sh := range plan {
				if sh.First == env.First && sh.Count == env.Count {
					done[sh.Index] = env
					matched = true
					break
				}
			}
			if !matched {
				return nil, fmt.Errorf("cluster: checkpoint shard [%d,%d) not in this run's plan", env.First, env.First+env.Count)
			}
		}
	}

	var pending []attempt
	for _, sh := range plan {
		if _, ok := done[sh.Index]; !ok {
			pending = append(pending, attempt{shard: sh})
		}
	}

	retried := 0
	if len(pending) > 0 {
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()

		// Buffered far past the worst case so requeues never block the
		// dispatch loop: every shard retried to its attempt bound plus one
		// requeue per worker death.
		capacity := len(pending)*c.cfg.MaxAttempts + len(c.workers)
		attempts := make(chan attempt, capacity)
		outcomes := make(chan outcome, capacity)
		for _, at := range pending {
			attempts <- at
		}

		var wg sync.WaitGroup
		for _, w := range c.workers {
			wg.Add(1)
			go func(w *workerState) {
				defer wg.Done()
				for {
					select {
					case <-runCtx.Done():
						return
					case at := <-attempts:
						out := c.runShard(runCtx, w, req, at)
						select {
						case outcomes <- out:
						case <-runCtx.Done():
							return
						}
						if out.kind == outcomeWorkerDown {
							return // this worker is unreachable — stop pulling work
						}
					}
				}
			}(w)
		}
		defer wg.Wait()

		live := len(c.workers)
		remaining := len(pending)
		for remaining > 0 {
			if live == 0 {
				cancel()
				return nil, fmt.Errorf("cluster: no reachable workers left, %d of %d shards unfinished", remaining, len(plan))
			}
			var out outcome
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case out = <-outcomes:
			}
			sh := out.at.shard
			switch out.kind {
			case outcomeOK:
				done[sh.Index] = out.env
				remaining--
				c.log.Info("shard finished", "shard", sh.Index, "worker", out.worker.url)
				if opts.OnShardDone != nil {
					cp := &Checkpoint{Fingerprint: fp, Shards: len(plan), Done: envelopesInOrder(plan, done)}
					if err := opts.OnShardDone(cp); err != nil {
						cancel()
						return nil, fmt.Errorf("cluster: checkpoint callback: %w", err)
					}
				}
				if opts.OnProgress != nil {
					opts.OnProgress(progressOf(len(plan), done))
				}
			case outcomeRequeue:
				tries := out.at.tries + 1
				if tries >= c.cfg.MaxAttempts {
					cancel()
					return nil, fmt.Errorf("cluster: shard [%d,%d) failed %d attempts: %v", sh.First, sh.First+sh.Count, tries, out.err)
				}
				retried++
				c.retried.Add(1)
				c.log.Warn("shard requeued", "shard", sh.Index, "worker", out.worker.url, "err", out.err)
				attempts <- attempt{shard: sh, tries: tries, resume: out.at.resume}
			case outcomeWorkerDown:
				live--
				out.worker.setUp(false)
				retried++
				c.retried.Add(1)
				c.log.Warn("worker lost mid-shard, requeued", "shard", sh.Index, "worker", out.worker.url, "err", out.err)
				attempts <- attempt{shard: sh, tries: out.at.tries, resume: out.at.resume}
			case outcomeFatal:
				cancel()
				return nil, out.err
			}
		}
		cancel()
	}

	// Merge in shard order: disjoint shape ranges make the merge exact, and
	// ascending order reproduces the single-node stream's tie-breaks.
	envs := envelopesInOrder(plan, done)
	parts := make([]*dse.StreamResult, len(envs))
	for i, env := range envs {
		r, err := ResultFromEnvelope(env, task, ci)
		if err != nil {
			return nil, err
		}
		parts[i] = r
	}
	merged, err := dse.MergeShardResults(parts)
	if err != nil {
		return nil, err
	}
	c.merged.Add(int64(len(envs)))
	return &Result{Merged: merged, Envelopes: envs, Retried: retried}, nil
}

// runShard dispatches one shard to one worker and babysits it to a terminal
// state, salvaging the worker's checkpoint if the shard stalls.
func (c *Coordinator) runShard(ctx context.Context, w *workerState, req api.DSERequest, at attempt) outcome {
	req.Shards = 0
	req.Shard = &api.ShardSpec{First: at.shard.First, Count: at.shard.Count, Resume: at.resume}
	c.dispatched.Add(1)

	start := time.Now()
	st, err := c.call(ctx, func(cctx context.Context) (api.JobStatus, error) { return w.cli.SubmitJob(cctx, req) })
	if err != nil {
		var apiErr *api.Error
		if errors.As(err, &apiErr) {
			if apiErr.Status >= 400 && apiErr.Status < 500 && apiErr.Status != http.StatusTooManyRequests {
				// The worker understood the request and rejected it; every
				// worker would — do not burn retries.
				return outcome{kind: outcomeFatal, at: at, err: fmt.Errorf("cluster: worker %s rejected shard [%d,%d): %w", w.url, at.shard.First, at.shard.First+at.shard.Count, err), worker: w}
			}
			w.finished(false, 0)
			return outcome{kind: outcomeRequeue, at: at, err: err, worker: w}
		}
		w.finished(false, 0)
		return outcome{kind: outcomeWorkerDown, at: at, err: err, worker: w}
	}

	fin, stalled, err := c.follow(ctx, w, st.ID)
	switch {
	case ctx.Err() != nil:
		return outcome{kind: outcomeRequeue, at: at, err: ctx.Err(), worker: w}
	case stalled:
		// Stalled: salvage the worker's last checkpoint if it is still
		// reachable, cancel the stuck job, and requeue with the salvage.
		resume := at.resume
		if cp, err := c.callCP(ctx, w, st.ID); err == nil && len(cp) > 0 {
			resume = cp
		}
		_, _ = c.call(ctx, func(cctx context.Context) (api.JobStatus, error) { return w.cli.CancelJob(cctx, st.ID) })
		w.finished(false, 0)
		at.resume = resume
		return outcome{kind: outcomeRequeue, at: at, err: fmt.Errorf("cluster: shard made no progress for %v on %s", c.cfg.ShardTimeout, w.url), worker: w}
	case err != nil:
		w.finished(false, 0)
		return outcome{kind: outcomeWorkerDown, at: at, err: err, worker: w}
	}
	switch fin.State {
	case api.JobSucceeded:
		env, err := c.callEnv(ctx, w, st.ID)
		if err != nil {
			w.finished(false, 0)
			return outcome{kind: outcomeWorkerDown, at: at, err: err, worker: w}
		}
		w.finished(true, time.Since(start))
		return outcome{kind: outcomeOK, at: at, env: *env, worker: w}
	case api.JobFailed:
		// Shard jobs are deterministic: a failure here fails everywhere.
		return outcome{kind: outcomeFatal, at: at, err: fmt.Errorf("cluster: shard [%d,%d) failed on %s: %s", at.shard.First, at.shard.First+at.shard.Count, w.url, fin.Error), worker: w}
	default: // canceled on the worker
		w.finished(false, 0)
		return outcome{kind: outcomeRequeue, at: at, err: fmt.Errorf("cluster: shard job canceled on %s", w.url), worker: w}
	}
}

// follow watches a dispatched shard job over the worker's event stream
// (GET /v1/jobs/{id}/events) until its terminal `done` event, returning
// that final status. A watchdog ends the watch early with stalled set when
// the job's progress has not changed for ShardTimeout — a live but stuck
// worker, or a hung connection. Any other end of the stream before `done`
// (transport error, dropped connection) is returned as err: the worker is
// treated as lost, exactly as a failed status call was.
func (c *Coordinator) follow(ctx context.Context, w *workerState, id string) (fin api.JobStatus, stalled bool, err error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var stall atomic.Bool
	watchdog := time.AfterFunc(c.cfg.ShardTimeout, func() {
		stall.Store(true)
		cancel()
	})
	defer watchdog.Stop()

	var (
		last api.JobProgress
		done bool
	)
	err = w.cli.StreamJobEvents(sctx, id, 0, func(ev api.JobEvent) {
		if ev.Type == api.EventDone {
			fin, done = ev.Job, true
			return
		}
		if ev.Job.Progress != last {
			last = ev.Job.Progress
			watchdog.Reset(c.cfg.ShardTimeout)
		}
	})
	switch {
	case done:
		return fin, false, nil
	case stall.Load() && ctx.Err() == nil:
		return api.JobStatus{}, true, nil
	case err == nil:
		err = fmt.Errorf("cluster: event stream for job %s on %s ended before done", id, w.url)
	}
	return api.JobStatus{}, false, err
}

// call runs one worker RPC under a ShardTimeout-bounded child context, so a
// hung connection surfaces as a worker loss instead of wedging the run.
func (c *Coordinator) call(ctx context.Context, f func(context.Context) (api.JobStatus, error)) (api.JobStatus, error) {
	cctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	return f(cctx)
}

func (c *Coordinator) callEnv(ctx context.Context, w *workerState, id string) (*api.ShardEnvelope, error) {
	cctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	return w.cli.ShardResult(cctx, id)
}

func (c *Coordinator) callCP(ctx context.Context, w *workerState, id string) (json.RawMessage, error) {
	cctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	return w.cli.JobCheckpoint(cctx, id)
}

// envelopesInOrder lists the finished envelopes in shard order.
func envelopesInOrder(plan []Shard, done map[int]api.ShardEnvelope) []api.ShardEnvelope {
	out := make([]api.ShardEnvelope, 0, len(done))
	for _, sh := range plan {
		if env, ok := done[sh.Index]; ok {
			out = append(out, env)
		}
	}
	return out
}

// progressOf aggregates the finished shards' counters.
func progressOf(total int, done map[int]api.ShardEnvelope) Progress {
	p := Progress{ShardsDone: len(done), ShardsTotal: total}
	for _, env := range done {
		p.Streamed += env.PointsStreamed
		p.Pruned += env.PointsStreamed - int64(len(env.Survivors))
		p.Kept += len(env.Survivors)
	}
	return p
}
