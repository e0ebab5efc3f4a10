// Package server is cordobad's service layer: it exposes CORDOBA's carbon
// accounting (eq. IV.5), design-space exploration (§VI-B/C), and experiment
// registry as a long-lived, concurrent JSON API over net/http — stdlib only.
//
// Production plumbing around the handlers:
//
//   - a bounded worker pool sized from GOMAXPROCS admits evaluations (each
//     fanned out over StreamOptions.Workers) so request bursts queue
//     instead of thrashing;
//   - an in-memory LRU caches rendered responses keyed by a canonical hash
//     of the decoded request — DSE results are deterministic, so a hit
//     skips the whole evaluation and replays byte-identical JSON;
//   - per-request timeouts, request-size limits, panic recovery, and a
//     uniform JSON error envelope;
//   - optional multi-tenant serving: an API-key registry (-tenants) mapping
//     keys to fair-share weights, job quotas, and request-rate token
//     buckets; without a registry every caller is one unlimited anonymous
//     tenant and behavior is byte-identical to the single-tenant daemon;
//   - GET /healthz, Prometheus-format GET /metrics (one registry to which
//     each subsystem contributes the families over state it owns; see
//     API.md §Operations), and structured request logging via log/slog.
//
// Routes:
//
//	POST /v1/accounting          ACT embodied carbon for a die or accelerator
//	POST /v1/dse                 task + design space → ever-optimal set, sweep
//	POST /v1/jobs                submit a DSE body for async execution (202)
//	GET  /v1/jobs                list jobs, newest first (paginated, filterable)
//	GET  /v1/jobs/{id}           job status with live progress and ETA
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET  /v1/jobs/{id}/result    fetch a finished job's DSE response
//	GET  /v1/jobs/{id}/checkpoint  fetch a job's last saved checkpoint
//	GET  /v1/jobs/{id}/events    live job event stream (SSE)
//	GET  /v1/tenant              authenticated tenant, limits, quota usage
//	GET  /v1/cluster             cluster role, worker membership, shard counters
//	GET  /v1/experiments         experiment discovery
//	GET  /v1/experiments/{key}   stream one experiment (json, csv, or text)
//	GET  /v1/traces              named CI_use(t) trace registry with exact stats
//	POST /v1/schedule            lowest-carbon launch window for a job + deadline
//	GET  /v1/tasks               servable tasks
//	GET  /v1/configs             accelerator design spaces
//	GET  /v1/models              embodied-carbon backends and yield models
//	GET  /healthz                liveness
//	GET  /metrics                Prometheus text exposition
package server

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"cordoba"
	"cordoba/internal/cluster"
	"cordoba/internal/job"
	"cordoba/internal/tenant"
)

// Config tunes the daemon; zero values select production defaults.
type Config struct {
	Addr           string        // listen address, default ":8080"
	CacheSize      int           // LRU entries, default 256; negative disables
	MaxBodyBytes   int64         // request-body cap, default 1 MiB
	RequestTimeout time.Duration // per-request deadline, default 60 s
	PoolSize       int           // concurrent evaluations, default DefaultPoolSize
	EvalWorkers    int           // goroutines per evaluation, default DefaultEvalWorkers
	MaxGridPoints  int64         // knob-grid size cap per request, default 1<<20
	MemoEntries    int           // shape-profile memo entries, default cordoba.DefaultMemoEntries
	Logger         *slog.Logger  // default slog.Default()

	// Surrogate search defaults, used when a request's surrogate spec leaves
	// the field unset. Zero selects the engine defaults (budget 2% of the
	// grid clamped to [256, 8192]; population 48).
	SurrogateBudget     int64 // true-evaluation budget per surrogate run
	SurrogatePopulation int   // NSGA parent-pool size

	// Async job subsystem (POST /v1/jobs). Zero values select the job
	// package defaults; JobDir empty keeps jobs in memory only (no
	// crash-resume across restarts).
	JobWorkers      int    // concurrent job executions, default job.DefaultWorkers
	JobQueue        int    // admission-control queue depth, default job.DefaultQueueDepth
	JobDir          string // checkpoint/state directory; empty = memory only
	CheckpointEvery int    // shapes between streaming checkpoints, default 8; <0 disables
	// JobStore selects the checkpoint store layout under JobDir: "dir"
	// (default, one file per job ID) or "cas" (content-addressed by
	// sha256(kind ‖ request), letting any daemon sharing the directory adopt
	// another's orphaned checkpoint).
	JobStore string
	// Runners substitutes job executors by kind ("dse", "dse-shard", ...).
	// They are registered before the job manager starts, so jobs recovered
	// from JobDir at startup already run under them. Tests use it to swap in
	// deterministic runners; nil keeps the built-in ones.
	Runners map[string]job.Runner

	// Multi-tenant serving. TenantFile names the API-key registry (see
	// internal/tenant for the schema); empty runs the daemon in open
	// single-tenant mode, byte-identical to historical behavior. RegionTrace
	// names the CI_use(t) trace deferrable jobs schedule their launch window
	// against, default "decarb-ramp".
	TenantFile  string
	RegionTrace string

	// Distributed DSE (internal/cluster). Role selects the daemon's cluster
	// role: "standalone" (default) serves everything locally and rejects
	// fan-out requests, "worker" additionally advertises itself as shard
	// capacity, and "coordinator" fans knob grids out to ClusterWorkers and
	// merges the envelopes. Any role runs shard jobs — "worker" is an
	// advertisement, not a capability gate.
	Role           string        // "standalone" (default), "worker", or "coordinator"
	ClusterWorkers []string      // worker base URLs; required for role coordinator
	WorkerAPIKey   string        // API key the coordinator presents to keyed workers
	HeartbeatEvery time.Duration // worker liveness probe cadence, default cluster.DefaultHeartbeatEvery
	ShardTimeout   time.Duration // no-progress bound before a shard is requeued, default cluster.DefaultShardTimeout
	ShardAttempts  int           // attempts per shard before the run fails, default cluster.DefaultMaxAttempts
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxGridPoints <= 0 {
		c.MaxGridPoints = 1 << 20
	}
	if c.SurrogateBudget < 0 {
		c.SurrogateBudget = 0
	}
	if c.SurrogatePopulation < 0 {
		c.SurrogatePopulation = 0
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 8
	} else if c.CheckpointEvery < 0 {
		c.CheckpointEvery = 0
	}
	if c.Role == "" {
		c.Role = "standalone"
	}
	if c.JobStore == "" {
		c.JobStore = "dir"
	}
	if c.RegionTrace == "" {
		c.RegionTrace = "decarb-ramp"
	}
	return c
}

// Server is the assembled service: router, cache, metrics, and pool.
type Server struct {
	cfg     Config
	log     *slog.Logger
	mux     *http.ServeMux
	metrics *Metrics
	cache   *Cache
	pool    *Pool

	inflight atomic.Int64 // HTTP requests currently being served

	// memo is the shared shape-profile cache of the streaming DSE engine:
	// knob-grid requests reuse each (kernel, shape) evaluation across calls.
	memo *cordoba.MemoCache

	// configs indexes every known accelerator ID (grid + 3D) for request
	// resolution without re-enumerating the design space per request.
	configs map[string]cordoba.AcceleratorConfig

	// traces holds the named CI_use(t) registry with each trace's prefix
	// integral prebuilt, so /v1/schedule and trace-aware /v1/dse evaluate
	// in O(log n) per window with no per-request quadrature.
	traces map[string]*cordoba.CumulativeCI

	// jobs is the async exploration queue behind POST /v1/jobs: bounded
	// admission, per-job cancellation, and checkpointed crash-resume.
	jobs *job.Manager

	// cluster is the shard fan-out coordinator, non-nil only when cfg.Role
	// is "coordinator". It owns the worker membership heartbeat and the
	// envelope merge behind shards > 0 job submissions.
	cluster *cluster.Coordinator

	// tenants resolves API keys to tenants: the open single-tenant registry
	// without a TenantFile, the enforced key registry with one.
	tenants *tenant.Registry
}

// New assembles a Server from the configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		log:     cfg.Logger,
		mux:     http.NewServeMux(),
		configs: map[string]cordoba.AcceleratorConfig{},
		traces:  map[string]*cordoba.CumulativeCI{},
	}
	for _, c := range cordoba.Grid() {
		s.configs[c.ID] = c
	}
	for _, c := range cordoba.Stacked3D() {
		s.configs[c.ID] = c
	}
	for _, tr := range cordoba.NamedCITraces() {
		cum, err := cordoba.NewCumulativeCI(tr, 0) // default horizon
		if err != nil {
			// Registry traces are static and validated by their constructors.
			panic(err)
		}
		s.traces[tr.Name()] = cum
	}

	s.metrics = NewMetrics()
	s.pool = NewPool(cfg.PoolSize, cfg.EvalWorkers, s.metrics)
	s.cache = NewCache(cfg.CacheSize)
	s.memo = cordoba.NewMemoCache(cfg.MemoEntries)
	s.metrics.register(s.families)

	s.initTenants()
	s.initJobs()
	s.initCluster()

	s.mux.Handle("POST /v1/accounting", s.instrument("/v1/accounting", s.handleAccounting))
	s.mux.Handle("POST /v1/dse", s.instrument("/v1/dse", s.handleDSE))
	s.mux.Handle("POST /v1/jobs", s.instrument("/v1/jobs", s.handleJobSubmit))
	s.mux.Handle("GET /v1/jobs", s.instrument("/v1/jobs", s.handleJobList))
	s.mux.Handle("GET /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.handleJobGet))
	s.mux.Handle("DELETE /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.handleJobCancel))
	s.mux.Handle("GET /v1/jobs/{id}/result", s.instrument("/v1/jobs/{id}/result", s.handleJobResult))
	s.mux.Handle("GET /v1/jobs/{id}/checkpoint", s.instrument("/v1/jobs/{id}/checkpoint", s.handleJobCheckpoint))
	s.mux.Handle("GET /v1/jobs/{id}/events", s.instrumentStream("/v1/jobs/{id}/events", s.handleJobEvents))
	s.mux.Handle("GET /v1/tenant", s.instrument("/v1/tenant", s.handleTenant))
	s.mux.Handle("GET /v1/cluster", s.instrument("/v1/cluster", s.handleCluster))
	s.mux.Handle("GET /v1/experiments", s.instrument("/v1/experiments", s.handleExperimentsList))
	s.mux.Handle("GET /v1/experiments/{key}", s.instrument("/v1/experiments/{key}", s.handleExperiment))
	s.mux.Handle("GET /v1/traces", s.instrument("/v1/traces", s.handleTraces))
	s.mux.Handle("POST /v1/schedule", s.instrument("/v1/schedule", s.handleSchedule))
	s.mux.Handle("GET /v1/tasks", s.instrument("/v1/tasks", s.handleTasks))
	s.mux.Handle("GET /v1/configs", s.instrument("/v1/configs", s.handleConfigs))
	s.mux.Handle("GET /v1/models", s.instrument("/v1/models", s.handleModels))
	s.mux.Handle("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.Handle("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	return s
}

// families is the collector of the shared memo and the in-flight gauge.
func (s *Server) families() []family {
	hits, misses := s.memo.Stats()
	return []family{
		counter("cordobad_memo_hits_total", "Shape-profile memo cache hits.", hits),
		counter("cordobad_memo_misses_total", "Shape-profile memo cache misses.", misses),
		counter("cordobad_memo_evictions_total", "Shape profiles dropped by capacity eviction.", s.memo.Evictions()),
		gauge("cordobad_memo_entries", "Shape profiles currently cached.", s.memo.Len()),
		gauge("cordobad_inflight_requests", "HTTP requests currently being served.", s.inflight.Load()),
	}
}

// Handler returns the fully instrumented route tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Pool exposes the evaluation worker pool.
func (s *Server) Pool() *Pool { return s.pool }

// Memo exposes the shared shape-profile cache of the streaming DSE engine.
func (s *Server) Memo() *cordoba.MemoCache { return s.memo }

// ListenAndServe serves until ctx is canceled, then shuts down gracefully:
// the listener closes immediately, in-flight requests get grace to drain,
// and only then does the call return.
func (s *Server) ListenAndServe(ctx context.Context, grace time.Duration) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln, grace)
}

// Serve is ListenAndServe on an existing listener (tests bind an ephemeral
// port first to learn the address).
func (s *Server) Serve(ctx context.Context, ln net.Listener, grace time.Duration) error {
	srv := &http.Server{Handler: s.mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	log := s.log

	select {
	case err := <-errc:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}

	log.Info("shutting down, draining in-flight requests", "grace", grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	// Stop the job workers after the HTTP side drains: running jobs
	// checkpoint and requeue so the next start resumes them.
	if err := s.jobs.Stop(shutdownCtx); err != nil {
		log.Warn("job manager shutdown", "err", err)
	}
	if s.cluster != nil {
		s.cluster.Stop()
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
