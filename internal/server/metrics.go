package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"cordoba/api"
	"cordoba/internal/job"
)

// latencyBuckets are the upper bounds (seconds) of the request-duration
// histogram. They bracket the observed spread: a cache hit answers in
// microseconds, a full 121-point grid evaluation in hundreds of
// milliseconds on a loaded box.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// routeMetrics accumulates per-route counters. Everything is lock-free on
// the hot path: status-code counters live in a sync.Map of *atomic.Int64,
// the histogram in a fixed bucket array.
type routeMetrics struct {
	codes sync.Map // int status → *atomic.Int64

	bucketCounts []atomic.Int64 // cumulative at render time, raw per-bucket here
	count        atomic.Int64
	sumNanos     atomic.Int64
}

func (rm *routeMetrics) observe(code int, seconds float64) {
	v, ok := rm.codes.Load(code)
	if !ok {
		v, _ = rm.codes.LoadOrStore(code, new(atomic.Int64))
	}
	v.(*atomic.Int64).Add(1)

	idx := len(latencyBuckets) // +Inf bucket
	for i, ub := range latencyBuckets {
		if seconds <= ub {
			idx = i
			break
		}
	}
	rm.bucketCounts[idx].Add(1)
	rm.count.Add(1)
	rm.sumNanos.Add(int64(seconds * 1e9))
}

// Metrics is cordobad's observability registry: request counts and latency
// histograms per route, cache hits/misses, in-flight requests, and the
// evaluation worker-pool gauges. It renders itself in Prometheus text
// exposition format and is implemented with sync/atomic only.
type Metrics struct {
	mu     sync.Mutex
	routes map[string]*routeMetrics

	inflight    atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	evalInflight atomic.Int64 // grid evaluations currently running
	evalWaiting  atomic.Int64 // requests queued for a pool slot
	poolSize     int

	dseStreamed atomic.Int64 // grid points enumerated by the streaming engine
	dsePruned   atomic.Int64 // of those, proven never-optimal and discarded

	surrogateRuns        atomic.Int64 // surrogate searches served
	surrogateEvals       atomic.Int64 // true evaluations they paid
	surrogateSkipped     atomic.Int64 // candidates the RBF ranking filtered out
	surrogateGenerations atomic.Int64 // NSGA generations run across them

	modelEvals sync.Map // string backend name → *atomic.Int64 design evaluations

	scheduleSearches atomic.Int64 // launch-window searches served
	scheduleWindows  atomic.Int64 // candidate windows evaluated across them
	traceLookups     atomic.Int64 // named-trace resolutions (schedule + dse)

	// memoStats, when set, reports the shared shape-profile memo cache
	// (hits, misses, capacity evictions, live entries) at exposition time.
	memoStats func() (hits, misses, evictions int64, entries int)

	// jobStats, when set, samples the async job manager's counters at
	// exposition time (queue depth, running jobs, lifecycle totals).
	jobStats func() job.Counts

	// tenantStats, when set, samples per-tenant queue populations at
	// exposition time (keyed by tenant name, "" = anonymous).
	tenantStats func() map[string]job.TenantCount

	// clusterStats, when set, samples the shard fan-out coordinator at
	// exposition time (shard counters, per-worker liveness and latency).
	clusterStats func() api.ClusterStatus
}

// NewMetrics returns an empty registry; poolSize is exported as a gauge so
// dashboards can plot utilization = inflight/size.
func NewMetrics(poolSize int) *Metrics {
	return &Metrics{routes: map[string]*routeMetrics{}, poolSize: poolSize}
}

func (m *Metrics) route(name string) *routeMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	rm, ok := m.routes[name]
	if !ok {
		rm = &routeMetrics{bucketCounts: make([]atomic.Int64, len(latencyBuckets)+1)}
		m.routes[name] = rm
	}
	return rm
}

// ObserveRequest records one completed request on a route.
func (m *Metrics) ObserveRequest(route string, code int, seconds float64) {
	m.route(route).observe(code, seconds)
}

// CacheHit / CacheMiss record response-cache outcomes.
func (m *Metrics) CacheHit()  { m.cacheHits.Add(1) }
func (m *Metrics) CacheMiss() { m.cacheMisses.Add(1) }

// CacheCounts returns the (hits, misses) totals.
func (m *Metrics) CacheCounts() (hits, misses int64) {
	return m.cacheHits.Load(), m.cacheMisses.Load()
}

// ObserveDSEStream records one streaming exploration: how many grid points
// it enumerated and how many it proved never-optimal along the way.
func (m *Metrics) ObserveDSEStream(streamed, pruned int64) {
	m.dseStreamed.Add(streamed)
	m.dsePruned.Add(pruned)
}

// DSEStreamCounts returns the (streamed, pruned) point totals.
func (m *Metrics) DSEStreamCounts() (streamed, pruned int64) {
	return m.dseStreamed.Load(), m.dsePruned.Load()
}

// ObserveDSESurrogate records one surrogate-guided search: the true
// evaluations it paid, the candidates its ranking filtered without paying,
// and the generations it ran.
func (m *Metrics) ObserveDSESurrogate(evals, skipped, generations int64) {
	m.surrogateRuns.Add(1)
	m.surrogateEvals.Add(evals)
	m.surrogateSkipped.Add(skipped)
	m.surrogateGenerations.Add(generations)
}

// ObserveModelEvals records n design evaluations priced by the named
// embodied-carbon backend ("act", "chiplet", "stacked-3d").
func (m *Metrics) ObserveModelEvals(model string, n int64) {
	if model == "" {
		model = "act"
	}
	v, ok := m.modelEvals.Load(model)
	if !ok {
		v, _ = m.modelEvals.LoadOrStore(model, new(atomic.Int64))
	}
	v.(*atomic.Int64).Add(n)
}

// ModelEvalCounts returns per-backend evaluation totals.
func (m *Metrics) ModelEvalCounts() map[string]int64 {
	out := map[string]int64{}
	m.modelEvals.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

// ObserveSchedule records one launch-window search and the number of
// candidate windows it evaluated.
func (m *Metrics) ObserveSchedule(candidates int) {
	m.scheduleSearches.Add(1)
	m.scheduleWindows.Add(int64(candidates))
}

// ScheduleCounts returns the (searches, windows) totals.
func (m *Metrics) ScheduleCounts() (searches, windows int64) {
	return m.scheduleSearches.Load(), m.scheduleWindows.Load()
}

// ObserveTraceLookup records one named-trace resolution.
func (m *Metrics) ObserveTraceLookup() { m.traceLookups.Add(1) }

// TraceLookups returns the named-trace resolution total.
func (m *Metrics) TraceLookups() int64 { return m.traceLookups.Load() }

// SetMemoStats installs the memo-cache reporter sampled by WriteProm.
func (m *Metrics) SetMemoStats(f func() (hits, misses, evictions int64, entries int)) {
	m.memoStats = f
}

// SetJobStats installs the job-manager reporter sampled by WriteProm.
func (m *Metrics) SetJobStats(f func() job.Counts) {
	m.jobStats = f
}

// SetTenantStats installs the per-tenant population reporter sampled by
// WriteProm.
func (m *Metrics) SetTenantStats(f func() map[string]job.TenantCount) {
	m.tenantStats = f
}

// SetClusterStats installs the coordinator reporter sampled by WriteProm.
func (m *Metrics) SetClusterStats(f func() api.ClusterStatus) {
	m.clusterStats = f
}

// WriteProm renders the registry in Prometheus text exposition format.
func (m *Metrics) WriteProm(w io.Writer) error {
	m.mu.Lock()
	names := make([]string, 0, len(m.routes))
	for name := range m.routes {
		names = append(names, name)
	}
	routes := make(map[string]*routeMetrics, len(m.routes))
	for name, rm := range m.routes {
		routes[name] = rm
	}
	m.mu.Unlock()
	sort.Strings(names)

	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	p("# HELP cordobad_requests_total Completed HTTP requests by route and status code.\n")
	p("# TYPE cordobad_requests_total counter\n")
	for _, name := range names {
		rm := routes[name]
		type cc struct {
			code int
			n    int64
		}
		var codes []cc
		rm.codes.Range(func(k, v any) bool {
			codes = append(codes, cc{k.(int), v.(*atomic.Int64).Load()})
			return true
		})
		sort.Slice(codes, func(i, j int) bool { return codes[i].code < codes[j].code })
		for _, c := range codes {
			p("cordobad_requests_total{route=%q,code=\"%d\"} %d\n", name, c.code, c.n)
		}
	}

	p("# HELP cordobad_request_duration_seconds Request latency by route.\n")
	p("# TYPE cordobad_request_duration_seconds histogram\n")
	for _, name := range names {
		rm := routes[name]
		var cum int64
		for i, ub := range latencyBuckets {
			cum += rm.bucketCounts[i].Load()
			p("cordobad_request_duration_seconds_bucket{route=%q,le=\"%g\"} %d\n", name, ub, cum)
		}
		cum += rm.bucketCounts[len(latencyBuckets)].Load()
		p("cordobad_request_duration_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", name, cum)
		p("cordobad_request_duration_seconds_sum{route=%q} %g\n", name, float64(rm.sumNanos.Load())/1e9)
		p("cordobad_request_duration_seconds_count{route=%q} %d\n", name, rm.count.Load())
	}

	p("# HELP cordobad_cache_hits_total Response-cache hits.\n")
	p("# TYPE cordobad_cache_hits_total counter\n")
	p("cordobad_cache_hits_total %d\n", m.cacheHits.Load())
	p("# HELP cordobad_cache_misses_total Response-cache misses.\n")
	p("# TYPE cordobad_cache_misses_total counter\n")
	p("cordobad_cache_misses_total %d\n", m.cacheMisses.Load())

	p("# HELP cordobad_dse_points_streamed_total Grid points enumerated by the streaming DSE engine.\n")
	p("# TYPE cordobad_dse_points_streamed_total counter\n")
	p("cordobad_dse_points_streamed_total %d\n", m.dseStreamed.Load())
	p("# HELP cordobad_dse_points_pruned_total Grid points proven never-optimal and discarded while streaming.\n")
	p("# TYPE cordobad_dse_points_pruned_total counter\n")
	p("cordobad_dse_points_pruned_total %d\n", m.dsePruned.Load())
	p("# HELP cordobad_dse_surrogate_runs_total Surrogate-guided Pareto searches served.\n")
	p("# TYPE cordobad_dse_surrogate_runs_total counter\n")
	p("cordobad_dse_surrogate_runs_total %d\n", m.surrogateRuns.Load())
	p("# HELP cordobad_dse_surrogate_evaluations_total True design evaluations paid by surrogate searches.\n")
	p("# TYPE cordobad_dse_surrogate_evaluations_total counter\n")
	p("cordobad_dse_surrogate_evaluations_total %d\n", m.surrogateEvals.Load())
	p("# HELP cordobad_dse_surrogate_skipped_total Candidates filtered by the surrogate ranking without a true evaluation.\n")
	p("# TYPE cordobad_dse_surrogate_skipped_total counter\n")
	p("cordobad_dse_surrogate_skipped_total %d\n", m.surrogateSkipped.Load())
	p("# HELP cordobad_dse_surrogate_generations_total NSGA generations run across surrogate searches.\n")
	p("# TYPE cordobad_dse_surrogate_generations_total counter\n")
	p("cordobad_dse_surrogate_generations_total %d\n", m.surrogateGenerations.Load())

	evals := m.ModelEvalCounts()
	models := make([]string, 0, len(evals))
	for name := range evals {
		models = append(models, name)
	}
	sort.Strings(models)
	p("# HELP cordobad_model_evaluations_total Design evaluations by embodied-carbon backend.\n")
	p("# TYPE cordobad_model_evaluations_total counter\n")
	for _, name := range models {
		p("cordobad_model_evaluations_total{model=%q} %d\n", name, evals[name])
	}

	p("# HELP cordobad_schedule_searches_total Launch-window searches served by POST /v1/schedule.\n")
	p("# TYPE cordobad_schedule_searches_total counter\n")
	p("cordobad_schedule_searches_total %d\n", m.scheduleSearches.Load())
	p("# HELP cordobad_schedule_windows_total Candidate execution windows evaluated across all searches.\n")
	p("# TYPE cordobad_schedule_windows_total counter\n")
	p("cordobad_schedule_windows_total %d\n", m.scheduleWindows.Load())
	p("# HELP cordobad_trace_lookups_total Named CI_use(t) trace resolutions.\n")
	p("# TYPE cordobad_trace_lookups_total counter\n")
	p("cordobad_trace_lookups_total %d\n", m.traceLookups.Load())

	if m.memoStats != nil {
		hits, misses, evictions, entries := m.memoStats()
		p("# HELP cordobad_memo_hits_total Shape-profile memo cache hits.\n")
		p("# TYPE cordobad_memo_hits_total counter\n")
		p("cordobad_memo_hits_total %d\n", hits)
		p("# HELP cordobad_memo_misses_total Shape-profile memo cache misses.\n")
		p("# TYPE cordobad_memo_misses_total counter\n")
		p("cordobad_memo_misses_total %d\n", misses)
		p("# HELP cordobad_memo_evictions_total Shape profiles dropped by capacity eviction.\n")
		p("# TYPE cordobad_memo_evictions_total counter\n")
		p("cordobad_memo_evictions_total %d\n", evictions)
		p("# HELP cordobad_memo_entries Shape profiles currently cached.\n")
		p("# TYPE cordobad_memo_entries gauge\n")
		p("cordobad_memo_entries %d\n", entries)
	}

	if m.jobStats != nil {
		c := m.jobStats()
		p("# HELP cordobad_jobs_queued Jobs waiting for a worker.\n")
		p("# TYPE cordobad_jobs_queued gauge\n")
		p("cordobad_jobs_queued %d\n", c.Queued)
		p("# HELP cordobad_jobs_running Jobs currently executing.\n")
		p("# TYPE cordobad_jobs_running gauge\n")
		p("cordobad_jobs_running %d\n", c.Running)
		p("# HELP cordobad_jobs_finished_total Jobs finished by terminal state.\n")
		p("# TYPE cordobad_jobs_finished_total counter\n")
		p("cordobad_jobs_finished_total{state=\"succeeded\"} %d\n", c.Succeeded)
		p("cordobad_jobs_finished_total{state=\"failed\"} %d\n", c.Failed)
		p("cordobad_jobs_finished_total{state=\"canceled\"} %d\n", c.Canceled)
		p("# HELP cordobad_jobs_submitted_total Jobs accepted by admission control.\n")
		p("# TYPE cordobad_jobs_submitted_total counter\n")
		p("cordobad_jobs_submitted_total %d\n", c.Submitted)
		p("# HELP cordobad_jobs_rejected_total Submissions rejected with 429 queue_full.\n")
		p("# TYPE cordobad_jobs_rejected_total counter\n")
		p("cordobad_jobs_rejected_total %d\n", c.Rejected)
		p("# HELP cordobad_jobs_resumed_total Jobs restarted from a persisted checkpoint.\n")
		p("# TYPE cordobad_jobs_resumed_total counter\n")
		p("cordobad_jobs_resumed_total %d\n", c.Resumed)
		p("# HELP cordobad_jobs_checkpoints_total Checkpoints written by running jobs.\n")
		p("# TYPE cordobad_jobs_checkpoints_total counter\n")
		p("cordobad_jobs_checkpoints_total %d\n", c.Checkpoints)
		p("# HELP cordobad_jobs_quota_rejected_total Submissions rejected with 429 quota_exceeded by a per-tenant limit.\n")
		p("# TYPE cordobad_jobs_quota_rejected_total counter\n")
		p("cordobad_jobs_quota_rejected_total %d\n", c.QuotaRejected)
		p("# HELP cordobad_jobs_deferred_total Deferrable jobs held for a lower-carbon launch window.\n")
		p("# TYPE cordobad_jobs_deferred_total counter\n")
		p("cordobad_jobs_deferred_total %d\n", c.Deferred)
		p("# HELP cordobad_jobs_co2_avoided_grams Operational carbon avoided by deferring jobs to cleaner windows, per the region CI trace.\n")
		p("# TYPE cordobad_jobs_co2_avoided_grams counter\n")
		p("cordobad_jobs_co2_avoided_grams %g\n", c.CO2AvoidedG)
		p("# HELP cordobad_jobs_adopted_total Submissions that resumed from another job's content-addressed checkpoint.\n")
		p("# TYPE cordobad_jobs_adopted_total counter\n")
		p("cordobad_jobs_adopted_total %d\n", c.Adopted)
	}

	if m.tenantStats != nil {
		tc := m.tenantStats()
		tenants := make([]string, 0, len(tc))
		for name := range tc {
			tenants = append(tenants, name)
		}
		sort.Strings(tenants)
		display := func(name string) string {
			if name == "" {
				return "anonymous"
			}
			return name
		}
		p("# HELP cordobad_tenant_jobs Per-tenant job population by state.\n")
		p("# TYPE cordobad_tenant_jobs gauge\n")
		for _, name := range tenants {
			p("cordobad_tenant_jobs{tenant=%q,state=\"queued\"} %d\n", display(name), tc[name].Queued)
			p("cordobad_tenant_jobs{tenant=%q,state=\"running\"} %d\n", display(name), tc[name].Running)
		}
		p("# HELP cordobad_tenant_grid_points_in_flight Per-tenant grid points across queued and running jobs.\n")
		p("# TYPE cordobad_tenant_grid_points_in_flight gauge\n")
		for _, name := range tenants {
			p("cordobad_tenant_grid_points_in_flight{tenant=%q} %d\n", display(name), tc[name].Points)
		}
	}

	if m.clusterStats != nil {
		cs := m.clusterStats()
		p("# HELP cordobad_cluster_shards_dispatched_total Shard attempts sent to workers.\n")
		p("# TYPE cordobad_cluster_shards_dispatched_total counter\n")
		p("cordobad_cluster_shards_dispatched_total %d\n", cs.ShardsDispatched)
		p("# HELP cordobad_cluster_shards_retried_total Shards requeued after a stall, cancellation, or worker loss.\n")
		p("# TYPE cordobad_cluster_shards_retried_total counter\n")
		p("cordobad_cluster_shards_retried_total %d\n", cs.ShardsRetried)
		p("# HELP cordobad_cluster_shards_merged_total Shard envelopes folded into whole-grid results.\n")
		p("# TYPE cordobad_cluster_shards_merged_total counter\n")
		p("cordobad_cluster_shards_merged_total %d\n", cs.ShardsMerged)
		p("# HELP cordobad_cluster_worker_up Worker liveness from the last heartbeat (1 = up).\n")
		p("# TYPE cordobad_cluster_worker_up gauge\n")
		for _, w := range cs.Workers {
			up := 0
			if w.State == "up" {
				up = 1
			}
			p("cordobad_cluster_worker_up{worker=%q} %d\n", w.URL, up)
		}
		p("# HELP cordobad_cluster_worker_shards_total Shards finished per worker by outcome.\n")
		p("# TYPE cordobad_cluster_worker_shards_total counter\n")
		for _, w := range cs.Workers {
			p("cordobad_cluster_worker_shards_total{worker=%q,outcome=\"done\"} %d\n", w.URL, w.ShardsDone)
			p("cordobad_cluster_worker_shards_total{worker=%q,outcome=\"failed\"} %d\n", w.URL, w.ShardsFailed)
		}
		p("# HELP cordobad_cluster_worker_shard_seconds Wall-clock spent on successful shards per worker.\n")
		p("# TYPE cordobad_cluster_worker_shard_seconds summary\n")
		for _, w := range cs.Workers {
			p("cordobad_cluster_worker_shard_seconds_sum{worker=%q} %g\n", w.URL, w.AvgShardS*float64(w.ShardsDone))
			p("cordobad_cluster_worker_shard_seconds_count{worker=%q} %d\n", w.URL, w.ShardsDone)
		}
	}

	p("# HELP cordobad_inflight_requests HTTP requests currently being served.\n")
	p("# TYPE cordobad_inflight_requests gauge\n")
	p("cordobad_inflight_requests %d\n", m.inflight.Load())

	p("# HELP cordobad_pool_size Evaluation worker-pool capacity.\n")
	p("# TYPE cordobad_pool_size gauge\n")
	p("cordobad_pool_size %d\n", m.poolSize)
	p("# HELP cordobad_pool_inflight_evaluations Grid evaluations currently running.\n")
	p("# TYPE cordobad_pool_inflight_evaluations gauge\n")
	p("cordobad_pool_inflight_evaluations %d\n", m.evalInflight.Load())
	p("# HELP cordobad_pool_waiting_requests Requests queued for an evaluation slot.\n")
	p("# TYPE cordobad_pool_waiting_requests gauge\n")
	p("cordobad_pool_waiting_requests %d\n", m.evalWaiting.Load())

	return err
}
