package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"cordoba"
	"cordoba/api"
	"cordoba/internal/job"
)

// The daemon's job kinds, each naming the engine a DSE job runs on. The job
// manager itself is kind-agnostic; planDSE picks the kind at submission and
// a job runs under the kind it recorded.
const (
	// jobKindDSE is an asynchronous POST /v1/dse body run locally.
	jobKindDSE = "dse"
	// jobKindShardDSE is one shard of a knob grid (request carries "shard");
	// its result is the shard's survivor envelope, not a DSE response.
	jobKindShardDSE = "dse-shard"
	// jobKindClusterDSE is a coordinator-side fan-out (request carries
	// "shards"): dispatch shards to workers, merge envelopes, render the
	// whole-grid response.
	jobKindClusterDSE = "dse-cluster"
	// jobKindSurrogateDSE is a knob-range request served by the budgeted
	// surrogate search (search: "surrogate", or auto-selected for grids above
	// the exhaustive cap). Checkpoints per generation; resumed runs are
	// byte-identical to uninterrupted ones under the fixed seed.
	jobKindSurrogateDSE = "dse-surrogate"
)

// initJobs assembles the async job subsystem: the bounded manager with the
// DSE runner registered under every DSE kind, plus the cordobad_jobs_* and
// cordobad_tenant_* families. The checkpoint store behind it is pluggable:
// "dir" files jobs by ID, "cas" files them by content hash so any daemon
// sharing the directory can adopt another's orphaned checkpoints.
func (s *Server) initJobs() {
	var store job.Store
	if s.cfg.JobDir != "" {
		var err error
		switch s.cfg.JobStore {
		case "dir":
			store, err = job.NewDirStore(s.cfg.JobDir)
		case "cas":
			store, err = job.NewCASStore(s.cfg.JobDir)
		default:
			err = fmt.Errorf("unknown job store %q (want dir or cas)", s.cfg.JobStore)
		}
		if err != nil {
			// An unusable -job-dir or store name should surface at startup,
			// not on the first submission.
			panic(err)
		}
	}
	m, err := job.NewManager(job.Config{
		Workers:    s.cfg.JobWorkers,
		QueueDepth: s.cfg.JobQueue,
		Store:      store,
		Logger:     s.log,
	})
	if err != nil {
		panic(err)
	}
	for _, kind := range []string{jobKindDSE, jobKindShardDSE, jobKindClusterDSE, jobKindSurrogateDSE} {
		m.SetRunner(kind, s.dseRunner(kind))
	}
	for kind, r := range s.cfg.Runners {
		m.SetRunner(kind, r)
	}
	s.jobs = m
	s.metrics.register(func() []family {
		return append(jobFamilies(m.Counts()), tenantFamilies(m.TenantCounts())...)
	})
	m.Start()
}

// jobFamilies renders the job manager's population and lifetime counters
// from one Counts snapshot.
func jobFamilies(c job.Counts) []family {
	return []family{
		gauge("cordobad_jobs_queued", "Jobs waiting for a worker.", c.Queued),
		gauge("cordobad_jobs_running", "Jobs currently executing.", c.Running),
		{"cordobad_jobs_finished_total", "counter", "Jobs finished by terminal state.", func(w *sampleWriter) {
			w.sample("", c.Succeeded, "state", "succeeded")
			w.sample("", c.Failed, "state", "failed")
			w.sample("", c.Canceled, "state", "canceled")
		}},
		counter("cordobad_jobs_submitted_total", "Jobs accepted by admission control.", c.Submitted),
		counter("cordobad_jobs_rejected_total", "Submissions rejected with 429 queue_full.", c.Rejected),
		counter("cordobad_jobs_resumed_total", "Jobs restarted from a persisted checkpoint.", c.Resumed),
		counter("cordobad_jobs_checkpoints_total", "Checkpoints written by running jobs.", c.Checkpoints),
		counter("cordobad_jobs_quota_rejected_total", "Submissions rejected with 429 quota_exceeded by a per-tenant limit.", c.QuotaRejected),
		counter("cordobad_jobs_deferred_total", "Deferrable jobs held for a lower-carbon launch window.", c.Deferred),
		counter("cordobad_jobs_co2_avoided_grams", "Operational carbon avoided by deferring jobs to cleaner windows, per the region CI trace.", c.CO2AvoidedG),
		counter("cordobad_jobs_adopted_total", "Submissions that resumed from another job's content-addressed checkpoint.", c.Adopted),
	}
}

// tenantFamilies renders per-tenant job populations ("" is the anonymous
// tenant) from one TenantCounts snapshot.
func tenantFamilies(tc map[string]job.TenantCount) []family {
	names := make([]string, 0, len(tc))
	for name := range tc {
		names = append(names, name)
	}
	slices.Sort(names)
	display := func(name string) string {
		if name == "" {
			return "anonymous"
		}
		return name
	}
	return []family{
		{"cordobad_tenant_jobs", "gauge", "Per-tenant job population by state.", func(w *sampleWriter) {
			for _, name := range names {
				w.sample("", tc[name].Queued, "tenant", display(name), "state", "queued")
				w.sample("", tc[name].Running, "tenant", display(name), "state", "running")
			}
		}},
		{"cordobad_tenant_grid_points_in_flight", "gauge", "Per-tenant grid points across queued and running jobs.", func(w *sampleWriter) {
			for _, name := range names {
				w.sample("", tc[name].Points, "tenant", display(name))
			}
		}},
	}
}

// Jobs exposes the job manager (tests and the daemon banner).
func (s *Server) Jobs() *job.Manager { return s.jobs }

// Close stops the job workers, giving running jobs a moment to checkpoint
// and requeue, and halts the cluster heartbeat on coordinators. The HTTP
// side is unaffected; Serve calls this on drain.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.jobs.Stop(ctx)
	if s.cluster != nil {
		s.cluster.Stop()
	}
	return err
}

// ---- POST /v1/jobs ----

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) error {
	var req DSERequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		return err
	}
	if !req.Priority.Valid() {
		return errc(http.StatusBadRequest, api.CodePriorityInvalid,
			"unknown priority %q (want interactive, batch, or deferrable)", req.Priority)
	}
	// Validate, resolve and size at submission, so a bad body, an over-cap
	// or out-of-range grid, or an unknown name is a 400 now, not a failed
	// job the client has to poll to discover. The plan's points are the
	// job's weight against the tenant's grid-points quota.
	req, err := defaultDSE(req)
	if err != nil {
		return err
	}
	p, err := s.planDSE(req, "")
	if err != nil {
		return err
	}
	raw, err := json.Marshal(req)
	if err != nil {
		return err
	}
	tn := s.requestTenant(r)
	sub := job.Submission{
		Kind:    p.kind,
		Request: raw,
		Tenant:  tn.OwnerName(),
		Limits: job.Limits{
			Weight:    tn.Weight,
			MaxQueued: tn.MaxQueuedJobs,
			MaxPoints: tn.MaxGridPoints,
		},
		Priority: req.Priority,
		Points:   p.points,
	}
	if req.Priority == api.PriorityDeferrable {
		notBefore, avoided, err := s.planDeferral(req)
		if err != nil {
			return err
		}
		sub.NotBefore, sub.CO2AvoidedG = notBefore, avoided
	}
	st, err := s.jobs.SubmitJob(sub)
	var qe *job.QuotaError
	switch {
	case errors.Is(err, job.ErrQueueFull):
		return &apiError{
			status:     http.StatusTooManyRequests,
			code:       api.CodeQueueFull,
			msg:        err.Error(),
			retryAfter: s.jobs.RetryAfter(),
		}
	case errors.As(err, &qe):
		return &apiError{
			status:     http.StatusTooManyRequests,
			code:       api.CodeQuotaExceeded,
			msg:        qe.Error(),
			retryAfter: s.jobs.RetryAfter(),
		}
	case err != nil:
		return err
	}
	_, err = writeJSON(w, http.StatusAccepted, jobStatusWire(st))
	return err
}

// Deferrable launch-window defaults: the window search needs a nominal job
// shape, and a quarter-hour at a mid-size accelerator's board power is a
// representative exploration. The deadline is the only knob a request can
// move (defer_deadline_s); the others exist to rank start times, where only
// the CI trace's shape matters.
const (
	deferDurationS = 900.0   // 15 min nominal run length
	deferPowerW    = 350.0   // nominal board power
	deferDeadlineS = 86400.0 // latest acceptable finish: a day out
)

// planDeferral routes a deferrable submission through the launch-window
// search over the daemon's region CI trace (-region-trace): the job is held
// until the lowest-carbon window inside the deadline, and the operational
// carbon that avoids versus running immediately is recorded on the job and
// summed in /metrics.
func (s *Server) planDeferral(req DSERequest) (time.Time, float64, error) {
	cum, ok := s.traces[s.cfg.RegionTrace]
	if !ok {
		return time.Time{}, 0, errf(http.StatusInternalServerError,
			"region trace %q not in registry", s.cfg.RegionTrace)
	}
	deadline := req.DeferDeadlineS
	if deadline <= 0 {
		deadline = deferDeadlineS
	}
	s.metrics.ObserveTraceLookup()
	plan, err := cordoba.FindLaunchWindow(cum, cordoba.WindowRequest{
		Duration: cordoba.Time(deferDurationS),
		Power:    cordoba.Power(deferPowerW),
		Deadline: cordoba.Time(deadline),
	})
	if err != nil {
		return time.Time{}, 0, errf(http.StatusBadRequest, "defer window: %v", err)
	}
	s.metrics.ObserveSchedule(plan.Candidates)
	start := plan.Best.Start.Seconds()
	if start <= 0 {
		return time.Time{}, 0, nil // now is already the cleanest start
	}
	notBefore := time.Now().UTC().Add(time.Duration(start * float64(time.Second)))
	avoided := plan.Immediate.Carbon.Grams() - plan.Best.Carbon.Grams()
	return notBefore, avoided, nil
}

// ---- GET /v1/jobs and /v1/jobs/{id} ----

// jobListQuery is the parsed GET /v1/jobs query string.
type jobListQuery struct {
	state    job.State    // "" = all
	priority api.Priority // "" = all (an explicit "batch" also matches unset)
	limit    int
	// cursor resumes after the (created, id) position of the previous
	// page's last entry; zero created means first page.
	cursorCreated time.Time
	cursorID      string
}

const (
	defaultJobPageSize = 100
	maxJobPageSize     = 500
)

// parseJobListQuery validates ?state=&priority=&limit=&cursor=. Cursors are
// opaque base64("<created_unixnano>|<id>") minted by jobListCursor; a
// malformed one is a 400, not a silent restart from page one.
func parseJobListQuery(q url.Values) (jobListQuery, error) {
	out := jobListQuery{limit: defaultJobPageSize}
	if v := q.Get("state"); v != "" {
		switch job.State(v) {
		case job.StateQueued, job.StateRunning, job.StateSucceeded, job.StateFailed, job.StateCanceled:
			out.state = job.State(v)
		default:
			return out, errf(http.StatusBadRequest, "unknown state %q", v)
		}
	}
	if v := q.Get("priority"); v != "" {
		p := api.Priority(v)
		if !p.Valid() {
			return out, errc(http.StatusBadRequest, api.CodePriorityInvalid,
				"unknown priority %q (want interactive, batch, or deferrable)", v)
		}
		out.priority = p
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return out, errf(http.StatusBadRequest, "limit must be a positive integer, got %q", v)
		}
		if n > maxJobPageSize {
			n = maxJobPageSize
		}
		out.limit = n
	}
	if v := q.Get("cursor"); v != "" {
		b, err := base64.StdEncoding.DecodeString(v)
		if err != nil {
			return out, errf(http.StatusBadRequest, "malformed cursor")
		}
		nanos, id, ok := strings.Cut(string(b), "|")
		n, perr := strconv.ParseInt(nanos, 10, 64)
		if !ok || perr != nil || id == "" {
			return out, errf(http.StatusBadRequest, "malformed cursor")
		}
		out.cursorCreated = time.Unix(0, n).UTC()
		out.cursorID = id
	}
	return out, nil
}

// jobListCursor mints the opaque continuation token for a page ending at st.
func jobListCursor(st job.Status) string {
	return base64.StdEncoding.EncodeToString(
		[]byte(strconv.FormatInt(st.Created.UnixNano(), 10) + "|" + st.ID))
}

// matches applies the state/priority filters.
func (q jobListQuery) matches(st job.Status) bool {
	if q.state != "" && st.State != q.state {
		return false
	}
	if q.priority != "" && st.Priority.OrDefault() != q.priority.OrDefault() {
		return false
	}
	return true
}

// after reports whether st sorts strictly after the cursor position in the
// listing's (created desc, id desc) order — i.e. belongs to a later page.
func (q jobListQuery) after(st job.Status) bool {
	if q.cursorCreated.IsZero() {
		return true
	}
	if !st.Created.Equal(q.cursorCreated) {
		return st.Created.Before(q.cursorCreated)
	}
	return st.ID < q.cursorID
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) error {
	q, err := parseJobListQuery(r.URL.Query())
	if err != nil {
		return err
	}
	sts := s.jobs.List() // newest first: (created desc, id desc)
	out := api.JobList{Jobs: make([]api.JobStatus, 0, min(len(sts), q.limit))}
	var last job.Status
	for _, st := range sts {
		if !q.matches(st) || !q.after(st) {
			continue
		}
		if len(out.Jobs) == q.limit {
			// One more match exists beyond the page: the cursor resumes
			// after the page's last entry. Keyed on (created, id) rather
			// than an offset, the cursor stays stable while new jobs arrive
			// at the head of the listing.
			out.NextCursor = jobListCursor(last)
			break
		}
		out.Jobs = append(out.Jobs, jobStatusWire(st))
		last = st
	}
	_, err = writeJSON(w, http.StatusOK, out)
	return err
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) error {
	st, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		return jobLookupError(r.PathValue("id"), err)
	}
	_, err = writeJSON(w, http.StatusOK, jobStatusWire(st))
	return err
}

// ---- DELETE /v1/jobs/{id} ----

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) error {
	st, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		return jobLookupError(r.PathValue("id"), err)
	}
	_, err = writeJSON(w, http.StatusOK, jobStatusWire(st))
	return err
}

// ---- GET /v1/jobs/{id}/result ----

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) error {
	result, st, err := s.jobs.Result(r.PathValue("id"))
	if err != nil {
		return jobLookupError(r.PathValue("id"), err)
	}
	switch st.State {
	case job.StateSucceeded:
		// The runner stored the bytes pre-rendered by the same marshaler the
		// synchronous endpoint uses, so the two paths answer byte-identically.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, err := w.Write(result)
		return err
	case job.StateFailed:
		return errc(http.StatusConflict, api.CodeJobFailed, "job %s failed: %s", st.ID, st.Error)
	case job.StateCanceled:
		return errc(http.StatusConflict, api.CodeJobCanceled, "job %s was canceled", st.ID)
	default:
		return errc(http.StatusConflict, api.CodeNotReady, "job %s is %s; retry after it finishes", st.ID, st.State)
	}
}

func jobLookupError(id string, err error) error {
	if errors.Is(err, job.ErrNotFound) {
		return errf(http.StatusNotFound, "unknown job %q", id)
	}
	return err
}

// jobStatusWire renders a manager status in the public wire form, deriving
// elapsed time and the ETA extrapolation.
func jobStatusWire(st job.Status) api.JobStatus {
	out := api.JobStatus{
		ID:       st.ID,
		Kind:     st.Kind,
		Tenant:   st.Tenant,
		Priority: st.Priority,
		State: map[job.State]api.JobState{
			job.StateQueued:    api.JobQueued,
			job.StateRunning:   api.JobRunning,
			job.StateSucceeded: api.JobSucceeded,
			job.StateFailed:    api.JobFailed,
			job.StateCanceled:  api.JobCanceled,
		}[st.State],
		Error: st.Error,
		Progress: api.JobProgress{
			GridPoints:  st.Progress.GridPoints,
			Streamed:    st.Progress.Streamed,
			Pruned:      st.Progress.Pruned,
			Kept:        st.Progress.Kept,
			ShapesDone:  st.Progress.ShapesDone,
			ShapesTotal: st.Progress.ShapesTotal,
			ShardsDone:  st.Progress.ShardsDone,
			ShardsTotal: st.Progress.ShardsTotal,
			Generation:  st.Progress.Generation,
			EvalsUsed:   st.Progress.EvalsUsed,
			EvalsBudget: st.Progress.EvalsBudget,
		},
		CreatedAt:    st.Created,
		NotBefore:    st.NotBefore,
		CO2AvoidedG:  st.CO2AvoidedG,
		Resumes:      st.Resumes,
		Checkpointed: st.HasCheckpoint,
		HasResult:    st.HasResult,
	}
	if !st.Started.IsZero() {
		t := st.Started
		out.StartedAt = &t
		end := time.Now()
		if !st.Finished.IsZero() {
			t2 := st.Finished
			out.FinishedAt = &t2
			end = st.Finished
		}
		elapsed := end.Sub(st.Started).Seconds()
		if elapsed > 0 {
			out.Progress.ElapsedS = elapsed
		}
		if st.State == job.StateRunning && st.Progress.ShapesDone > 0 && st.Progress.ShapesTotal > st.Progress.ShapesDone {
			perShape := elapsed / float64(st.Progress.ShapesDone)
			out.Progress.ETAS = perShape * float64(st.Progress.ShapesTotal-st.Progress.ShapesDone)
		} else if st.State == job.StateRunning && st.Progress.ShardsDone > 0 && st.Progress.ShardsTotal > st.Progress.ShardsDone {
			// Cluster jobs progress in shards, not local shapes.
			perShard := elapsed / float64(st.Progress.ShardsDone)
			out.Progress.ETAS = perShard * float64(st.Progress.ShardsTotal-st.Progress.ShardsDone)
		} else if st.State == job.StateRunning && st.Progress.EvalsUsed > 0 && st.Progress.EvalsBudget > st.Progress.EvalsUsed {
			// Surrogate jobs progress in true evaluations against the budget.
			perEval := elapsed / float64(st.Progress.EvalsUsed)
			out.Progress.ETAS = perEval * float64(st.Progress.EvalsBudget-st.Progress.EvalsUsed)
		}
	}
	return out
}
