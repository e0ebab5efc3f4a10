package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"cordoba/api"
	"cordoba/internal/job"
)

// jobsBody is a small knob-range request: 6 shapes × 2 cells, enough for
// several per-shape checkpoints while staying fast.
const jobsBody = `{"task":"All kernels","knobs":{"mac_arrays":[1,2,4],"sram_mb":[1,2],"vdd_scales":[1.0,0.9]}}`

func submitJob(t *testing.T, s *Server, body string) api.JobStatus {
	t.Helper()
	w := do(t, s, "POST", "/v1/jobs", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202 (body %s)", w.Code, w.Body)
	}
	return decodeBody[api.JobStatus](t, w)
}

func waitJobState(t *testing.T, s *Server, id string, want api.JobState) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		w := do(t, s, "GET", "/v1/jobs/"+id, "")
		if w.Code != http.StatusOK {
			t.Fatalf("status fetch = %d (body %s)", w.Code, w.Body)
		}
		st := decodeBody[api.JobStatus](t, w)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobLifecycle submits an async DSE job and checks the full happy path:
// 202 on submit, succeeded status with sane progress, a result byte-identical
// to the synchronous endpoint, and the listing knowing the job.
func TestJobLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	st := submitJob(t, s, jobsBody)
	if st.Kind != "dse" || st.ID == "" {
		t.Fatalf("submit status = %+v", st)
	}

	fin := waitJobState(t, s, st.ID, api.JobSucceeded)
	if !fin.HasResult {
		t.Fatalf("succeeded job has no result: %+v", fin)
	}
	if fin.Progress.Streamed != 12 || fin.Progress.ShapesDone != 6 || fin.Progress.ShapesTotal != 6 {
		t.Fatalf("progress = %+v, want 12 streamed over 6/6 shapes", fin.Progress)
	}
	if fin.Progress.GridPoints != 12 {
		t.Fatalf("grid points = %d, want 12", fin.Progress.GridPoints)
	}

	res := do(t, s, "GET", "/v1/jobs/"+st.ID+"/result", "")
	if res.Code != http.StatusOK {
		t.Fatalf("result = %d (body %s)", res.Code, res.Body)
	}
	sync := do(t, s, "POST", "/v1/dse", jobsBody)
	if sync.Code != http.StatusOK {
		t.Fatalf("sync dse = %d (body %s)", sync.Code, sync.Body)
	}
	if !bytes.Equal(res.Body.Bytes(), sync.Body.Bytes()) {
		t.Fatalf("job result differs from the synchronous response:\njob:  %s\nsync: %s", res.Body, sync.Body)
	}

	list := decodeBody[api.JobList](t, do(t, s, "GET", "/v1/jobs", ""))
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Fatalf("job list = %+v", list)
	}

	m := do(t, s, "GET", "/metrics", "")
	for _, want := range []string{
		"cordobad_jobs_submitted_total 1",
		`cordobad_jobs_finished_total{state="succeeded"} 1`,
		"cordobad_jobs_checkpoints_total",
	} {
		if !strings.Contains(m.Body.String(), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, m.Body)
		}
	}
	checkExposition(t, m.Body.String())
}

// TestStoredBodiesExactlySized: a job result and a cached response are kept
// for the daemon's lifetime (up to the job-history and cache bounds), so
// each must be stored at its exact length, with no encoder slack behind it.
func TestStoredBodiesExactlySized(t *testing.T) {
	s := newTestServer(t, Config{})
	var stored json.RawMessage
	s.Jobs().SetRunner("dse", func(ctx context.Context, rc job.RunContext) (json.RawMessage, error) {
		res, err := s.dseRunner(jobKindDSE)(ctx, rc)
		stored = res
		return res, err
	})
	st := submitJob(t, s, jobsBody)
	waitJobState(t, s, st.ID, api.JobSucceeded)
	if len(stored) == 0 || cap(stored) != len(stored) {
		t.Fatalf("job result stored with len %d, cap %d", len(stored), cap(stored))
	}

	if w := do(t, s, "POST", "/v1/dse", jobsBody); w.Code != http.StatusOK {
		t.Fatalf("sync dse = %d (body %s)", w.Code, w.Body)
	}
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	if len(s.cache.entries) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(s.cache.entries))
	}
	for _, el := range s.cache.entries {
		if b := el.Value.(*cacheEntry).resp.Body; cap(b) != len(b) {
			t.Fatalf("cached body stored with len %d, cap %d", len(b), cap(b))
		}
	}
}

// TestJobSubmitInvalid: validation runs at submission, so a bad body is a
// synchronous 400, never a failed job.
func TestJobSubmitInvalid(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, "POST", "/v1/jobs", `{"task":"bogus"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("submit bad task = %d, want 400 (body %s)", w.Code, w.Body)
	}
	env := decodeBody[errEnvelope](t, w)
	if env.Error.Code != "invalid_request" {
		t.Fatalf("code = %q, want invalid_request", env.Error.Code)
	}
	if list := decodeBody[api.JobList](t, do(t, s, "GET", "/v1/jobs", "")); len(list.Jobs) != 0 {
		t.Fatalf("invalid submission created a job: %+v", list)
	}
}

// TestJobSubmitListBodies: set/configs bodies are resolved at submission —
// an unknown set or config name answers the synchronous endpoint's 400, and
// the list's length weighs against the tenant's grid-points quota.
func TestJobSubmitListBodies(t *testing.T) {
	file := writeTenantFile(t, `{"tenants":[{"name":"acme","key":"acme-key","max_grid_points":100}]}`)
	s := newTestServer(t, Config{TenantFile: file})
	for _, body := range []string{
		`{"task":"All kernels","configs":["no-such-config"]}`,
		`{"task":"All kernels","set":"bogus"}`,
	} {
		sync := doAuth(t, s, "POST", "/v1/dse", body, "acme-key")
		w := doAuth(t, s, "POST", "/v1/jobs", body, "acme-key")
		if sync.Code != http.StatusBadRequest || w.Code != http.StatusBadRequest {
			t.Fatalf("%s: sync = %d, submit = %d, want 400 for both (body %s)", body, sync.Code, w.Code, w.Body)
		}
		if got, want := decodeBody[errEnvelope](t, w).Error.Message, decodeBody[errEnvelope](t, sync).Error.Message; got != want {
			t.Fatalf("%s: submit message %q, want the sync endpoint's %q", body, got, want)
		}
	}
	if list := decodeBody[api.JobList](t, doAuth(t, s, "GET", "/v1/jobs", "", "acme-key")); len(list.Jobs) != 0 {
		t.Fatalf("invalid list submissions created jobs: %+v", list)
	}

	// The 7-configuration set fits the quota; the 121-configuration grid
	// does not.
	if w := doAuth(t, s, "POST", "/v1/jobs", `{"task":"All kernels","set":"3d"}`, "acme-key"); w.Code != http.StatusAccepted {
		t.Fatalf("3d set submit = %d, want 202 (body %s)", w.Code, w.Body)
	}
	w := doAuth(t, s, "POST", "/v1/jobs", `{"task":"All kernels","set":"grid"}`, "acme-key")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("121-point grid submit = %d, want 429 (body %s)", w.Code, w.Body)
	}
	if env := decodeBody[errEnvelope](t, w); env.Error.Code != "quota_exceeded" {
		t.Fatalf("code = %q, want quota_exceeded", env.Error.Code)
	}
}

// TestJobQueueFull: with one worker busy and the queue at depth, the next
// submission is rejected with 429, a queue_full code, and a Retry-After hint.
func TestJobQueueFull(t *testing.T) {
	s := newTestServer(t, Config{JobWorkers: 1, JobQueue: 1})
	gate := make(chan struct{})
	s.Jobs().SetRunner("dse", func(ctx context.Context, rc job.RunContext) (json.RawMessage, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return json.RawMessage("{}\n"), nil
	})
	defer close(gate)

	running := submitJob(t, s, jobsBody)
	waitJobState(t, s, running.ID, api.JobRunning)
	submitJob(t, s, jobsBody) // fills the queue

	w := do(t, s, "POST", "/v1/jobs", jobsBody)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit = %d, want 429 (body %s)", w.Code, w.Body)
	}
	env := decodeBody[errEnvelope](t, w)
	if env.Error.Code != "queue_full" {
		t.Fatalf("code = %q, want queue_full", env.Error.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive hint", ra)
	}
	if !strings.Contains(do(t, s, "GET", "/metrics", "").Body.String(), "cordobad_jobs_rejected_total 1") {
		t.Fatal("/metrics missing the rejection count")
	}
}

// TestJobCancel cancels a running job and checks the result endpoint's
// job_canceled conflict.
func TestJobCancel(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Jobs().SetRunner("dse", func(ctx context.Context, rc job.RunContext) (json.RawMessage, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})

	st := submitJob(t, s, jobsBody)
	waitJobState(t, s, st.ID, api.JobRunning)
	if w := do(t, s, "DELETE", "/v1/jobs/"+st.ID, ""); w.Code != http.StatusOK {
		t.Fatalf("cancel = %d (body %s)", w.Code, w.Body)
	}
	waitJobState(t, s, st.ID, api.JobCanceled)

	w := do(t, s, "GET", "/v1/jobs/"+st.ID+"/result", "")
	if w.Code != http.StatusConflict {
		t.Fatalf("result of canceled job = %d, want 409 (body %s)", w.Code, w.Body)
	}
	if env := decodeBody[errEnvelope](t, w); env.Error.Code != "job_canceled" {
		t.Fatalf("code = %q, want job_canceled", env.Error.Code)
	}
}

// TestJobResultNotReady: fetching the result of a still-running job is a 409
// not_ready; unknown IDs are clean 404 not_found.
func TestJobResultNotReady(t *testing.T) {
	s := newTestServer(t, Config{})
	gate := make(chan struct{})
	s.Jobs().SetRunner("dse", func(ctx context.Context, rc job.RunContext) (json.RawMessage, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return json.RawMessage("{}\n"), nil
	})
	defer close(gate)

	st := submitJob(t, s, jobsBody)
	waitJobState(t, s, st.ID, api.JobRunning)
	w := do(t, s, "GET", "/v1/jobs/"+st.ID+"/result", "")
	if w.Code != http.StatusConflict {
		t.Fatalf("result of running job = %d, want 409 (body %s)", w.Code, w.Body)
	}
	if env := decodeBody[errEnvelope](t, w); env.Error.Code != "not_ready" {
		t.Fatalf("code = %q, want not_ready", env.Error.Code)
	}

	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result"} {
		w := do(t, s, "GET", path, "")
		if w.Code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, w.Code)
		}
		if env := decodeBody[errEnvelope](t, w); env.Error.Code != "not_found" {
			t.Fatalf("code = %q, want not_found", env.Error.Code)
		}
	}
	if w := do(t, s, "DELETE", "/v1/jobs/nope", ""); w.Code != http.StatusNotFound {
		t.Fatalf("DELETE unknown job = %d, want 404", w.Code)
	}
}

// TestJobFailed: a runner error surfaces as a failed job whose result fetch
// is a 409 job_failed carrying the message.
func TestJobFailed(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Jobs().SetRunner("dse", func(ctx context.Context, rc job.RunContext) (json.RawMessage, error) {
		return nil, fmt.Errorf("the fab caught fire")
	})
	st := submitJob(t, s, jobsBody)
	fin := waitJobState(t, s, st.ID, api.JobFailed)
	if !strings.Contains(fin.Error, "fab caught fire") {
		t.Fatalf("job error = %q", fin.Error)
	}
	w := do(t, s, "GET", "/v1/jobs/"+st.ID+"/result", "")
	if w.Code != http.StatusConflict {
		t.Fatalf("result of failed job = %d, want 409", w.Code)
	}
	env := decodeBody[errEnvelope](t, w)
	if env.Error.Code != "job_failed" || !strings.Contains(env.Error.Message, "fab caught fire") {
		t.Fatalf("envelope = %+v", env.Error)
	}
}

// interruptAfterRC wraps a job.RunContext to unblock a test channel after N
// checkpoint saves, then stall until the job context dies — simulating a
// process killed mid-exploration with checkpoints on disk.
type interruptAfterRC struct {
	job.RunContext
	ctx   context.Context
	after int
	saves int
	hit   chan<- struct{}
}

func (rc *interruptAfterRC) SaveCheckpoint(cp json.RawMessage) error {
	if err := rc.RunContext.SaveCheckpoint(cp); err != nil {
		return err
	}
	rc.saves++
	if rc.saves == rc.after {
		close(rc.hit)
		<-rc.ctx.Done()
		return rc.ctx.Err()
	}
	return nil
}

// TestJobCrashResume is the end-to-end crash-resume guarantee: a server is
// stopped after the job's second checkpoint, a fresh server on the same job
// directory resumes the job from disk, and the final result is byte-identical
// to an uninterrupted synchronous run.
func TestJobCrashResume(t *testing.T) {
	dir := t.TempDir()

	s1 := newTestServer(t, Config{JobDir: dir, JobWorkers: 1, CheckpointEvery: 1})
	hit := make(chan struct{})
	s1.Jobs().SetRunner("dse", func(ctx context.Context, rc job.RunContext) (json.RawMessage, error) {
		return s1.dseRunner(jobKindDSE)(ctx, &interruptAfterRC{RunContext: rc, ctx: ctx, after: 2, hit: hit})
	})

	st := submitJob(t, s1, jobsBody)
	select {
	case <-hit:
	case <-time.After(10 * time.Second):
		t.Fatal("job never reached its second checkpoint")
	}
	// "Kill" the process: stop the workers; the interrupted job requeues
	// with its checkpoint persisted under dir.
	if err := s1.Close(); err != nil {
		t.Fatalf("stopping first server: %v", err)
	}

	// Restart: a fresh server over the same directory recovers the queue and
	// resumes the job from checkpoint #2.
	s2 := newTestServer(t, Config{JobDir: dir, JobWorkers: 1, CheckpointEvery: 1})
	fin := waitJobState(t, s2, st.ID, api.JobSucceeded)
	if fin.Resumes < 1 {
		t.Fatalf("resumes = %d, want >= 1", fin.Resumes)
	}

	res := do(t, s2, "GET", "/v1/jobs/"+st.ID+"/result", "")
	if res.Code != http.StatusOK {
		t.Fatalf("result = %d (body %s)", res.Code, res.Body)
	}
	sync := do(t, s2, "POST", "/v1/dse", jobsBody)
	if sync.Code != http.StatusOK {
		t.Fatalf("sync dse = %d", sync.Code)
	}
	if !bytes.Equal(res.Body.Bytes(), sync.Body.Bytes()) {
		t.Fatalf("resumed job result is not bit-identical to the uninterrupted run:\njob:  %s\nsync: %s",
			res.Body, sync.Body)
	}

	var resumed, full DSEResponse
	if err := json.Unmarshal(res.Body.Bytes(), &resumed); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(sync.Body.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	if resumed.PointsStreamed != full.PointsStreamed || len(resumed.EverOptimal) != len(full.EverOptimal) {
		t.Fatalf("survivor sets differ: resumed %+v vs full %+v", resumed, full)
	}
}
