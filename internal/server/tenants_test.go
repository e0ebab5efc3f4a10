package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"cordoba"
	"cordoba/api"
	"cordoba/internal/job"
)

// writeTenantFile drops a key file into a temp dir and returns its path.
func writeTenantFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// doAuth is do with an API key attached as a bearer token.
func doAuth(t *testing.T, s *Server, method, path, body, key string) *httptest.ResponseRecorder {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rdr)
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// TestAuthEnforced: with a key file that does not admit anonymous callers,
// missing and unknown keys are clean 401s with the unauthorized code, valid
// keys resolve to their tenant, and /healthz + /metrics stay public.
func TestAuthEnforced(t *testing.T) {
	file := writeTenantFile(t, `{"tenants":[
		{"name":"acme","key":"acme-key","weight":4,"max_queued_jobs":7,"max_grid_points":100}
	]}`)
	s := newTestServer(t, Config{TenantFile: file})

	for _, key := range []string{"", "wrong-key"} {
		w := doAuth(t, s, "GET", "/v1/tenant", "", key)
		if w.Code != http.StatusUnauthorized {
			t.Fatalf("key %q = %d, want 401 (body %s)", key, w.Code, w.Body)
		}
		if env := decodeBody[errEnvelope](t, w); env.Error.Code != "unauthorized" {
			t.Fatalf("code = %q, want unauthorized", env.Error.Code)
		}
	}

	w := doAuth(t, s, "GET", "/v1/tenant", "", "acme-key")
	if w.Code != http.StatusOK {
		t.Fatalf("valid key = %d (body %s)", w.Code, w.Body)
	}
	ts := decodeBody[api.TenantStatus](t, w)
	if ts.Tenant.Name != "acme" || ts.Tenant.Weight != 4 || ts.Tenant.MaxQueuedJobs != 7 {
		t.Fatalf("tenant = %+v", ts.Tenant)
	}
	if ts.Quota.QueuedJobs != 0 || ts.Quota.MaxGridPoints != 100 {
		t.Fatalf("quota = %+v", ts.Quota)
	}

	// X-API-Key is the fallback header for clients that can't set a bearer.
	req := httptest.NewRequest("GET", "/v1/tenant", nil)
	req.Header.Set("X-API-Key", "acme-key")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("X-API-Key = %d, want 200", rec.Code)
	}

	// Probes and scrapers carry no keys; those routes bypass auth.
	for _, path := range []string{"/healthz", "/metrics"} {
		if w := do(t, s, "GET", path, ""); w.Code != http.StatusOK {
			t.Fatalf("GET %s unauthenticated = %d, want 200", path, w.Code)
		}
	}
}

// TestAuthAnonymousAdmitted: allow_anonymous serves keyless requests as the
// anonymous tenant under its configured limits.
func TestAuthAnonymousAdmitted(t *testing.T) {
	file := writeTenantFile(t, `{"allow_anonymous":true,
		"anonymous":{"max_grid_points":5},
		"tenants":[{"name":"acme","key":"acme-key"}]}`)
	s := newTestServer(t, Config{TenantFile: file})

	w := do(t, s, "GET", "/v1/tenant", "")
	if w.Code != http.StatusOK {
		t.Fatalf("anonymous = %d (body %s)", w.Code, w.Body)
	}
	ts := decodeBody[api.TenantStatus](t, w)
	if ts.Tenant.Name != "anonymous" || ts.Tenant.MaxGridPoints != 5 {
		t.Fatalf("tenant = %+v", ts.Tenant)
	}
}

// TestTenantOpenMode: with no key file, every caller is the unlimited
// anonymous tenant — the single-tenant daemon's behavior.
func TestTenantOpenMode(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := decodeBody[api.TenantStatus](t, do(t, s, "GET", "/v1/tenant", ""))
	if ts.Tenant.Name != "anonymous" || ts.Tenant.Weight != 1 {
		t.Fatalf("tenant = %+v", ts.Tenant)
	}
	if ts.Tenant.MaxQueuedJobs != 0 || ts.Tenant.MaxGridPoints != 0 || ts.Tenant.RatePerSec != 0 {
		t.Fatalf("open-mode tenant has limits: %+v", ts.Tenant)
	}
}

// TestRateLimit429: a tenant with burst 1 gets its second immediate request
// rejected with 429, the quota_exceeded code, and a Retry-After hint.
func TestRateLimit429(t *testing.T) {
	file := writeTenantFile(t, `{"tenants":[
		{"name":"zeta","key":"zeta-key","rate_per_sec":0.5,"burst":1}
	]}`)
	s := newTestServer(t, Config{TenantFile: file})

	if w := doAuth(t, s, "GET", "/v1/tenant", "", "zeta-key"); w.Code != http.StatusOK {
		t.Fatalf("first request = %d (body %s)", w.Code, w.Body)
	}
	w := doAuth(t, s, "GET", "/v1/tenant", "", "zeta-key")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429 (body %s)", w.Code, w.Body)
	}
	if env := decodeBody[errEnvelope](t, w); env.Error.Code != "quota_exceeded" {
		t.Fatalf("code = %q, want quota_exceeded", env.Error.Code)
	}
	ra, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive whole-second hint", w.Header().Get("Retry-After"))
	}
}

// TestQuotaGridPoints: a submission whose grid would push the tenant past
// max_grid_points is rejected synchronously with 429 quota_exceeded.
func TestQuotaGridPoints(t *testing.T) {
	file := writeTenantFile(t, `{"allow_anonymous":true,
		"anonymous":{"max_grid_points":5},
		"tenants":[{"name":"acme","key":"acme-key"}]}`)
	s := newTestServer(t, Config{TenantFile: file})

	// jobsBody is a 12-point grid; anonymous is capped at 5.
	w := do(t, s, "POST", "/v1/jobs", jobsBody)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d, want 429 (body %s)", w.Code, w.Body)
	}
	env := decodeBody[errEnvelope](t, w)
	if env.Error.Code != "quota_exceeded" || !strings.Contains(env.Error.Message, "grid points") {
		t.Fatalf("envelope = %+v", env.Error)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("missing Retry-After on quota rejection")
	}

	// The uncapped keyed tenant submits the same grid fine.
	if w := doAuth(t, s, "POST", "/v1/jobs", jobsBody, "acme-key"); w.Code != http.StatusAccepted {
		t.Fatalf("acme submit = %d, want 202 (body %s)", w.Code, w.Body)
	}
	if !strings.Contains(do(t, s, "GET", "/metrics", "").Body.String(), "cordobad_jobs_quota_rejected_total 1") {
		t.Fatal("/metrics missing the quota rejection count")
	}
}

// TestQuotaGridPointsShard: a shard job weighs its own share of the grid
// against max_grid_points — the points the worker evaluates — not the whole
// grid it was cut from.
func TestQuotaGridPointsShard(t *testing.T) {
	file := writeTenantFile(t, `{"allow_anonymous":true,"anonymous":{"max_grid_points":5},
		"tenants":[{"name":"acme","key":"acme-key"}]}`)
	s := newTestServer(t, Config{TenantFile: file})

	// One shape of jobsBody's 12-point grid is 2 points: inside the quota.
	st := submitJob(t, s, shardBody(`,"shard":{"first":0,"count":1}`))
	if st.Kind != "dse-shard" {
		t.Fatalf("kind = %q, want dse-shard", st.Kind)
	}
	waitJobState(t, s, st.ID, api.JobSucceeded)

	// Three shapes are 6 points: over it.
	w := do(t, s, "POST", "/v1/jobs", shardBody(`,"shard":{"first":0,"count":3}`))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("6-point shard submit = %d, want 429 (body %s)", w.Code, w.Body)
	}
	if env := decodeBody[errEnvelope](t, w); !strings.Contains(env.Error.Message, "would have 6 grid points") {
		t.Fatalf("envelope = %+v, want the shard's 6 points charged", env.Error)
	}
}

// TestJobSubmitPriorityInvalid: an unknown priority is a synchronous 400
// with the priority_invalid code, never a queued job.
func TestJobSubmitPriorityInvalid(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, "POST", "/v1/jobs",
		`{"task":"All kernels","knobs":{"mac_arrays":[1]},"priority":"urgent"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("submit = %d, want 400 (body %s)", w.Code, w.Body)
	}
	if env := decodeBody[errEnvelope](t, w); env.Error.Code != "priority_invalid" {
		t.Fatalf("code = %q, want priority_invalid", env.Error.Code)
	}
	if list := decodeBody[api.JobList](t, do(t, s, "GET", "/v1/jobs", "")); len(list.Jobs) != 0 {
		t.Fatalf("invalid submission created a job: %+v", list)
	}
}

// TestTenantMetricsGauges: a keyed tenant's running job shows up in the
// per-tenant population and grid-point gauges.
func TestTenantMetricsGauges(t *testing.T) {
	file := writeTenantFile(t, `{"allow_anonymous":true,
		"tenants":[{"name":"acme","key":"acme-key"}]}`)
	s := newTestServer(t, Config{TenantFile: file, JobWorkers: 1})
	gate := make(chan struct{})
	s.Jobs().SetRunner("dse", func(ctx context.Context, rc job.RunContext) (json.RawMessage, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return json.RawMessage("{}\n"), nil
	})
	defer close(gate)

	w := doAuth(t, s, "POST", "/v1/jobs", jobsBody, "acme-key")
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d (body %s)", w.Code, w.Body)
	}
	st := decodeBody[api.JobStatus](t, w)
	if st.Tenant != "acme" {
		t.Fatalf("job tenant = %q, want acme", st.Tenant)
	}
	waitJobState(t, s, st.ID, api.JobRunning)

	m := do(t, s, "GET", "/metrics", "").Body.String()
	for _, want := range []string{
		`cordobad_tenant_jobs{tenant="acme",state="running"} 1`,
		`cordobad_tenant_grid_points_in_flight{tenant="acme"} 12`,
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, m)
		}
	}
}

// TestDeferrableSubmission pins the server's launch-window deferral to the
// library: a deferrable job against the monotonically declining decarb-ramp
// trace is held for the window FindLaunchWindow picks, and reports exactly
// the carbon that deferral avoids.
func TestDeferrableSubmission(t *testing.T) {
	s := newTestServer(t, Config{})
	const deadline = 3600.0
	before := time.Now().UTC()
	st := submitJob(t, s,
		`{"task":"All kernels","knobs":{"mac_arrays":[1,2,4],"sram_mb":[1,2],"vdd_scales":[1.0,0.9]},`+
			`"priority":"deferrable","defer_deadline_s":3600}`)
	after := time.Now().UTC()

	if st.Priority != api.PriorityDeferrable || st.State != api.JobQueued {
		t.Fatalf("status = %+v, want queued deferrable", st)
	}
	if st.NotBefore == nil {
		t.Fatal("deferrable job has no launch window")
	}
	if st.CO2AvoidedG <= 0 {
		t.Fatalf("co2_avoided_g = %g, want > 0 against a declining trace", st.CO2AvoidedG)
	}

	// The same window search, run directly against the daemon's region trace.
	plan, err := cordoba.FindLaunchWindow(s.traces[s.cfg.RegionTrace], cordoba.WindowRequest{
		Duration: cordoba.Time(deferDurationS),
		Power:    cordoba.Power(deferPowerW),
		Deadline: cordoba.Time(deadline),
	})
	if err != nil {
		t.Fatal(err)
	}
	wantAvoided := plan.Immediate.Carbon.Grams() - plan.Best.Carbon.Grams()
	if math.Abs(st.CO2AvoidedG-wantAvoided) > 1e-9 {
		t.Fatalf("co2_avoided_g = %g, want %g (the direct window search)", st.CO2AvoidedG, wantAvoided)
	}
	startOffset := time.Duration(plan.Best.Start.Seconds() * float64(time.Second))
	lo, hi := before.Add(startOffset), after.Add(startOffset).Add(time.Second)
	if st.NotBefore.Before(lo) || st.NotBefore.After(hi) {
		t.Fatalf("not_before = %v, want within [%v, %v]", st.NotBefore, lo, hi)
	}

	// The held job is visible under its priority filter and in /metrics.
	list := decodeBody[api.JobList](t, do(t, s, "GET", "/v1/jobs?priority=deferrable", ""))
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Fatalf("priority=deferrable list = %+v", list)
	}
	if list := decodeBody[api.JobList](t, do(t, s, "GET", "/v1/jobs?priority=interactive", "")); len(list.Jobs) != 0 {
		t.Fatalf("priority=interactive list = %+v", list)
	}
	m := do(t, s, "GET", "/metrics", "").Body.String()
	if !strings.Contains(m, "cordobad_jobs_deferred_total 1") {
		t.Fatalf("/metrics missing the deferral count:\n%s", m)
	}
	var avoided float64
	for _, line := range strings.Split(m, "\n") {
		if rest, ok := strings.CutPrefix(line, "cordobad_jobs_co2_avoided_grams "); ok {
			avoided, _ = strconv.ParseFloat(rest, 64)
		}
	}
	if math.Abs(avoided-wantAvoided) > 1e-6 {
		t.Fatalf("metrics co2 avoided = %g, want %g", avoided, wantAvoided)
	}

	if w := do(t, s, "DELETE", "/v1/jobs/"+st.ID, ""); w.Code != http.StatusOK {
		t.Fatalf("cancel = %d", w.Code)
	}
}

// TestJobListPagination walks a five-job listing in pages of two and checks
// the filters: stable cursors, no overlap or loss, newest-first order.
func TestJobListPagination(t *testing.T) {
	s := newTestServer(t, Config{})
	ids := make(map[string]bool)
	for i := 0; i < 5; i++ {
		st := submitJob(t, s, jobsBody)
		ids[st.ID] = true
		waitJobState(t, s, st.ID, api.JobSucceeded)
	}

	var (
		seen   = make(map[string]bool)
		cursor string
		pages  int
	)
	var prev api.JobStatus
	for {
		path := "/v1/jobs?limit=2"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		w := do(t, s, "GET", path, "")
		if w.Code != http.StatusOK {
			t.Fatalf("page %d = %d (body %s)", pages, w.Code, w.Body)
		}
		page := decodeBody[api.JobList](t, w)
		pages++
		for _, j := range page.Jobs {
			if seen[j.ID] {
				t.Fatalf("job %s appeared on two pages", j.ID)
			}
			seen[j.ID] = true
			if prev.ID != "" && j.CreatedAt.After(prev.CreatedAt) {
				t.Fatalf("listing out of order: %s (%v) after %s (%v)", j.ID, j.CreatedAt, prev.ID, prev.CreatedAt)
			}
			prev = j
		}
		if page.NextCursor == "" {
			if len(page.Jobs) > 2 {
				t.Fatalf("final page has %d jobs, limit was 2", len(page.Jobs))
			}
			break
		}
		cursor = page.NextCursor
	}
	if pages != 3 || len(seen) != 5 {
		t.Fatalf("walked %d pages, %d jobs; want 3 pages over 5 jobs", pages, len(seen))
	}
	for id := range ids {
		if !seen[id] {
			t.Fatalf("job %s lost between pages", id)
		}
	}

	// Filters: all five succeeded; none queued; the empty priority counts as
	// batch on both sides of the filter.
	if l := decodeBody[api.JobList](t, do(t, s, "GET", "/v1/jobs?state=succeeded", "")); len(l.Jobs) != 5 {
		t.Fatalf("state=succeeded = %d jobs, want 5", len(l.Jobs))
	}
	if l := decodeBody[api.JobList](t, do(t, s, "GET", "/v1/jobs?state=queued", "")); len(l.Jobs) != 0 {
		t.Fatalf("state=queued = %d jobs, want 0", len(l.Jobs))
	}
	if l := decodeBody[api.JobList](t, do(t, s, "GET", "/v1/jobs?priority=batch", "")); len(l.Jobs) != 5 {
		t.Fatalf("priority=batch = %d jobs, want 5", len(l.Jobs))
	}

	// Bad queries are clean 400s.
	for path, code := range map[string]string{
		"/v1/jobs?state=bogus":     "invalid_request",
		"/v1/jobs?priority=bogus":  "priority_invalid",
		"/v1/jobs?limit=0":         "invalid_request",
		"/v1/jobs?limit=x":         "invalid_request",
		"/v1/jobs?cursor=%21%21":   "invalid_request", // not base64
		"/v1/jobs?cursor=Z29vZA==": "invalid_request", // base64 but no separator
	} {
		w := do(t, s, "GET", path, "")
		if w.Code != http.StatusBadRequest {
			t.Fatalf("GET %s = %d, want 400 (body %s)", path, w.Code, w.Body)
		}
		if env := decodeBody[errEnvelope](t, w); env.Error.Code != code {
			t.Fatalf("GET %s code = %q, want %q", path, env.Error.Code, code)
		}
	}
}

// parseSSE splits an SSE body into events, checking each frame's id and
// event fields agree with the decoded JSON payload.
func parseSSE(t *testing.T, body string) []api.JobEvent {
	t.Helper()
	var evs []api.JobEvent
	for _, block := range strings.Split(body, "\n\n") {
		if strings.TrimSpace(block) == "" {
			continue
		}
		var id, typ, data string
		for _, line := range strings.Split(block, "\n") {
			if rest, ok := strings.CutPrefix(line, "id: "); ok {
				id = rest
			} else if rest, ok := strings.CutPrefix(line, "event: "); ok {
				typ = rest
			} else if rest, ok := strings.CutPrefix(line, "data: "); ok {
				data = rest
			}
		}
		var ev api.JobEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad SSE data %q: %v", data, err)
		}
		if id != strconv.FormatInt(ev.Seq, 10) || typ != ev.Type {
			t.Fatalf("frame fields (id %s, event %s) disagree with payload %+v", id, typ, ev)
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestJobEventsLive streams a job's lifecycle over a real HTTP connection:
// snapshot first, progress and checkpoint frames while it runs, the done
// frame last, sequence numbers strictly increasing throughout. The runner
// holds at a gate until the stream is attached, so every frame after the
// snapshot is observed live, not replayed.
func TestJobEventsLive(t *testing.T) {
	s := newTestServer(t, Config{})
	gate := make(chan struct{})
	s.Jobs().SetRunner("dse", func(ctx context.Context, rc job.RunContext) (json.RawMessage, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if err := rc.SaveCheckpoint(json.RawMessage(`{"cursor":1}`)); err != nil {
			return nil, err
		}
		rc.ReportProgress(job.Progress{GridPoints: 12, Streamed: 6})
		return json.RawMessage("{}\n"), nil
	})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	st := submitJob(t, s, jobsBody)
	resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	// Headers received means Watch is registered; release the runner.
	close(gate)

	type result struct {
		body []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		b, err := io.ReadAll(bufio.NewReader(resp.Body))
		done <- result{b, err}
	}()
	var body []byte
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		body = r.body
	case <-time.After(10 * time.Second):
		t.Fatal("event stream never closed")
	}

	evs := parseSSE(t, string(body))
	if len(evs) < 3 {
		t.Fatalf("got %d events, want at least snapshot + progress + done:\n%s", len(evs), body)
	}
	if evs[0].Type != api.EventState {
		t.Fatalf("first event = %q, want the state snapshot", evs[0].Type)
	}
	last := evs[len(evs)-1]
	if last.Type != api.EventDone || last.Job.State != api.JobSucceeded {
		t.Fatalf("last event = %+v, want done/succeeded", last)
	}
	types := make(map[string]bool)
	for i, ev := range evs {
		types[ev.Type] = true
		if i > 0 && ev.Seq <= evs[i-1].Seq {
			t.Fatalf("seq not increasing: %d after %d", ev.Seq, evs[i-1].Seq)
		}
	}
	if !types[api.EventProgress] || !types[api.EventCheckpoint] {
		t.Fatalf("event types seen = %v, want progress and checkpoint frames", types)
	}

	// Resuming past the terminal seq replays nothing: the stream closes clean
	// with an empty body.
	resp2, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/events?after=" + strconv.FormatInt(last.Seq, 10))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	b2, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK || strings.Contains(string(b2), "data:") {
		t.Fatalf("resume past terminal = %d %q, want 200 with no frames", resp2.StatusCode, b2)
	}
}

// TestJobEventsTerminal: watching an already-finished job yields exactly one
// done frame through the plain recorder path.
func TestJobEventsTerminal(t *testing.T) {
	s := newTestServer(t, Config{})
	st := submitJob(t, s, jobsBody)
	waitJobState(t, s, st.ID, api.JobSucceeded)

	w := do(t, s, "GET", "/v1/jobs/"+st.ID+"/events", "")
	if w.Code != http.StatusOK {
		t.Fatalf("events = %d (body %s)", w.Code, w.Body)
	}
	evs := parseSSE(t, w.Body.String())
	if len(evs) != 1 || evs[0].Type != api.EventDone || evs[0].Job.State != api.JobSucceeded {
		t.Fatalf("terminal watch = %+v, want one done/succeeded frame", evs)
	}
}

// TestJobEventsErrors: unknown jobs 404, malformed resume positions 400.
func TestJobEventsErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	if w := do(t, s, "GET", "/v1/jobs/nope/events", ""); w.Code != http.StatusNotFound {
		t.Fatalf("unknown job events = %d, want 404", w.Code)
	}
	st := submitJob(t, s, jobsBody)
	for _, q := range []string{"?after=-1", "?after=abc"} {
		if w := do(t, s, "GET", "/v1/jobs/"+st.ID+"/events"+q, ""); w.Code != http.StatusBadRequest {
			t.Fatalf("events%s = %d, want 400", q, w.Code)
		}
	}
}
