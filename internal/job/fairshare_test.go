package job

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cordoba/api"
)

// orderRecorder is a runner that appends each job's tenant to a shared
// slice, exposing the scheduler's dequeue order.
type orderRecorder struct {
	mu    sync.Mutex
	order []string
}

func (r *orderRecorder) runner(tag func(rc RunContext) string) Runner {
	return func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		r.mu.Lock()
		r.order = append(r.order, tag(rc))
		r.mu.Unlock()
		return json.RawMessage(`{}`), nil
	}
}

func (r *orderRecorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// TestFairShareNoStarvation is the starvation property test: one heavy
// tenant floods the queue, yet every light tenant's first job dequeues
// within a bounded prefix and all jobs eventually finish. All jobs are
// queued before workers start, and a single worker serializes dequeues so
// the recorded order is exactly the scheduler's order.
func TestFairShareNoStarvation(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 256})
	rec := &orderRecorder{}
	m.SetRunner("tag", rec.runner(func(rc RunContext) string {
		var req struct {
			Tenant string `json:"tenant"`
		}
		json.Unmarshal(rc.Request(), &req)
		return req.Tenant
	}))

	submit := func(tenant string, weight float64, n int) []string {
		t.Helper()
		ids := make([]string, 0, n)
		for i := 0; i < n; i++ {
			st, err := m.SubmitJob(Submission{
				Kind:    "tag",
				Request: json.RawMessage(fmt.Sprintf(`{"tenant":%q,"i":%d}`, tenant, i)),
				Tenant:  tenant,
				Limits:  Limits{Weight: weight},
			})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, st.ID)
		}
		return ids
	}

	heavy := submit("heavy", 8, 64)
	lightA := submit("light-a", 1, 4)
	lightB := submit("light-b", 1, 4)

	m.Start()
	for _, ids := range [][]string{heavy, lightA, lightB} {
		for _, id := range ids {
			waitState(t, m, id, StateSucceeded)
		}
	}

	order := rec.snapshot()
	if len(order) != 72 {
		t.Fatalf("dequeued %d jobs, want 72", len(order))
	}
	// With weights 8:1:1 the heavy tenant's pass advances 8x slower, so a
	// light tenant must appear at least once in any window of ~10 dequeues.
	// Allow slack, but a light tenant pushed past 2x its stride is
	// starvation.
	firstSeen := map[string]int{}
	for i, tenant := range order {
		if _, ok := firstSeen[tenant]; !ok {
			firstSeen[tenant] = i
		}
	}
	for _, light := range []string{"light-a", "light-b"} {
		at, ok := firstSeen[light]
		if !ok {
			t.Fatalf("tenant %s never dequeued: %v", light, order[:20])
		}
		if at > 20 {
			t.Errorf("tenant %s first dequeued at position %d, want <= 20 (starved)", light, at)
		}
	}
	// And the heavy tenant must dominate the early window in proportion to
	// its weight: at least half of the first 20 dequeues.
	heavyEarly := 0
	for _, tenant := range order[:20] {
		if tenant == "heavy" {
			heavyEarly++
		}
	}
	if heavyEarly < 10 {
		t.Errorf("heavy tenant got %d of the first 20 dequeues, want >= 10: %v", heavyEarly, order[:20])
	}
}

// TestPriorityWithinTenant pins the intra-tenant class order: interactive
// before batch, regardless of submission order.
func TestPriorityWithinTenant(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 16})
	rec := &orderRecorder{}
	m.SetRunner("tag", rec.runner(func(rc RunContext) string {
		var req struct {
			Tag string `json:"tag"`
		}
		json.Unmarshal(rc.Request(), &req)
		return req.Tag
	}))
	var ids []string
	for i, pri := range []api.Priority{api.PriorityBatch, api.PriorityBatch, api.PriorityInteractive} {
		st, err := m.SubmitJob(Submission{
			Kind:     "tag",
			Request:  json.RawMessage(fmt.Sprintf(`{"tag":"%s-%d"}`, pri, i)),
			Priority: pri,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Priority != pri {
			t.Fatalf("status priority = %q, want %q", st.Priority, pri)
		}
		ids = append(ids, st.ID)
	}
	m.Start()
	for _, id := range ids {
		waitState(t, m, id, StateSucceeded)
	}
	order := rec.snapshot()
	want := []string{"interactive-2", "batch-0", "batch-1"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dequeue order %v, want %v", order, want)
		}
	}
}

// TestDeferrableHeldUntilWindow pins the launch-window hold: a deferrable
// job with a future not-before stays queued on an idle worker pool until
// the window opens, then runs; its carbon accounting lands in Counts.
func TestDeferrableHeldUntilWindow(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2, QueueDepth: 8})
	m.SetRunner("noop", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	})
	m.Start()
	notBefore := time.Now().UTC().Add(250 * time.Millisecond)
	st, err := m.SubmitJob(Submission{
		Kind:        "noop",
		Request:     json.RawMessage(`{}`),
		Priority:    api.PriorityDeferrable,
		NotBefore:   notBefore,
		CO2AvoidedG: 12.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.NotBefore == nil || !st.NotBefore.Equal(notBefore) || st.CO2AvoidedG != 12.5 {
		t.Fatalf("deferral not recorded in status: %+v", st)
	}
	time.Sleep(100 * time.Millisecond)
	mid, _ := m.Get(st.ID)
	if mid.State != StateQueued {
		t.Fatalf("job left queue before its window: state %q", mid.State)
	}
	fin := waitState(t, m, st.ID, StateSucceeded)
	if fin.Started.Before(notBefore) {
		t.Fatalf("job started %v, before its window %v", fin.Started, notBefore)
	}
	c := m.Counts()
	if c.Deferred != 1 || c.CO2AvoidedG != 12.5 {
		t.Fatalf("counts = %+v, want Deferred 1, CO2AvoidedG 12.5", c)
	}
}

// TestNonDeferrableIgnoresWindow pins that only the deferrable class is
// held: a batch job with a (bogus) not-before runs immediately.
func TestNonDeferrableIgnoresWindow(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	m.SetRunner("noop", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	})
	m.Start()
	st, err := m.SubmitJob(Submission{
		Kind:      "noop",
		Request:   json.RawMessage(`{}`),
		NotBefore: time.Now().Add(time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.NotBefore != nil {
		t.Fatalf("batch job kept a not-before: %+v", st)
	}
	waitState(t, m, st.ID, StateSucceeded)
}

// TestTenantQuotas pins both per-tenant caps and their error shape.
func TestTenantQuotas(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 16})
	m.SetRunner("block", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		select {
		case <-gate:
			return json.RawMessage(`{}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	// No Start: everything stays queued, making usage deterministic.
	lim := Limits{MaxQueued: 2, MaxPoints: 100}
	if _, err := m.SubmitJob(Submission{Kind: "block", Tenant: "acme", Limits: lim, Points: 60}); err != nil {
		t.Fatal(err)
	}
	// Points quota: 60 + 60 > 100.
	_, err := m.SubmitJob(Submission{Kind: "block", Tenant: "acme", Limits: lim, Points: 60})
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Resource != "grid_points" {
		t.Fatalf("points overflow err = %v, want QuotaError{grid_points}", err)
	}
	if qe.Tenant != "acme" || qe.Used != 60 || qe.Want != 120 || qe.Max != 100 {
		t.Fatalf("quota error fields: %+v", qe)
	}
	// A small job still fits.
	if _, err := m.SubmitJob(Submission{Kind: "block", Tenant: "acme", Limits: lim, Points: 10}); err != nil {
		t.Fatal(err)
	}
	// Queue quota: 2 queued is the cap.
	_, err = m.SubmitJob(Submission{Kind: "block", Tenant: "acme", Limits: lim})
	if !errors.As(err, &qe) || qe.Resource != "queued_jobs" {
		t.Fatalf("queue overflow err = %v, want QuotaError{queued_jobs}", err)
	}
	// Another tenant is unaffected.
	if _, err := m.SubmitJob(Submission{Kind: "block", Tenant: "zeta", Limits: lim}); err != nil {
		t.Fatal(err)
	}
	c := m.Counts()
	if c.QuotaRejected != 2 || c.Rejected != 0 {
		t.Fatalf("counts = %+v, want QuotaRejected 2", c)
	}
	tc := m.TenantCounts()
	if tc["acme"].Queued != 2 || tc["acme"].Points != 70 {
		t.Fatalf("acme counts = %+v, want 2 queued / 70 points", tc["acme"])
	}
	// Canceling a queued job releases its quota.
	sts := m.List()
	var acmeID string
	for _, st := range sts {
		if st.Tenant == "acme" && st.Points == 60 {
			acmeID = st.ID
		}
	}
	if _, err := m.Cancel(acmeID); err != nil {
		t.Fatal(err)
	}
	if tc := m.TenantCounts(); tc["acme"].Queued != 1 || tc["acme"].Points != 10 {
		t.Fatalf("post-cancel acme counts = %+v, want 1 queued / 10 points", tc["acme"])
	}
}

// TestAnonymousCompatSubmit pins that a submission without a tenant keeps
// the single-tenant wire shape: no tenant name, batch priority implied.
func TestAnonymousCompatSubmit(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	m.SetRunner("noop", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	})
	m.Start()
	st, err := m.SubmitJob(Submission{Kind: "noop", Request: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "" {
		t.Fatalf("anonymous submit recorded tenant %q", st.Tenant)
	}
	fin := waitState(t, m, st.ID, StateSucceeded)
	b, _ := json.Marshal(fin)
	for _, banned := range []string{`"tenant"`, `"not_before"`, `"co2_avoided_g"`, `"points"`} {
		if strings.Contains(string(b), banned) {
			t.Fatalf("anonymous status leaked %s: %s", banned, b)
		}
	}
}

// BenchmarkFairShareDequeue measures one scheduler pick + requeue cycle over
// a populated multi-tenant queue — the hot path between every job. Gated by
// `make bench-queue` against testdata/bench_baseline.json.
func BenchmarkFairShareDequeue(b *testing.B) {
	m, err := NewManager(Config{Workers: 1, QueueDepth: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	m.SetRunner("noop", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		return nil, nil
	})
	const tenants, perTenant = 32, 8
	for ti := 0; ti < tenants; ti++ {
		name := fmt.Sprintf("t%02d", ti)
		for i := 0; i < perTenant; i++ {
			if _, err := m.SubmitJob(Submission{
				Kind: "noop", Tenant: name,
				Limits: Limits{Weight: float64(1 + ti%4)},
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.mu.Lock()
		j := m.nextLocked(now)
		if j == nil {
			m.mu.Unlock()
			b.Fatal("scheduler returned no job over a populated queue")
		}
		// Undo the pick so the population is constant across iterations.
		ts := m.tenants[j.tenant]
		ts.running--
		m.enqueueLocked(ts, j)
		m.mu.Unlock()
	}
}
