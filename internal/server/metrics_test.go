package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"cordoba/api"
	"cordoba/internal/job"
)

func TestMetricsHistogramBuckets(t *testing.T) {
	m := NewMetrics()
	NewPool(4, 1, m)
	m.ObserveRequest("/x", 200, 0.0001) // first bucket
	m.ObserveRequest("/x", 200, 0.03)   // mid bucket
	m.ObserveRequest("/x", 500, 42)     // +Inf bucket

	var sb strings.Builder
	if err := m.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`cordobad_requests_total{route="/x",code="200"} 2`,
		`cordobad_requests_total{route="/x",code="500"} 1`,
		`cordobad_request_duration_seconds_bucket{route="/x",le="0.0005"} 1`,
		`cordobad_request_duration_seconds_bucket{route="/x",le="0.05"} 2`,
		`cordobad_request_duration_seconds_bucket{route="/x",le="10"} 2`,
		`cordobad_request_duration_seconds_bucket{route="/x",le="+Inf"} 3`,
		`cordobad_request_duration_seconds_count{route="/x"} 3`,
		"cordobad_pool_size 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}

func TestMetricsBucketsAreCumulative(t *testing.T) {
	m := NewMetrics()
	for i := 0; i < 50; i++ {
		m.ObserveRequest("/y", 200, 0.002) // all land in the le=0.005 bucket
	}
	var sb strings.Builder
	if err := m.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Every bucket at or above 0.005 must report the full count.
	for _, le := range []string{"0.005", "0.5", "10", "+Inf"} {
		want := `cordobad_request_duration_seconds_bucket{route="/y",le="` + le + `"} 50`
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, `le="0.001"} 50`) {
		t.Error("lower bucket wrongly includes slower observations")
	}
}

func TestMetricsConcurrentObserve(t *testing.T) {
	m := NewMetrics()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				m.ObserveRequest("/z", 200, 0.01)
				m.CacheHit()
				m.CacheMiss()
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	var sb strings.Builder
	if err := m.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`cordobad_requests_total{route="/z",code="200"} 4000`,
		"cordobad_cache_hits_total 4000",
		"cordobad_cache_misses_total 4000",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("lost observations under concurrency: missing %q\n%s", want, sb.String())
		}
	}
}

// TestMetricsHistogramCountIsInfBucket: a scrape taken while requests are
// being observed reports each route's _count equal to its own +Inf bucket.
func TestMetricsHistogramCountIsInfBucket(t *testing.T) {
	m := newTestServer(t, Config{}).metrics
	m.ObserveRequest("/x", 200, 0.01)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					m.ObserveRequest("/x", 200, 0.01)
				}
			}
		}()
	}
	mismatched := 0
	for i := 0; i < 2000; i++ {
		var sb strings.Builder
		if err := m.WriteProm(&sb); err != nil {
			t.Fatal(err)
		}
		inf := seriesValue(t, sb.String(), `cordobad_request_duration_seconds_bucket{route="/x",le="+Inf"}`)
		if seriesValue(t, sb.String(), `cordobad_request_duration_seconds_count{route="/x"}`) != inf {
			mismatched++
		}
	}
	close(stop)
	wg.Wait()
	if mismatched > 0 {
		t.Fatalf("%d of 2000 scrapes report a _count other than the +Inf bucket", mismatched)
	}
}

// TestMetricsLabelEscaping: label values carry only the text format's
// escapes (\\, \" and \n); a tab or a zero-width space in a tenant name is
// written raw, not Go-quoted.
func TestMetricsLabelEscaping(t *testing.T) {
	file := writeTenantFile(t, `{"allow_anonymous":true,"tenants":[
		{"name":"ops\tteam \u200b\"x\"","key":"k1"},
		{"name":"a\\b\nc","key":"k2"}]}`)
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

	w := doAuth(t, s, "POST", "/v1/jobs", jobsBody, "k1")
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d (body %s)", w.Code, w.Body)
	}
	waitJobState(t, s, decodeBody[api.JobStatus](t, w).ID, api.JobRunning)
	if w := doAuth(t, s, "POST", "/v1/jobs", jobsBody, "k2"); w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d (body %s)", w.Code, w.Body)
	}

	m := do(t, s, "GET", "/metrics", "").Body.String()
	checkExposition(t, m)
	for _, want := range []string{
		"cordobad_tenant_jobs{tenant=\"ops\tteam \u200b\\\"x\\\"\",state=\"running\"} 1\n",
		"cordobad_tenant_grid_points_in_flight{tenant=\"ops\tteam \u200b\\\"x\\\"\"} 12\n",
		"cordobad_tenant_jobs{tenant=\"a\\\\b\\nc\",state=\"queued\"} 1\n",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("/metrics missing %q:\n%s", want, m)
		}
	}
}
