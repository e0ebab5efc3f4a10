package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cordoba/api"
	"cordoba/client"
	"cordoba/internal/job"
	"cordoba/internal/server"
)

var jobReq = api.DSERequest{
	Task:  "All kernels",
	Knobs: &api.KnobRangeSpec{MACArrays: []int{1, 2, 4}, SRAMMB: []float64{1, 2}, VDDScales: []float64{1.0, 0.9}},
}

// TestWaitJobSSE: WaitJobProgress rides the event stream — with polling
// effectively disabled, the runner's progress report still reaches onUpdate
// and the terminal status returns promptly.
func TestWaitJobSSE(t *testing.T) {
	c, srv := newPair(t, server.Config{}, client.WithPollInterval(time.Hour))
	gate := make(chan struct{})
	var once sync.Once
	srv.Jobs().SetRunner("dse", func(ctx context.Context, rc job.RunContext) (json.RawMessage, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if err := rc.SaveCheckpoint(json.RawMessage(`{"cursor":1}`)); err != nil {
			return nil, err
		}
		rc.ReportProgress(job.Progress{GridPoints: 12, Streamed: 7})
		return json.RawMessage("{}\n"), nil
	})

	ctx := context.Background()
	st, err := c.SubmitJob(ctx, jobReq)
	if err != nil {
		t.Fatal(err)
	}

	var sawProgress bool
	// The first update proves the stream is attached; only then may the
	// runner produce the frames the assertion needs.
	fin, err := c.WaitJobProgress(ctx, st.ID, func(u api.JobStatus) {
		once.Do(func() { close(gate) })
		if u.Progress.Streamed == 7 {
			sawProgress = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != api.JobSucceeded {
		t.Fatalf("terminal = %+v", fin)
	}
	if !sawProgress {
		t.Fatal("the progress report never reached onUpdate over the stream")
	}
}

// TestWaitJobPollFallback: when the daemon (or a proxy in front of it)
// doesn't serve the event stream, WaitJob degrades to status polling and
// still lands on the terminal status.
func TestWaitJobPollFallback(t *testing.T) {
	srv := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	t.Cleanup(func() { _ = srv.Close() })
	var streamHits int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			streamHits++
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":{"status":503,"code":"internal","message":"no streaming here"}}`)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := client.New(ts.URL, client.WithPollInterval(2*time.Millisecond))
	ctx := context.Background()
	st, err := c.SubmitJob(ctx, jobReq)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != api.JobSucceeded {
		t.Fatalf("terminal = %+v", fin)
	}
	if streamHits == 0 {
		t.Fatal("the client never tried the event stream")
	}
}

// listenAt binds addr, retrying briefly — re-binding the port a just-closed
// server held can momentarily race the kernel's release of it.
func listenAt(t *testing.T, addr string) net.Listener {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l, err := net.Listen("tcp", addr)
		if err == nil {
			return l
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stepRunner is a deterministic six-step job: one checkpoint per step, a
// progress report per step, and a result derived only from the request — so
// an interrupted-and-resumed run must produce bytes identical to an
// uninterrupted one.
func stepRunner(stepDelay time.Duration) func(context.Context, job.RunContext) (json.RawMessage, error) {
	return func(ctx context.Context, rc job.RunContext) (json.RawMessage, error) {
		start := 0
		if cp := rc.Checkpoint(); len(cp) > 0 {
			if err := json.Unmarshal(cp, &start); err != nil {
				return nil, err
			}
		}
		for i := start; i < 6; i++ {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(stepDelay):
			}
			rc.ReportProgress(job.Progress{GridPoints: 12, Streamed: int64(i+1) * 2, ShapesDone: i + 1, ShapesTotal: 6})
			if err := rc.SaveCheckpoint(json.RawMessage(fmt.Sprintf("%d", i+1))); err != nil {
				return nil, err
			}
		}
		return json.RawMessage(fmt.Sprintf("{\n  \"shapes\": 6,\n  \"request_bytes\": %d\n}\n", len(rc.Request()))), nil
	}
}

// TestStreamSurvivesServerRestart is the fleet-grade resilience regression:
// a client watches a job over SSE, the daemon is killed mid-run, a new
// daemon over the same content-addressed checkpoint store adopts the job,
// and the client — reconnecting on its own — observes the resumed run live
// through to a result byte-identical to an uninterrupted one.
func TestStreamSurvivesServerRestart(t *testing.T) {
	dir := t.TempDir()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	// The substitute runner goes in through the config, not SetRunner after
	// New: the restarted daemon recovers the job while New starts its
	// manager, and must already run it under the step runner then.
	cfg := server.Config{JobDir: dir, JobStore: "cas", JobWorkers: 1, Logger: quiet,
		Runners: map[string]job.Runner{"dse": stepRunner(25 * time.Millisecond)}}

	srv1 := server.New(cfg)
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l1.Addr().String()
	hs1 := &http.Server{Handler: srv1.Handler()}
	go hs1.Serve(l1)

	c := client.New("http://"+addr, client.WithPollInterval(5*time.Millisecond))
	ctx := context.Background()
	st, err := c.SubmitJob(ctx, jobReq)
	if err != nil {
		t.Fatal(err)
	}

	// Watch the raw stream until the job has checkpointed at least twice,
	// then kill the daemon mid-run.
	events := make(chan api.JobEvent, 64)
	streamDead := make(chan error, 1)
	go func() {
		streamDead <- c.StreamJobEvents(ctx, st.ID, 0, func(ev api.JobEvent) { events <- ev })
	}()
	deadline := time.After(10 * time.Second)
	checkpoints := 0
	for checkpoints < 2 {
		select {
		case ev := <-events:
			if ev.Type == api.EventCheckpoint {
				checkpoints++
			}
			if ev.Type == api.EventDone {
				t.Fatalf("job finished before the kill: %+v", ev.Job)
			}
		case <-deadline:
			t.Fatal("job never reached its second checkpoint")
		}
	}
	hs1.Close() // severs the SSE connection mid-stream
	if err := srv1.Close(); err != nil {
		t.Fatalf("stopping first server: %v", err)
	}
	if err := <-streamDead; err == nil {
		t.Fatal("stream reported a clean close despite the kill")
	}

	// Restart: a new daemon over the same CAS store and address recovers the
	// job and resumes it from the last checkpoint.
	srv2 := server.New(cfg)
	t.Cleanup(func() { _ = srv2.Close() })
	hs2 := &http.Server{Handler: srv2.Handler()}
	go hs2.Serve(listenAt(t, addr))
	t.Cleanup(func() { hs2.Close() })

	// The client reconnects on its own and sees the resumed run live.
	var (
		updates []api.JobStatus
		mu      sync.Mutex
	)
	fin, err := c.WaitJobProgress(ctx, st.ID, func(u api.JobStatus) {
		mu.Lock()
		updates = append(updates, u)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != api.JobSucceeded || fin.Resumes < 1 {
		t.Fatalf("terminal = %+v, want succeeded with >= 1 resume", fin)
	}
	mu.Lock()
	var resumedLive bool
	for _, u := range updates {
		// Live mid-run frames from the second incarnation: past the kill
		// point but not yet finished.
		if u.State == api.JobRunning && u.Progress.ShapesDone > checkpoints && u.Progress.ShapesDone < 6 {
			resumedLive = true
		}
	}
	mu.Unlock()
	if !resumedLive {
		t.Fatalf("no live mid-run frame from the resumed job; updates = %+v", updates)
	}

	// The result is byte-identical to an uninterrupted run of the same
	// request on a fresh daemon.
	got, err := http.Get("http://" + addr + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := io.ReadAll(got.Body)
	got.Body.Close()
	if err != nil || got.StatusCode != http.StatusOK {
		t.Fatalf("result = %d (%v): %s", got.StatusCode, err, gotBytes)
	}

	ctrl := server.New(server.Config{JobWorkers: 1, Logger: quiet})
	ctrl.Jobs().SetRunner("dse", stepRunner(time.Millisecond))
	t.Cleanup(func() { _ = ctrl.Close() })
	cts := httptest.NewServer(ctrl.Handler())
	defer cts.Close()
	cc := client.New(cts.URL, client.WithPollInterval(5*time.Millisecond))
	cst, err := cc.SubmitJob(ctx, jobReq)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.WaitJob(ctx, cst.ID); err != nil {
		t.Fatal(err)
	}
	ctrlResp, err := http.Get(cts.URL + "/v1/jobs/" + cst.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	ctrlBytes, err := io.ReadAll(ctrlResp.Body)
	ctrlResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(gotBytes) != string(ctrlBytes) {
		t.Fatalf("resumed result differs from uninterrupted run:\nresumed: %s\ncontrol: %s", gotBytes, ctrlBytes)
	}
}

// TestWaitJobUnknown: waiting on an unknown job surfaces the 404 instead of
// polling forever.
func TestWaitJobUnknown(t *testing.T) {
	c, _ := newPair(t, server.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := c.WaitJob(ctx, "nope")
	var apiErr *api.Error
	if err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("err = %v, want unknown-job 404", err)
	}
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("err = %v, want *api.Error 404", err)
	}
}
