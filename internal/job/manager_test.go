package job

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// waitState polls until the job reaches the wanted state or times out.
func waitState(t *testing.T, m *Manager, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() && want != st.State {
			t.Fatalf("job %s reached terminal state %q while waiting for %q (err %q)", id, st.State, want, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
	return Status{}
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Stop(ctx)
	})
	return m
}

func TestSubmitRunResult(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	m.SetRunner("echo", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		rc.ReportProgress(Progress{Streamed: 42, Kept: 7})
		return rc.Request(), nil
	})
	m.Start()
	st, err := m.SubmitJob(Submission{Kind: "echo", Request: json.RawMessage(`{"x":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.ID == "" {
		t.Fatalf("submit status: %+v", st)
	}
	fin := waitState(t, m, st.ID, StateSucceeded)
	if !fin.HasResult || fin.Finished.IsZero() || fin.Started.IsZero() {
		t.Fatalf("final status incomplete: %+v", fin)
	}
	if fin.Progress.Streamed != 42 || fin.Progress.Kept != 7 {
		t.Fatalf("progress not recorded: %+v", fin.Progress)
	}
	res, _, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != `{"x":1}` {
		t.Fatalf("result = %s", res)
	}
}

func TestSubmitUnknownKind(t *testing.T) {
	m := newTestManager(t, Config{})
	if _, err := m.SubmitJob(Submission{Kind: "nope"}); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("err = %v, want ErrUnknownKind", err)
	}
}

func TestQueueFull(t *testing.T) {
	gate := make(chan struct{})
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 2})
	m.SetRunner("block", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		select {
		case <-gate:
			return json.RawMessage(`{}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	m.Start()
	first, err := m.SubmitJob(Submission{Kind: "block"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, StateRunning)
	// Queue depth 2: two more fit, the third is rejected.
	for i := 0; i < 2; i++ {
		if _, err := m.SubmitJob(Submission{Kind: "block"}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := m.SubmitJob(Submission{Kind: "block"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if m.RetryAfter() <= 0 {
		t.Fatal("RetryAfter hint not set")
	}
	c := m.Counts()
	if c.Rejected != 1 || c.Queued != 2 || c.Running != 1 {
		t.Fatalf("counts after rejection: %+v", c)
	}
	close(gate)
}

func TestCancelRunning(t *testing.T) {
	started := make(chan struct{})
	m := newTestManager(t, Config{Workers: 1})
	m.SetRunner("wait", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	m.Start()
	st, err := m.SubmitJob(Submission{Kind: "wait"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m, st.ID, StateCanceled)
	if fin.Error != "" {
		t.Fatalf("canceled job carries error %q", fin.Error)
	}
	if c := m.Counts(); c.Canceled != 1 {
		t.Fatalf("canceled count = %d", c.Canceled)
	}
	// Canceling again is a no-op.
	if st2, err := m.Cancel(st.ID); err != nil || st2.State != StateCanceled {
		t.Fatalf("re-cancel: %v %+v", err, st2)
	}
}

func TestCancelQueued(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	m := newTestManager(t, Config{Workers: 1})
	m.SetRunner("block", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	})
	m.Start()
	first, _ := m.SubmitJob(Submission{Kind: "block"})
	waitState(t, m, first.ID, StateRunning)
	queued, err := m.SubmitJob(Submission{Kind: "block"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Cancel(queued.ID)
	if err != nil || st.State != StateCanceled {
		t.Fatalf("cancel queued: %v %+v", err, st)
	}
}

func TestCancelNotFound(t *testing.T) {
	m := newTestManager(t, Config{})
	if _, err := m.Cancel("jdeadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if _, err := m.Get("jdeadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestRunnerErrorFailsJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	m.SetRunner("boom", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		return nil, fmt.Errorf("kaput")
	})
	m.Start()
	st, _ := m.SubmitJob(Submission{Kind: "boom"})
	fin := waitState(t, m, st.ID, StateFailed)
	if !strings.Contains(fin.Error, "kaput") {
		t.Fatalf("error = %q", fin.Error)
	}
}

func TestRunnerPanicFailsJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	m.SetRunner("panic", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		panic("oh no")
	})
	m.Start()
	st, _ := m.SubmitJob(Submission{Kind: "panic"})
	fin := waitState(t, m, st.ID, StateFailed)
	if !strings.Contains(fin.Error, "panic") {
		t.Fatalf("error = %q", fin.Error)
	}
}

func TestListNewestFirst(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	m.SetRunner("echo", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	})
	m.Start()
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := m.SubmitJob(Submission{Kind: "echo"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		waitState(t, m, st.ID, StateSucceeded)
		time.Sleep(2 * time.Millisecond) // distinct creation times
	}
	list := m.List()
	if len(list) != 3 {
		t.Fatalf("list has %d jobs", len(list))
	}
	for i, st := range list {
		if want := ids[len(ids)-1-i]; st.ID != want {
			t.Fatalf("list[%d] = %s, want %s", i, st.ID, want)
		}
	}
}

// TestCrashResumeWithCheckpoint is the manager-level crash drill: a runner
// checkpoints, the manager stops mid-run (the "crash"), and a new manager on
// the same directory hands the job back to the runner with the saved
// checkpoint.
func TestCrashResumeWithCheckpoint(t *testing.T) {
	dir := t.TempDir()
	checkpointed := make(chan struct{})

	m1, err := NewManager(Config{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m1.SetRunner("count", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		if err := rc.SaveCheckpoint(json.RawMessage(`{"done":5}`)); err != nil {
			return nil, err
		}
		close(checkpointed)
		<-ctx.Done() // simulate long work interrupted by shutdown
		return nil, ctx.Err()
	})
	m1.Start()
	st, err := m1.SubmitJob(Submission{Kind: "count", Request: json.RawMessage(`{"n":10}`)})
	if err != nil {
		t.Fatal(err)
	}
	<-checkpointed
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m1.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	// The interrupted job was requeued, not failed.
	if got, err := m1.Get(st.ID); err != nil || got.State != StateQueued || !got.HasCheckpoint {
		t.Fatalf("after stop: %+v (err %v)", got, err)
	}

	var gotCheckpoint, gotRequest string
	m2 := newTestManager(t, Config{Workers: 1, Dir: dir})
	m2.SetRunner("count", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		gotCheckpoint = string(rc.Checkpoint())
		gotRequest = string(rc.Request())
		return json.RawMessage(`{"total":10}`), nil
	})
	m2.Start()
	fin := waitState(t, m2, st.ID, StateSucceeded)
	if gotCheckpoint != `{"done":5}` {
		t.Fatalf("resumed checkpoint = %q", gotCheckpoint)
	}
	if gotRequest != `{"n":10}` {
		t.Fatalf("resumed request = %q", gotRequest)
	}
	if fin.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", fin.Resumes)
	}
	res, _, err := m2.Result(st.ID)
	if err != nil || string(res) != `{"total":10}` {
		t.Fatalf("result after resume: %s (err %v)", res, err)
	}
	if c := m2.Counts(); c.Resumed != 1 {
		t.Fatalf("resumed counter = %d", c.Resumed)
	}
}

func TestRecoveryKeepsTerminalHistory(t *testing.T) {
	dir := t.TempDir()
	m1, err := NewManager(Config{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m1.SetRunner("echo", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		return json.RawMessage(`{"ok":true}`), nil
	})
	m1.Start()
	st, _ := m1.SubmitJob(Submission{Kind: "echo"})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := waitStateM(t, m1, st.ID, StateSucceeded)
	if err := m1.Stop(ctx); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, Config{Workers: 1, Dir: dir})
	got, err := m2.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateSucceeded || !got.HasResult || !got.Finished.Equal(done.Finished) {
		t.Fatalf("recovered history: %+v", got)
	}
	res, _, err := m2.Result(st.ID)
	if err != nil || string(res) != `{"ok":true}` {
		t.Fatalf("recovered result: %s (err %v)", res, err)
	}
}

// waitStateM is waitState without the cleanup-registered manager helper.
func waitStateM(t *testing.T, m *Manager, id string, want State) Status {
	t.Helper()
	return waitState(t, m, id, want)
}

func TestRecoverySkipsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "jbad.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Config{Dir: dir})
	if got := len(m.List()); got != 0 {
		t.Fatalf("recovered %d jobs from corrupt dir", got)
	}
}

func TestHistoryPruned(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{Workers: 1, Dir: dir, History: 2})
	m.SetRunner("echo", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	})
	m.Start()
	var last Status
	for i := 0; i < 5; i++ {
		st, err := m.SubmitJob(Submission{Kind: "echo"})
		if err != nil {
			t.Fatal(err)
		}
		last = waitState(t, m, st.ID, StateSucceeded)
		time.Sleep(2 * time.Millisecond)
	}
	// Submission triggers pruning; one more bounds the history.
	gate := make(chan struct{})
	defer close(gate)
	m.SetRunner("block", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	})
	if _, err := m.SubmitJob(Submission{Kind: "block"}); err != nil {
		t.Fatal(err)
	}
	term := 0
	for _, st := range m.List() {
		if st.State.Terminal() {
			term++
		}
	}
	if term > 2 {
		t.Fatalf("history holds %d terminal jobs, bound 2", term)
	}
	if _, err := m.Get(last.ID); err != nil {
		t.Fatalf("newest terminal job pruned: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) > 3 { // 2 history + 1 queued/running
		t.Fatalf("dir holds %d files after pruning", len(files))
	}
}

func TestStopIdempotentAndSubmitAfterStop(t *testing.T) {
	m, err := NewManager(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.SetRunner("echo", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		return nil, nil
	})
	m.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	// Submissions after stop queue but never run; they must not wedge.
	if _, err := m.SubmitJob(Submission{Kind: "echo"}); err != nil {
		t.Fatal(err)
	}
}
