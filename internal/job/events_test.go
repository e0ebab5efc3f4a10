package job

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"
)

// collect drains the stream until it closes or times out.
func collect(t *testing.T, ch <-chan Event) []Event {
	t.Helper()
	var out []Event
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, ev)
		case <-deadline:
			t.Fatalf("event stream never closed; got %d events", len(out))
		}
	}
}

func TestWatchFullLifecycle(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	m.SetRunner("work", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		rc.ReportProgress(Progress{Streamed: 10})
		if err := rc.SaveCheckpoint(json.RawMessage(`{"cursor":1}`)); err != nil {
			return nil, err
		}
		return json.RawMessage(`{"ok":true}`), nil
	})
	st, err := m.SubmitJob(Submission{Kind: "work", Request: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := m.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	m.Start()
	events := collect(t, ch)
	if len(events) < 4 {
		t.Fatalf("got %d events, want >= 4 (snapshot, running, progress/checkpoint, done): %+v", len(events), events)
	}
	if events[0].Type != EventState || events[0].Status.State != StateQueued {
		t.Fatalf("first event = %+v, want queued snapshot", events[0])
	}
	last := events[len(events)-1]
	if last.Type != EventDone || last.Status.State != StateSucceeded || !last.Status.HasResult {
		t.Fatalf("last event = %+v, want done/succeeded", last)
	}
	var sawCheckpoint, sawProgress bool
	prevSeq := int64(0)
	for i, ev := range events {
		if ev.Seq <= prevSeq {
			t.Fatalf("event %d seq %d not increasing after %d", i, ev.Seq, prevSeq)
		}
		prevSeq = ev.Seq
		switch ev.Type {
		case EventCheckpoint:
			sawCheckpoint = true
		case EventProgress:
			if ev.Status.Progress.Streamed != 10 {
				t.Fatalf("progress event carried %+v", ev.Status.Progress)
			}
			sawProgress = true
		}
	}
	if !sawCheckpoint || !sawProgress {
		t.Fatalf("missing event types (checkpoint %v, progress %v): %+v", sawCheckpoint, sawProgress, events)
	}
}

// TestWatchTerminalJob pins the snapshot-only stream: watching a finished
// job yields exactly one done event and an immediately closed channel.
func TestWatchTerminalJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	m.SetRunner("noop", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	})
	m.Start()
	st, err := m.SubmitJob(Submission{Kind: "noop"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateSucceeded)
	ch, cancel, err := m.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	events := collect(t, ch)
	if len(events) != 1 || events[0].Type != EventDone || events[0].Status.State != StateSucceeded {
		t.Fatalf("terminal watch = %+v, want single done event", events)
	}
}

func TestWatchUnknownJob(t *testing.T) {
	m := newTestManager(t, Config{})
	if _, _, err := m.Watch("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Watch(nope) err = %v, want ErrNotFound", err)
	}
}

// TestWatchCancelReleases pins that a canceled subscription stops receiving
// and does not wedge the publisher.
func TestWatchCancelReleases(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	m := newTestManager(t, Config{Workers: 1})
	m.SetRunner("block", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		for i := 0; i < watcherBuffer*4; i++ {
			rc.ReportProgress(Progress{Streamed: int64(i)})
		}
		select {
		case <-gate:
			return json.RawMessage(`{}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	st, err := m.SubmitJob(Submission{Kind: "block"})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := m.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	waitState(t, m, st.ID, StateRunning)
	cancel()
	cancel() // idempotent
	// The channel must be closed (possibly after buffered events drain).
	for range ch {
	}
}

// TestWatchSlowConsumerDropsOldest pins the overflow policy: a consumer that
// never reads still observes the terminal event once it drains, because
// overflow evicts the oldest buffered event, never the newest.
func TestWatchSlowConsumerDropsOldest(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	m.SetRunner("chatty", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		for i := 0; i < watcherBuffer*4; i++ {
			rc.ReportProgress(Progress{Streamed: int64(i)})
		}
		return json.RawMessage(`{}`), nil
	})
	st, err := m.SubmitJob(Submission{Kind: "chatty"})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := m.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	m.Start()
	waitState(t, m, st.ID, StateSucceeded)
	events := collect(t, ch)
	if len(events) > watcherBuffer {
		t.Fatalf("buffer did not bound the stream: %d events", len(events))
	}
	last := events[len(events)-1]
	if last.Type != EventDone || last.Status.State != StateSucceeded {
		t.Fatalf("slow consumer lost the terminal event; last = %+v", last)
	}
}

// TestProgressFramesPaced pins the producer-side pacing: a burst of progress
// reports inside one interval publishes the first as a frame and holds the
// rest back, while every report lands in the status at once, advances the
// sequence number, and the done frame carries the final progress.
func TestProgressFramesPaced(t *testing.T) {
	const reports = 200
	var (
		elapsed time.Duration
		runErr  error
	)
	m := newTestManager(t, Config{Workers: 1})
	m.SetRunner("burst", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		seqOf := func() int64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return m.jobs[rc.(*runContext).j.id].seq
		}
		start := time.Now()
		for i := int64(1); i <= reports; i++ {
			before := seqOf()
			rc.ReportProgress(Progress{Streamed: i})
			if after := seqOf(); after != before+1 {
				runErr = fmt.Errorf("report %d moved seq %d -> %d, want +1", i, before, after)
				break
			}
			st, err := m.Get(rc.(*runContext).j.id)
			if err != nil {
				runErr = err
				break
			}
			if st.Progress.Streamed != i {
				runErr = fmt.Errorf("status after report %d shows streamed %d", i, st.Progress.Streamed)
				break
			}
		}
		elapsed = time.Since(start)
		return json.RawMessage(`{}`), runErr
	})
	st, err := m.SubmitJob(Submission{Kind: "burst"})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := m.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	m.Start()
	events := collect(t, ch)
	if runErr != nil {
		t.Fatal(runErr)
	}
	frames := 0
	for _, ev := range events {
		if ev.Type == EventProgress {
			if frames == 0 && ev.Status.Progress.Streamed != 1 {
				t.Fatalf("first progress frame carried %+v, want the first report", ev.Status.Progress)
			}
			frames++
		}
	}
	// Over a burst lasting elapsed, frames after the first are bounded by
	// the intervals that passed: none when the burst fits in one interval.
	if frames < 1 || frames-1 > int(elapsed/progressFrameInterval) {
		t.Fatalf("%d reports over %v published %d progress frames", reports, elapsed, frames)
	}
	last := events[len(events)-1]
	if last.Type != EventDone || last.Status.Progress.Streamed != reports {
		t.Fatalf("done frame = %+v, want the final progress (streamed %d)", last, reports)
	}
	if last.Seq < reports {
		t.Fatalf("done frame seq %d does not version %d progress reports", last.Seq, reports)
	}
}
