package job

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

func TestCASStoreRoundTrip(t *testing.T) {
	s, err := NewCASStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{
		ID: "j1", Kind: "dse", State: StateRunning,
		Request:    json.RawMessage(`{"cfg":1}`),
		Checkpoint: json.RawMessage(`{"cursor":5}`),
		Created:    time.Unix(100, 0).UTC(),
	}
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "j1" || string(got[0].Checkpoint) != `{"cursor":5}` {
		t.Fatalf("Load = %+v", got)
	}
	id, cp, ok := s.AdoptCheckpoint("dse", json.RawMessage(`{"cfg":1}`))
	if !ok || id != "j1" || string(cp) != `{"cursor":5}` {
		t.Fatalf("AdoptCheckpoint = %q, %s, %v", id, cp, ok)
	}
	// A different request or kind misses.
	if _, _, ok := s.AdoptCheckpoint("dse", json.RawMessage(`{"cfg":2}`)); ok {
		t.Fatal("adopted a checkpoint for different work")
	}
	if _, _, ok := s.AdoptCheckpoint("other", json.RawMessage(`{"cfg":1}`)); ok {
		t.Fatal("adopted a checkpoint across kinds")
	}
	if err := s.Delete("j1"); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Load(); len(got) != 0 {
		t.Fatalf("record survived Delete: %+v", got)
	}
}

// TestCASStoreSlotTakeover pins last-writer-wins: when a second job with
// identical work overwrites the slot, deleting the first job's ID leaves the
// second job's record alone.
func TestCASStoreSlotTakeover(t *testing.T) {
	s, err := NewCASStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := json.RawMessage(`{"cfg":1}`)
	if err := s.Put(Record{ID: "j1", Kind: "dse", Request: req}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Record{ID: "j2", Kind: "dse", Request: req, Checkpoint: json.RawMessage(`{"c":1}`)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("j1"); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Load()
	if len(got) != 1 || got[0].ID != "j2" {
		t.Fatalf("slot lost after stale delete: %+v", got)
	}
}

// TestCASAdoptionOnSubmit is the orphan-recovery path: a store holding a
// failed job's checkpoint seeds a brand-new submission of the same work, so
// the runner resumes instead of starting over.
func TestCASAdoptionOnSubmit(t *testing.T) {
	dir := t.TempDir()
	seed, err := NewCASStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	req := json.RawMessage(`{"sweep":"a"}`)
	orphan := Record{
		ID: "jdeadbeef0000", Kind: "dse", State: StateFailed,
		Request: req, Checkpoint: json.RawMessage(`{"cursor":7}`),
		Error:   "worker lost",
		Created: time.Unix(50, 0).UTC(), Finished: time.Unix(60, 0).UTC(),
	}
	if err := seed.Put(orphan); err != nil {
		t.Fatal(err)
	}

	store, err := NewCASStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Config{Workers: 1, Store: store})
	var sawCheckpoint json.RawMessage
	m.SetRunner("dse", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		sawCheckpoint = rc.Checkpoint()
		return json.RawMessage(`{"done":true}`), nil
	})
	m.Start()
	st, err := m.SubmitJob(Submission{Kind: "dse", Request: req})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == orphan.ID {
		t.Fatal("submission reused the orphan's ID")
	}
	if !st.HasCheckpoint {
		t.Fatalf("fresh submission did not adopt the orphan checkpoint: %+v", st)
	}
	waitState(t, m, st.ID, StateSucceeded)
	if string(sawCheckpoint) != `{"cursor":7}` {
		t.Fatalf("runner saw checkpoint %s, want the orphan's", sawCheckpoint)
	}
	if c := m.Counts(); c.Adopted != 1 {
		t.Fatalf("Counts.Adopted = %d, want 1", c.Adopted)
	}
}

// TestCASNoAdoptionFromLiveJob pins the safety guard: a checkpoint belonging
// to a job this manager still considers live is not adopted.
func TestCASNoAdoptionFromLiveJob(t *testing.T) {
	store, err := NewCASStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	defer close(gate)
	m := newTestManager(t, Config{Workers: 1, Store: store})
	m.SetRunner("dse", func(ctx context.Context, rc RunContext) (json.RawMessage, error) {
		rc.SaveCheckpoint(json.RawMessage(`{"cursor":1}`))
		select {
		case <-gate:
			return json.RawMessage(`{}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	m.Start()
	req := json.RawMessage(`{"sweep":"live"}`)
	first, err := m.SubmitJob(Submission{Kind: "dse", Request: req})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, StateRunning)
	// The first job has checkpointed; wait for it to land in the store.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, _, ok := store.AdoptCheckpoint("dse", req); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("live job's checkpoint never reached the store")
		}
		time.Sleep(2 * time.Millisecond)
	}
	second, err := m.SubmitJob(Submission{Kind: "dse", Request: req})
	if err != nil {
		t.Fatal(err)
	}
	if second.HasCheckpoint {
		t.Fatal("second submission adopted a live job's checkpoint")
	}
	if c := m.Counts(); c.Adopted != 0 {
		t.Fatalf("Counts.Adopted = %d, want 0", c.Adopted)
	}
}
