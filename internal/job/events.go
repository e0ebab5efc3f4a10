package job

import "time"

// Event streaming: each job carries a monotonic sequence number and a set of
// live watchers. Publication happens under the manager lock; each watcher
// has a small buffered channel drained oldest-first on overflow, so a slow
// SSE client sees a gappy but current stream (every event carries the full
// status snapshot, so gaps lose nothing but intermediate frames) and the
// terminal event is never dropped. Progress frames are also paced at the
// source: at most one per progressFrameInterval, while every report still
// advances the sequence number and lands in the status.

// EventType labels what changed.
type EventType string

const (
	// EventState marks a lifecycle transition (queued, running, requeued).
	EventState EventType = "state"
	// EventProgress carries a runner's progress snapshot.
	EventProgress EventType = "progress"
	// EventCheckpoint marks a durably saved checkpoint.
	EventCheckpoint EventType = "checkpoint"
	// EventDone is terminal: succeeded, failed, or canceled. The stream
	// closes after it.
	EventDone EventType = "done"
)

// Event is one job-stream entry: a per-job monotonic sequence number, the
// change kind, and the job's full status at that moment.
type Event struct {
	Seq    int64
	Type   EventType
	Status Status
}

// watcherBuffer is each subscriber's channel depth; overflow drops the
// oldest buffered event.
const watcherBuffer = 64

// progressFrameInterval is the least time between two progress frames of
// one job (runContext.ReportProgress). State, checkpoint and done frames
// are never held back.
const progressFrameInterval = 50 * time.Millisecond

type watcher struct {
	ch     chan Event
	closed bool // guarded by the manager lock
}

// send delivers under the manager lock, evicting the oldest buffered event
// when full. The single-producer discipline (all sends hold the lock) makes
// the evict-then-retry loop terminate.
func (w *watcher) send(ev Event) {
	if w.closed {
		return
	}
	for {
		select {
		case w.ch <- ev:
			return
		default:
			select {
			case <-w.ch:
			default:
			}
		}
	}
}

func (w *watcher) close() {
	if !w.closed {
		w.closed = true
		close(w.ch)
	}
}

// Watch subscribes to a job's event stream. The first event is a snapshot of
// the job's current status (type EventDone if it is already terminal, in
// which case the channel closes right after). The returned cancel func is
// idempotent and must be called to release the subscription.
//
// The snapshot carries the job's current sequence number rather than a fresh
// one: seq identifies a state version, so a client that reconnects with
// ?after=<last seen> is spared the snapshot exactly when nothing changed
// while it was away.
func (m *Manager) Watch(id string) (<-chan Event, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	w := &watcher{ch: make(chan Event, watcherBuffer)}
	typ := EventState
	if j.state.Terminal() {
		typ = EventDone
	}
	w.send(Event{Seq: j.seq, Type: typ, Status: j.status()})
	if typ == EventDone {
		w.close()
		return w.ch, func() {}, nil
	}
	j.watchers = append(j.watchers, w)
	cancel := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		for i, other := range j.watchers {
			if other == w {
				j.watchers = append(j.watchers[:i], j.watchers[i+1:]...)
				break
			}
		}
		w.close()
	}
	return w.ch, cancel, nil
}

// publishLocked fans an event out to the job's watchers; EventDone closes
// every stream. The sequence number advances even with nobody watching — it
// versions the job's state, and a watcher arriving later must be able to
// tell its stale ?after= position from the current version.
func (m *Manager) publishLocked(j *job, typ EventType) {
	j.seq++
	if len(j.watchers) == 0 && typ != EventDone {
		return
	}
	ev := Event{Seq: j.seq, Type: typ, Status: j.status()}
	for _, w := range j.watchers {
		w.send(ev)
	}
	if typ == EventDone {
		for _, w := range j.watchers {
			w.close()
		}
		j.watchers = nil
	}
}
