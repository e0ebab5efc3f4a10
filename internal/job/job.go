// Package job runs asynchronous explorations: a bounded queue with admission
// control, a weighted fair-share scheduler dequeuing tenants in proportion to
// their weights, a worker pool executing registered runners under per-job
// contexts, live progress and event streaming, and crash-safe persistence
// behind a pluggable checkpoint store — so a restarted manager (or, with the
// content-addressed store, any worker sharing the store) re-enqueues
// interrupted work and runners resume from their last checkpoint.
//
// The package is deliberately generic: it never imports the DSE engine.
// Runners are registered per job kind and receive a RunContext carrying the
// request payload, the last checkpoint, and the checkpoint/progress sinks;
// what those bytes mean is the caller's business. Tenancy is likewise
// declarative: submissions carry the tenant's name, weight, and quota limits,
// and the manager enforces them without knowing where they came from.
package job

import (
	"context"
	"encoding/json"
	"time"

	"cordoba/api"
)

// State is a job's lifecycle state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// numPriorities is the number of scheduling classes; the index doubles as
// the dequeue order within a tenant.
const numPriorities = 3

// priorityIndex maps a class to its queue index: interactive before batch
// before deferrable. The empty priority is batch.
func priorityIndex(p api.Priority) int {
	switch p {
	case api.PriorityInteractive:
		return 0
	case api.PriorityDeferrable:
		return 2
	default:
		return 1
	}
}

// Progress is a live snapshot of a running job, written by its runner.
type Progress struct {
	// GridPoints is the total work size (configurations), when known.
	GridPoints int64 `json:"grid_points,omitempty"`
	// Streamed, Pruned and Kept mirror the streaming engine's counters.
	Streamed int64 `json:"streamed"`
	Pruned   int64 `json:"pruned"`
	Kept     int   `json:"kept"`
	// ShapesDone / ShapesTotal is the engine's coarse work cursor.
	ShapesDone  int `json:"shapes_done"`
	ShapesTotal int `json:"shapes_total"`
	// ShardsDone / ShardsTotal track a distributed job's shard fan-out;
	// zero for single-node jobs.
	ShardsDone  int `json:"shards_done,omitempty"`
	ShardsTotal int `json:"shards_total,omitempty"`
	// Generation / EvalsUsed / EvalsBudget track a surrogate search's
	// budget cursor; zero for exhaustive jobs.
	Generation  int   `json:"generation,omitempty"`
	EvalsUsed   int64 `json:"evals_used,omitempty"`
	EvalsBudget int64 `json:"evals_budget,omitempty"`
}

// Status is a point-in-time copy of a job's public state.
type Status struct {
	ID       string       `json:"id"`
	Kind     string       `json:"kind"`
	State    State        `json:"state"`
	Tenant   string       `json:"tenant,omitempty"`
	Priority api.Priority `json:"priority,omitempty"`
	Error    string       `json:"error,omitempty"`
	Progress Progress     `json:"progress"`
	Created  time.Time    `json:"created"`
	Started  time.Time    `json:"started"`
	Finished time.Time    `json:"finished"`
	// NotBefore, on deferrable jobs, is the scheduler's hold-until time
	// (a pointer so non-deferred jobs omit it entirely); CO2AvoidedG is the
	// operational carbon the deferral avoids (grams).
	NotBefore   *time.Time `json:"not_before,omitempty"`
	CO2AvoidedG float64    `json:"co2_avoided_g,omitempty"`
	// Points is the job's grid-point weight against the tenant's
	// grid-points-in-flight quota.
	Points int64 `json:"points,omitempty"`
	// Resumes counts how many times the job restarted from a checkpoint.
	Resumes       int  `json:"resumes"`
	HasResult     bool `json:"has_result"`
	HasCheckpoint bool `json:"has_checkpoint"`
}

// Runner executes one job kind. It receives the job's context — canceled on
// DELETE, manager shutdown, or process exit — and the RunContext carrying
// request, checkpoint and sinks. The returned bytes become the job's result.
// Returning the context's error after an interruption marks the job for
// requeue (shutdown) or cancellation (DELETE); any other error fails it.
type Runner func(ctx context.Context, rc RunContext) (json.RawMessage, error)

// RunContext is the runner's view of its job. It is an interface so tests
// can wrap a manager's implementation to, e.g., block inside SaveCheckpoint
// and interrupt a job at an exact point.
type RunContext interface {
	// JobID returns the job's identifier.
	JobID() string
	// Request returns the submitted request payload.
	Request() json.RawMessage
	// Checkpoint returns the last saved checkpoint, nil on a fresh start.
	Checkpoint() json.RawMessage
	// SaveCheckpoint durably records a checkpoint; on restart the runner
	// sees it via Checkpoint. An error aborts the job.
	SaveCheckpoint(cp json.RawMessage) error
	// ReportProgress publishes a progress snapshot to status readers.
	ReportProgress(p Progress)
}

// job is the manager's internal record.
type job struct {
	id   string
	kind string

	tenant      string // "" = anonymous
	priority    api.Priority
	notBefore   time.Time // deferrable hold-until; zero = eligible now
	co2AvoidedG float64
	points      int64

	state      State
	request    json.RawMessage
	result     json.RawMessage
	checkpoint json.RawMessage
	errMsg     string

	created  time.Time
	started  time.Time
	finished time.Time

	progress Progress
	resumes  int

	cancel          context.CancelFunc // non-nil while running
	cancelRequested bool

	// Event-stream state: a per-job monotonic sequence number, the live
	// subscribers, and when the last progress frame went out (zero before
	// the first; see events.go).
	seq            int64
	watchers       []*watcher
	progressFramed time.Time
}

func (j *job) status() Status {
	var notBefore *time.Time
	if !j.notBefore.IsZero() {
		nb := j.notBefore
		notBefore = &nb
	}
	return Status{
		ID:            j.id,
		Kind:          j.kind,
		State:         j.state,
		Tenant:        j.tenant,
		Priority:      j.priority,
		Error:         j.errMsg,
		Progress:      j.progress,
		Created:       j.created,
		Started:       j.started,
		Finished:      j.finished,
		NotBefore:     notBefore,
		CO2AvoidedG:   j.co2AvoidedG,
		Points:        j.points,
		Resumes:       j.resumes,
		HasResult:     len(j.result) > 0,
		HasCheckpoint: len(j.checkpoint) > 0,
	}
}
