package server

import (
	"context"
	"runtime"
	"sync/atomic"
)

// Pool bounds the number of design-space evaluations running at once. Each
// admitted evaluation fans its work out across EvalWorkers goroutines (the
// StreamOptions.Workers of every dse engine), so the pool caps
// total evaluation goroutines at roughly Size × EvalWorkers; defaults keep
// that near GOMAXPROCS so a burst of /v1/dse requests queues instead of
// thrashing the scheduler. Waiters are admitted context-aware, so a caller
// that gives up (timeout, disconnect) leaves the queue immediately.
type Pool struct {
	sem      chan struct{}
	workers  int
	inflight atomic.Int64 // evaluations holding a slot
	waiting  atomic.Int64 // callers queued for one
}

// DefaultPoolSize is the default number of concurrently admitted
// evaluations. The BenchmarkEvaluateParallel sweep (bench_test.go) shows
// per-evaluation speedup on the 121-point grid bounded by the core count,
// so the default splits GOMAXPROCS into a few moderately parallel
// evaluations rather than one maximally parallel one.
func DefaultPoolSize() int {
	n := runtime.GOMAXPROCS(0) / defaultEvalWorkers
	if n < 1 {
		n = 1
	}
	return n
}

const defaultEvalWorkers = 4

// DefaultEvalWorkers is the per-evaluation fan-out used when the daemon is
// started without an explicit -eval-workers.
func DefaultEvalWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > defaultEvalWorkers {
		n = defaultEvalWorkers
	}
	return n
}

// NewPool returns a pool admitting size concurrent evaluations of workers
// goroutines each; non-positive arguments select the defaults. The pool
// registers its capacity, in-flight and waiting gauges with m.
func NewPool(size, workers int, m *Metrics) *Pool {
	if size < 1 {
		size = DefaultPoolSize()
	}
	if workers < 1 {
		workers = DefaultEvalWorkers()
	}
	p := &Pool{sem: make(chan struct{}, size), workers: workers}
	m.register(p.families)
	return p
}

func (p *Pool) families() []family {
	return []family{
		gauge("cordobad_pool_size", "Evaluation worker-pool capacity.", p.Size()),
		gauge("cordobad_pool_inflight_evaluations", "Grid evaluations currently running.", p.inflight.Load()),
		gauge("cordobad_pool_waiting_requests", "Requests queued for an evaluation slot.", p.waiting.Load()),
	}
}

// Size returns the pool capacity.
func (p *Pool) Size() int { return cap(p.sem) }

// Workers returns the per-evaluation goroutine fan-out.
func (p *Pool) Workers() int { return p.workers }

// Acquire blocks until an evaluation slot is free or ctx is done.
func (p *Pool) Acquire(ctx context.Context) error {
	select {
	case p.sem <- struct{}{}:
		p.inflight.Add(1)
		return nil
	default:
	}
	p.waiting.Add(1)
	defer p.waiting.Add(-1)
	select {
	case p.sem <- struct{}{}:
		p.inflight.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release frees a slot acquired with Acquire.
func (p *Pool) Release() {
	p.inflight.Add(-1)
	<-p.sem
}
