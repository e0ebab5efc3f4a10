package dse

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cordoba/internal/carbon"
	"cordoba/internal/pareto"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

// AccState is a serializable snapshot of one task's accumulator: the envelope
// state, the payloads of the currently surviving points (parallel to
// Envelope.IDs), and the space-wide sufficient statistics. Every field
// round-trips exactly through JSON — encoding/json renders float64 in the
// shortest form that parses back to the same bits — so a restored accumulator
// continues bit-identically to the original.
type AccState struct {
	Envelope  pareto.StreamState `json:"envelope"`
	Survivors []Point            `json:"survivors"`
	SumEDP    float64            `json:"sum_edp"`
	SumEmbD   float64            `json:"sum_embd"`
	Total     int64              `json:"total"`
	PrePruned int64              `json:"pre_pruned"`
}

// snapshot captures the accumulator. Safe to call concurrently with
// offerChunk; in the checkpointed engine only the sequencer mutates, so a
// snapshot is always a consistent contiguous-prefix state.
func (a *taskAcc) snapshot() AccState {
	a.mu.Lock()
	defer a.mu.Unlock()
	env := a.stream.Snapshot()
	surv := make([]Point, len(env.IDs))
	for i, id := range env.IDs {
		surv[i] = a.payload[id]
	}
	return AccState{
		Envelope:  env,
		Survivors: surv,
		SumEDP:    a.sumEDP,
		SumEmbD:   a.sumEmbD,
		Total:     a.total,
		PrePruned: a.prePruned,
	}
}

// restore replaces the accumulator's state with a snapshot. The envelope's
// own Restore validates the geometric invariants; the checks here cover the
// payload/statistics bookkeeping layered on top.
func (a *taskAcc) restore(st AccState) error {
	if len(st.Survivors) != len(st.Envelope.IDs) {
		return fmt.Errorf("dse: snapshot has %d survivors but %d envelope ids", len(st.Survivors), len(st.Envelope.IDs))
	}
	if st.Total < 0 || st.PrePruned < 0 || st.PrePruned > st.Total {
		return fmt.Errorf("dse: snapshot counters corrupt: total %d, pre-pruned %d", st.Total, st.PrePruned)
	}
	if st.Envelope.Offered != st.Total-st.PrePruned {
		return fmt.Errorf("dse: snapshot offered %d != total %d - pre-pruned %d", st.Envelope.Offered, st.Total, st.PrePruned)
	}
	var s pareto.Stream
	if err := s.Restore(st.Envelope); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stream = s
	a.payload = make(map[int64]Point, len(st.Survivors))
	for i, id := range st.Envelope.IDs {
		a.payload[id] = st.Survivors[i]
	}
	a.sumEDP = st.SumEDP
	a.sumEmbD = st.SumEmbD
	a.total = st.Total
	a.prePruned = st.PrePruned
	return nil
}

// progress reads the accumulator's live counters.
func (a *taskAcc) progress() (streamed, pruned int64, kept int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	kept = a.stream.Len()
	return a.total, a.total - int64(kept), kept
}

// ShardRange selects a contiguous run of shapes for a sharded exploration:
// shapes [First, First+Count) of the grid's shape-major enumeration. Sharding
// at shape granularity keeps every point's global grid index (and therefore
// its "k<N>" ID) identical to an unsharded run, which is what makes shard
// envelopes mergeable back into the single-node result.
type ShardRange struct {
	First int `json:"first"`
	Count int `json:"count"`
}

// StreamCheckpoint is a resumable snapshot of a checkpointed exploration: a
// fingerprint binding it to its inputs, the shape cursor, and one AccState
// per task. Because the engine accumulates in shape order, a checkpoint is
// always the exact state after shapes [FirstShape, NextShape) — resuming
// replays the suffix and lands bit-identically on the uninterrupted result.
// FirstShape is zero for whole-grid runs and the shard's first shape for
// sharded ones; a checkpoint only resumes the shard it was taken on.
type StreamCheckpoint struct {
	Fingerprint string     `json:"fingerprint"`
	Shapes      int        `json:"shapes"`
	FirstShape  int        `json:"first_shape,omitempty"`
	NextShape   int        `json:"next_shape"`
	Accs        []AccState `json:"accs"`
}

// validate checks a checkpoint against the run it is asked to resume, where
// the run covers shapes [lo, hi) of a grid with cg.shapes() shapes total.
func (cp *StreamCheckpoint) validate(fp string, cg *compiledGrid, tasks, lo, hi int) error {
	if cp.Fingerprint != fp {
		return fmt.Errorf("dse: checkpoint fingerprint %.12s does not match this run (%.12s): the task set, grid, fab, CI or yield model changed", cp.Fingerprint, fp)
	}
	if cp.Shapes != cg.shapes() {
		return fmt.Errorf("dse: checkpoint covers %d shapes, grid has %d", cp.Shapes, cg.shapes())
	}
	if cp.FirstShape != lo {
		return fmt.Errorf("dse: checkpoint starts at shape %d, this run's shard starts at %d", cp.FirstShape, lo)
	}
	if cp.NextShape < lo || cp.NextShape > hi {
		return fmt.Errorf("dse: checkpoint cursor %d out of range [%d, %d]", cp.NextShape, lo, hi)
	}
	if len(cp.Accs) != tasks {
		return fmt.Errorf("dse: checkpoint has %d accumulators, run has %d tasks", len(cp.Accs), tasks)
	}
	cells := int64(len(cg.cells))
	first := int64(lo) * cells
	seen := int64(cp.NextShape) * cells
	for i, a := range cp.Accs {
		if a.Total != seen-first {
			return fmt.Errorf("dse: checkpoint task %d counted %d points, cursor %d implies %d", i, a.Total, cp.NextShape, seen-first)
		}
		for _, id := range a.Envelope.IDs {
			if id < first || id >= seen {
				return fmt.Errorf("dse: checkpoint task %d survivor id %d outside evaluated range [%d, %d)", i, id, first, seen)
			}
		}
	}
	return nil
}

// checkpointFingerprint hashes everything the exploration's outcome depends
// on — tasks (names and call counts), the normalized grid, the fab, CI_use,
// and the yield model — so a checkpoint can never silently resume a
// different run. JSON marshaling sorts map keys, so the hash is stable.
func checkpointFingerprint(tasks []workload.Task, g Grid, fab carbon.Fab, ci units.CarbonIntensity, yield carbon.YieldModel) string {
	type fabKey struct {
		Name          string  `json:"name"`
		CI            float64 `json:"ci"`
		DefectDensity float64 `json:"defect_density"`
	}
	type taskKey struct {
		Name  string             `json:"name"`
		Calls map[string]float64 `json:"calls"`
	}
	tk := make([]taskKey, len(tasks))
	for i, t := range tasks {
		calls := make(map[string]float64, len(t.Calls))
		for id, n := range t.Calls {
			calls[string(id)] = n
		}
		tk[i] = taskKey{Name: t.Name, Calls: calls}
	}
	yname := ""
	if yield != nil {
		yname = yield.Name()
	}
	g = g.normalized()
	b, err := json.Marshal(struct {
		Tasks []taskKey `json:"tasks"`
		Grid  Grid      `json:"grid"`
		Fab   fabKey    `json:"fab"`
		CI    float64   `json:"ci"`
		Yield string    `json:"yield"`
	}{tk, g, fabKey{fab.Name, float64(fab.CI), fab.DefectDensity}, float64(ci), yname})
	if err != nil {
		// Every field above is a plain value; Marshal cannot fail. Guard
		// anyway so a future field addition cannot silently alias runs.
		panic(fmt.Sprintf("dse: fingerprint marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// StreamProgress is a live view of a checkpointed exploration, reported
// after every accumulated shape. Point counters follow the first task (all
// tasks see the same stream volume).
type StreamProgress struct {
	ShapesDone  int   // shapes accumulated so far, including a resumed prefix (shard-local for sharded runs)
	ShapesTotal int   // shapes in the run's range: the whole grid, or the shard
	Streamed    int64 // points evaluated and offered downstream
	Pruned      int64 // points eliminated (dominance pre-prune + envelope)
	Kept        int   // current ever-optimal survivor count
}

// CheckpointOptions extends StreamOptions with resume/checkpoint hooks.
type CheckpointOptions struct {
	StreamOptions

	// Shard restricts the exploration to a contiguous shape range; nil runs
	// the whole grid. Survivor IDs stay global (the shard's points keep their
	// whole-grid indices), so shard results merge with MergeShardResults into
	// exactly the unsharded envelope.
	Shard *ShardRange

	// Resume continues from a previous checkpoint instead of the shard's
	// first shape. The checkpoint must carry this run's fingerprint and, for
	// sharded runs, this shard's range.
	Resume *StreamCheckpoint

	// Every is the checkpoint cadence in shapes; <= 0 disables checkpoints.
	Every int

	// OnCheckpoint receives a consistent snapshot every Every shapes. It runs
	// on the accumulation goroutine — the engine does not advance while it
	// persists. A returned error aborts the exploration.
	OnCheckpoint func(*StreamCheckpoint) error

	// OnProgress, when set, observes progress after every accumulated shape.
	OnProgress func(StreamProgress)
}

// EvaluateStreamCheckpointed runs a single-task checkpointed exploration.
// See EvaluateStreamCheckpointedTasks.
func EvaluateStreamCheckpointed(ctx context.Context, task workload.Task, g Grid, fab carbon.Fab, ci units.CarbonIntensity, opt CheckpointOptions) (*StreamResult, error) {
	rs, err := EvaluateStreamCheckpointedTasks(ctx, []workload.Task{task}, g, fab, ci, opt)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// EvaluateStreamCheckpointedTasks is the checkpointed core of the streaming
// engine. Workers evaluate shapes in parallel exactly as before, but a
// sequencer accumulates completed shapes strictly in shape-index order
// through a reorder buffer, which makes the floating-point sums — and
// therefore every checkpoint and the final SumEDP/SumEmbD — deterministic
// for a given grid. A checkpoint taken after shape k and resumed later
// replays shapes [k, shapes) and produces the same survivor set, Total,
// SumEDP and SumEmbD as an uninterrupted run, bit for bit.
func EvaluateStreamCheckpointedTasks(ctx context.Context, tasks []workload.Task, g Grid, fab carbon.Fab, ci units.CarbonIntensity, opt CheckpointOptions) ([]*StreamResult, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("dse: no tasks to stream")
	}
	if ci < 0 {
		return nil, fmt.Errorf("dse: negative CI_use %v", ci)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cg, err := g.compile()
	if err != nil {
		return nil, err
	}
	memo := opt.Memo
	if memo == nil {
		memo = NewMemoCache(0)
	}

	shapes := cg.shapes()
	cells := int64(len(cg.cells))
	fp := checkpointFingerprint(tasks, g, fab, ci, opt.Yield)

	lo, hi := 0, shapes
	if sh := opt.Shard; sh != nil {
		if sh.Count < 1 || sh.First < 0 || sh.First+sh.Count > shapes {
			return nil, fmt.Errorf("dse: shard [%d, %d) outside grid's %d shapes", sh.First, sh.First+sh.Count, shapes)
		}
		lo, hi = sh.First, sh.First+sh.Count
	}

	accs := make([]*taskAcc, len(tasks))
	for i := range accs {
		accs[i] = &taskAcc{payload: make(map[int64]Point)}
	}
	start := lo
	if cp := opt.Resume; cp != nil {
		if err := cp.validate(fp, cg, len(tasks), lo, hi); err != nil {
			return nil, err
		}
		for i := range accs {
			if err := accs[i].restore(cp.Accs[i]); err != nil {
				return nil, fmt.Errorf("dse: checkpoint task %d: %w", i, err)
			}
		}
		start = cp.NextShape
	}

	se, err := newShapeEval(cg, tasks, memo, fab, opt.Yield)
	if err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if remaining := hi - start; workers > remaining {
		workers = remaining
	}

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		failed   atomic.Bool
		abort    = make(chan struct{})
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			failed.Store(true)
			close(abort) // after failed: a worker released by it skips its shape
		})
	}

	// Workers evaluate shapes and hand chunks to the sequencer; the feeder
	// goroutine closes chunkCh once every worker has drained, so the
	// sequencer loop below always terminates.
	type chunk struct {
		si      int
		buffers [][]Point
	}
	shapeCh := make(chan int)
	chunkCh := make(chan chunk, workers)
	// Chunk buffer sets circulate between the workers and the sequencer:
	// offerChunk copies everything it keeps, so a set is reusable the
	// moment its shape is accumulated. At most maxSets exist. Without the
	// cap, a worker descheduled on the sequencer's next shape let the
	// others run arbitrarily far ahead into the reorder buffer, each shape
	// in a fresh set. A worker takes its set before its shape, so the
	// worker holding the next shape always has one and the cap cannot
	// stall the run.
	maxSets := 2*workers + 1
	freeBufs := make(chan [][]Point, maxSets)
	var sets atomic.Int32
	takeBuffers := func() [][]Point {
		select {
		case b := <-freeBufs:
			return b
		default:
		}
		if sets.Add(1) <= int32(maxSets) {
			buffers := make([][]Point, len(tasks))
			for ti := range buffers {
				buffers[ti] = make([]Point, 0, cells)
			}
			return buffers
		}
		select {
		case b := <-freeBufs:
			return b
		case <-abort:
			return nil
		case <-ctx.Done():
			return nil
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newEvalScratch(se)
			var buffers [][]Point
			for {
				if buffers == nil {
					buffers = takeBuffers()
				}
				si, ok := <-shapeCh
				if !ok {
					return
				}
				if ctx.Err() != nil || failed.Load() {
					continue // drain the channel without evaluating
				}
				if err := evalShape(se, si, sc, buffers); err != nil {
					fail(err)
					continue
				}
				chunkCh <- chunk{si: si, buffers: buffers}
				buffers = nil
			}
		}()
	}
	go func() {
		for si := start; si < hi; si++ {
			shapeCh <- si
		}
		close(shapeCh)
		wg.Wait()
		close(chunkCh)
	}()

	// The sequencer: hold out-of-order chunks in a reorder buffer and offer
	// them to the accumulators strictly by shape index. Accumulation order —
	// hence floating-point summation order — no longer depends on worker
	// scheduling, and a checkpoint is always a contiguous-prefix state.
	pending := make(map[int][][]Point, workers)
	next := start
	accumulated := 0
	for c := range chunkCh {
		if failed.Load() {
			continue // drain so workers never block on chunkCh
		}
		pending[c.si] = c.buffers
		for {
			bufs, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			base := int64(next) * cells
			for ti := range tasks {
				accs[ti].offerChunk(base, bufs[ti])
			}
			freeBufs <- bufs // never blocks: at most maxSets exist
			next++
			accumulated++
			if opt.OnProgress != nil {
				streamed, pruned, kept := accs[0].progress()
				opt.OnProgress(StreamProgress{
					ShapesDone:  next - lo,
					ShapesTotal: hi - lo,
					Streamed:    streamed,
					Pruned:      pruned,
					Kept:        kept,
				})
			}
			if opt.Every > 0 && opt.OnCheckpoint != nil && next < hi && accumulated%opt.Every == 0 {
				cp := &StreamCheckpoint{Fingerprint: fp, Shapes: shapes, FirstShape: lo, NextShape: next, Accs: make([]AccState, len(accs))}
				for i, a := range accs {
					cp.Accs[i] = a.snapshot()
				}
				if err := opt.OnCheckpoint(cp); err != nil {
					fail(fmt.Errorf("dse: checkpoint callback: %w", err))
				}
			}
		}
	}

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dse: streaming exploration aborted: %w", err)
	}
	out := make([]*StreamResult, len(tasks))
	for i, a := range accs {
		out[i] = a.result(tasks[i], ci)
	}
	return out, nil
}
