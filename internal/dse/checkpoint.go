package dse

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"cordoba/internal/carbon"
	"cordoba/internal/pareto"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

// AccState is a serializable snapshot of a run's accumulator: the envelope
// state and the space-wide sufficient statistics. The surviving points are
// stored by identity only — their envelope IDs — because the grid re-derives
// each one exactly; restore re-prices them and refuses a snapshot whose
// stored coordinates disagree. Every field round-trips exactly through JSON
// (encoding/json renders float64 in the shortest form that parses back to
// the same bits), so a restored accumulator continues bit-identically to the
// original. Snapshots written before survivors were stored as IDs carry a
// "survivors" array too; decoding ignores it, and they resume through the
// same re-pricing.
type AccState struct {
	Envelope  pareto.StreamState `json:"envelope"`
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
	return AccState{
		Envelope:  a.stream.Snapshot(),
		SumEDP:    a.sumEDP,
		SumEmbD:   a.sumEmbD,
		Total:     a.total,
		PrePruned: a.prePruned,
	}
}

// restore replaces the accumulator's state with a snapshot of the run se
// evaluates, whose envelope IDs the caller has checked lie on the grid. The
// envelope's own Restore validates the geometric invariants; each survivor
// is then re-priced from its envelope ID (shapeEval.priceAt) and stamped
// with its grid ID as offerLocked does. A survivor whose
// re-priced E·D or C_emb·D differs bit for bit from its stored envelope
// point fails the restore: the envelope would otherwise keep coordinates
// no point of the grid has, and the resumed run would diverge from the
// uninterrupted one.
func (a *taskAcc) restore(st AccState, se *shapeEval, sc *evalScratch) error {
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
	payload := make(map[int64]Point, len(st.Envelope.IDs))
	for i, id := range st.Envelope.IDs {
		pt, err := se.priceAt(id, sc)
		if err != nil {
			return err
		}
		got, want := pt.objectives(), st.Envelope.Points[i]
		if math.Float64bits(got.X) != math.Float64bits(want.X) || math.Float64bits(got.Y) != math.Float64bits(want.Y) {
			return fmt.Errorf("dse: snapshot survivor %d (id %d) stores (%g, %g), its re-pricing gives (%g, %g)", i, id, want.X, want.Y, got.X, got.Y)
		}
		pt.Config.ID = gridPointID(id)
		payload[id] = pt
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stream = s
	a.payload = payload
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
// fingerprint binding it to its inputs, the shape cursor, and the
// accumulator's AccState. Accs holds exactly one; it stays a list so that
// checkpoints keep the wire form earlier releases wrote. Because the engine
// accumulates in shape order, a checkpoint is always the exact state after
// shapes [FirstShape, NextShape) — resuming replays the suffix and lands
// bit-identically on the uninterrupted result.
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
func (cp *StreamCheckpoint) validate(fp string, cg *compiledGrid, lo, hi int) error {
	if cp.Fingerprint != fp {
		return fmt.Errorf("dse: checkpoint fingerprint %.12s does not match this run (%.12s): the task, grid, fab, CI or yield model changed", cp.Fingerprint, fp)
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
	if len(cp.Accs) != 1 {
		return fmt.Errorf("dse: checkpoint has %d accumulators, want 1", len(cp.Accs))
	}
	cells := int64(len(cg.cells))
	first := int64(lo) * cells
	seen := int64(cp.NextShape) * cells
	a := &cp.Accs[0]
	if a.Total != seen-first {
		return fmt.Errorf("dse: checkpoint counted %d points, cursor %d implies %d", a.Total, cp.NextShape, seen-first)
	}
	for _, id := range a.Envelope.IDs {
		if id < first || id >= seen {
			return fmt.Errorf("dse: checkpoint survivor id %d outside evaluated range [%d, %d)", id, first, seen)
		}
	}
	return nil
}

// checkpointFingerprint hashes everything the exploration's outcome depends
// on — the task (name and call counts), the normalized grid, the fab,
// CI_use, and the yield model — so a checkpoint can never silently resume a
// different run. JSON marshaling sorts map keys, so the hash is stable. The
// task is hashed as a one-element "tasks" list, the form earlier releases
// wrote, so their checkpoints keep resuming.
func checkpointFingerprint(task workload.Task, g Grid, fab carbon.Fab, ci units.CarbonIntensity, yield carbon.YieldModel) string {
	type fabKey struct {
		Name          string  `json:"name"`
		CI            float64 `json:"ci"`
		DefectDensity float64 `json:"defect_density"`
	}
	type taskKey struct {
		Name  string             `json:"name"`
		Calls map[string]float64 `json:"calls"`
	}
	calls := make(map[string]float64, len(task.Calls))
	for id, n := range task.Calls {
		calls[string(id)] = n
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
	}{[]taskKey{{task.Name, calls}}, g, fabKey{fab.Name, float64(fab.CI), fab.DefectDensity}, float64(ci), yname})
	if err != nil {
		// Every field above is a plain value; Marshal cannot fail. Guard
		// anyway so a future field addition cannot silently alias runs.
		panic(fmt.Sprintf("dse: fingerprint marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// StreamProgress is a live view of a streaming exploration, reported after
// every accumulated shape.
type StreamProgress struct {
	ShapesDone  int   // shapes accumulated so far, including a resumed prefix (shard-local for sharded runs)
	ShapesTotal int   // shapes in the run's range: the whole grid, or the shard
	Streamed    int64 // points evaluated and offered downstream
	Pruned      int64 // points eliminated (dominance pre-prune + envelope)
	Kept        int   // current ever-optimal survivor count
}

// CheckpointOptions extends StreamOptions with sharding, resume, checkpoint
// and progress hooks; its zero extension runs the whole grid uninterrupted.
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

// EvaluateStream is the v2 DSE engine: it explores a knob grid for one
// task. It enumerates the grid lazily in shape-major order, computes each
// (MAC arrays, SRAM) shape's kernel layer profiles once (through the shared
// memo cache), replays them across every DVFS/node cell, and streams the
// resulting points through dominance pruning into an incremental
// convex-envelope accumulator. Memory stays O(survivors + workers·chunk)
// regardless of grid size; evaluated chunks are discarded as they stream.
//
// The surviving ever-optimal set, elimination fraction and per-N optima are
// identical to materializing the grid with EvaluateGrid and calling
// EverOptimal — the property suite in prop_test.go holds the two engines
// equal on randomized spaces. Workers evaluate shapes in parallel, but a
// sequencer accumulates completed shapes strictly in shape-index order
// through a reorder buffer, which makes the floating-point sums — and
// therefore every checkpoint and the final SumEDP/SumEmbD — deterministic
// for a given grid. A checkpoint taken after shape k and resumed later
// replays shapes [k, shapes) and produces the same survivor set, Total,
// SumEDP and SumEmbD as an uninterrupted run, bit for bit.
func EvaluateStream(ctx context.Context, task workload.Task, g Grid, fab carbon.Fab, ci units.CarbonIntensity, opt CheckpointOptions) (*StreamResult, error) {
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
	fp := checkpointFingerprint(task, g, fab, ci, opt.Yield)

	lo, hi := 0, shapes
	if sh := opt.Shard; sh != nil {
		if sh.Count < 1 || sh.First < 0 || sh.First+sh.Count > shapes {
			return nil, fmt.Errorf("dse: shard [%d, %d) outside grid's %d shapes", sh.First, sh.First+sh.Count, shapes)
		}
		lo, hi = sh.First, sh.First+sh.Count
	}

	se, err := newShapeEval(cg, task, memo, fab, opt.Yield)
	if err != nil {
		return nil, err
	}
	acc := &taskAcc{payload: make(map[int64]Point)}
	start := lo
	if cp := opt.Resume; cp != nil {
		if err := cp.validate(fp, cg, lo, hi); err != nil {
			return nil, err
		}
		if err := acc.restore(cp.Accs[0], se, newEvalScratch(se)); err != nil {
			return nil, fmt.Errorf("dse: checkpoint: %w", err)
		}
		start = cp.NextShape
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
		si  int
		pts []Point
	}
	shapeCh := make(chan int)
	chunkCh := make(chan chunk, workers)
	// Chunk buffers circulate between the workers and the sequencer:
	// offerChunk copies everything it keeps, so a buffer is reusable the
	// moment its shape is accumulated. At most maxBufs exist. Without the
	// cap, a worker descheduled on the sequencer's next shape let the
	// others run arbitrarily far ahead into the reorder buffer, each shape
	// in a fresh buffer. A worker takes its buffer before its shape, so the
	// worker holding the next shape always has one and the cap cannot
	// stall the run.
	maxBufs := 2*workers + 1
	freeBufs := make(chan []Point, maxBufs)
	var made atomic.Int32
	takeBuffer := func() []Point {
		select {
		case b := <-freeBufs:
			return b
		default:
		}
		if made.Add(1) <= int32(maxBufs) {
			return make([]Point, 0, cells)
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
			var pts []Point
			for {
				if pts == nil {
					pts = takeBuffer()
				}
				si, ok := <-shapeCh
				if !ok {
					return
				}
				if ctx.Err() != nil || failed.Load() {
					continue // drain the channel without evaluating
				}
				filled, err := evalShape(se, si, sc, pts)
				if err != nil {
					fail(err)
					continue
				}
				chunkCh <- chunk{si: si, pts: filled}
				pts = nil
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
	// them to the accumulator strictly by shape index. Accumulation order —
	// hence floating-point summation order — no longer depends on worker
	// scheduling, and a checkpoint is always a contiguous-prefix state.
	pending := make(map[int][]Point, workers)
	next := start
	accumulated := 0
	for c := range chunkCh {
		if failed.Load() {
			continue // drain so workers never block on chunkCh
		}
		pending[c.si] = c.pts
		for {
			pts, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			acc.offerChunk(int64(next)*cells, pts)
			freeBufs <- pts // never blocks: at most maxBufs exist
			next++
			accumulated++
			if opt.OnProgress != nil {
				streamed, pruned, kept := acc.progress()
				opt.OnProgress(StreamProgress{
					ShapesDone:  next - lo,
					ShapesTotal: hi - lo,
					Streamed:    streamed,
					Pruned:      pruned,
					Kept:        kept,
				})
			}
			if opt.Every > 0 && opt.OnCheckpoint != nil && next < hi && accumulated%opt.Every == 0 {
				cp := &StreamCheckpoint{Fingerprint: fp, Shapes: shapes, FirstShape: lo, NextShape: next, Accs: []AccState{acc.snapshot()}}
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
	return acc.result(task, ci), nil
}
