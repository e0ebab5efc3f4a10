package dse

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cordoba/internal/accel"
	"cordoba/internal/carbon"
	"cordoba/internal/nn"
	"cordoba/internal/pareto"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

// StreamOptions tunes every engine: the list evaluator, the streaming and
// checkpointed grid walks, and the surrogate search.
type StreamOptions struct {
	// Workers is the evaluation fan-out; < 1 selects GOMAXPROCS.
	Workers int
	// Memo is the shared shape-profile cache; nil uses a private cache that
	// lives for this run only. Pass the server's cache to reuse profiles
	// across requests.
	Memo *MemoCache
	// Yield selects the yield model every cell's embodied carbon is derated
	// with; nil selects Murphy, the historical default.
	Yield carbon.YieldModel
}

// StreamResult is the outcome of a streaming exploration: the surviving
// ever-optimal set plus the aggregates the engine kept while discarding the
// rest of the space.
type StreamResult struct {
	// Space holds only the surviving (ever-optimal) points, ordered by
	// ascending E·D — from the long-operational-time winner backwards.
	Space *Space

	// IDs holds each survivor's global grid index, parallel to Space.Points.
	// Indices stay global even for sharded runs, so shard results carry
	// enough identity to merge (and to tie-break coordinate duplicates the
	// same way a single-node stream would).
	IDs []int64

	Total     int64 // configurations evaluated
	PrePruned int64 // removed by chunk-local dominance pruning before the envelope
	Offered   int64 // offered to the envelope accumulator

	// SumEDP and SumEmbD accumulate Σ E·D and Σ C_emb·D over every evaluated
	// point; by tCDP's linearity in N they are sufficient statistics for the
	// space-wide mean at any operational time.
	SumEDP  float64
	SumEmbD float64
}

// Kept returns the size of the ever-optimal set.
func (r *StreamResult) Kept() int { return len(r.Space.Points) }

// EliminatedFraction returns the share of the grid proven never-optimal.
func (r *StreamResult) EliminatedFraction() float64 {
	if r.Total == 0 {
		return 0
	}
	return 1 - float64(r.Kept())/float64(r.Total)
}

// OptimalAt returns the index (into Space.Points) of the tCDP-optimal
// design after n inferences. Because tCDP(N) is linear in N, the optimum
// over the full grid always survives streaming, so this equals the
// brute-force answer over the materialized space.
func (r *StreamResult) OptimalAt(n float64) int { return r.Space.OptimalAt(n) }

// MeanTCDPAt returns the mean tCDP across the whole evaluated grid — not
// just the survivors — after n inferences, reconstructed from the streamed
// sufficient statistics:
//
//	mean = (Σ C_emb·D + CI·N/3.6e6 · Σ E·D) / total
func (r *StreamResult) MeanTCDPAt(n float64) float64 {
	if r.Total == 0 {
		return 0
	}
	ci := r.Space.CIUse.GramsPerKWh()
	return (r.SumEmbD + ci*n/units.JoulesPerKWh*r.SumEDP) / float64(r.Total)
}

// taskAcc accumulates one task's stream: the incremental envelope, the
// payloads of currently surviving points, and the space-wide sums.
type taskAcc struct {
	mu      sync.Mutex
	stream  pareto.Stream
	payload map[int64]Point

	sumEDP, sumEmbD  float64
	total, prePruned int64

	// Offer scratch, guarded by mu. Offers are effectively single-caller —
	// the sequencer goroutine for the exhaustive engine, the generation loop
	// for the surrogate — so reusing one id/objective buffer per accumulator
	// makes the steady-state offer path allocation-free; the lock exists for
	// concurrent snapshot/progress readers.
	ids []int64
	lp  []pareto.Point
	fs  pareto.FrontScratch
}

// offerChunk feeds one evaluated chunk of contiguous grid indices
// [base, base+len) into the accumulator. See offerBatch.
func (a *taskAcc) offerChunk(base int64, pts []Point) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := a.ids[:0]
	for i := range pts {
		ids = append(ids, base+int64(i))
	}
	a.ids = ids
	a.offerLocked(ids, pts)
}

// offerBatch feeds one evaluated batch (ids parallel to pts, any ids) into
// the accumulator. The exhaustive engine offers contiguous shape chunks
// through offerChunk; the surrogate search offers its evaluated candidate
// batches directly.
func (a *taskAcc) offerBatch(ids []int64, pts []Point) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.offerLocked(ids, pts)
}

// offerLocked is the shared offer path: dominance pre-pruning over the
// chunk, then the incremental envelope. Evicted points drop their payloads
// immediately, so memory stays O(survivors + batch). Points are priced
// anonymously; the "k<N>" ID is stamped only on envelope acceptance, so the
// per-cell hot path never materializes ID strings.
func (a *taskAcc) offerLocked(ids []int64, pts []Point) {
	lp := a.lp[:0]
	for i := range pts {
		lp = append(lp, pts[i].objectives())
	}
	a.lp = lp
	front := a.fs.Front(lp)

	a.total += int64(len(pts))
	a.prePruned += int64(len(pts) - len(front))
	for _, p := range lp {
		a.sumEDP += p.X
		a.sumEmbD += p.Y
	}
	for _, idx := range front {
		id := ids[idx]
		accepted, evicted := a.stream.Offer(id, lp[idx])
		if accepted {
			pt := pts[idx]
			pt.Config.ID = gridPointID(id)
			a.payload[id] = pt
		}
		for _, ev := range evicted {
			delete(a.payload, ev)
		}
	}
}

// result packages the accumulator once the stream is drained.
func (a *taskAcc) result(task workload.Task, ci units.CarbonIntensity) *StreamResult {
	ids := a.stream.IDs()
	points := make([]Point, len(ids))
	for i, id := range ids {
		points[i] = a.payload[id]
	}
	return &StreamResult{
		Space:     &Space{Task: task, CIUse: ci, Points: points},
		IDs:       ids,
		Total:     a.total,
		PrePruned: a.prePruned,
		Offered:   a.stream.Offered(),
		SumEDP:    a.sumEDP,
		SumEmbD:   a.sumEmbD,
	}
}

// evalScratch is one worker's reusable evaluation state: the batched
// memo-lookup buffer, one cell's kernel costs, the per-shape embodied
// carbon and area memo (both depend only on the cell's (node, model,
// area-ratio, partition) equivalence class — V_DD never enters them — so
// each class is priced once per shape instead of once per cell), the
// batched replay's pricings and [cost class][kernel] table, and the
// dynamic energies priceShape reuses across MAC counts. One scratch serves
// any number of shapes of one run; nothing escapes it, so the whole inner
// loop is allocation-free after warm-up. The batch buffers are sized on the
// first evalShape, so a scratch that only serves pricePoint never grows
// them.
type evalScratch struct {
	kprof   []*accel.ShapeProfile // parallel to the kernel union
	costs   []workload.KernelCost // one cell's kernel costs, parallel to the kernel union
	embSeen []bool                // indexed by gridCell.embClass
	emb     []units.Carbon
	area    []units.Area

	replay  accel.Replay
	pricing []accel.Pricing       // indexed by cost class
	column  []workload.KernelCost // one kernel's cost under every class
	table   []workload.KernelCost // [cost class][kernel union slot]

	// energy holds table's dynamic energies per SRAM size of the grid
	// ([SRAM][cost class][kernel union slot]); energySet marks the sizes
	// filled. Both stay nil on grids whose table passes maxEnergyTable.
	energy    []units.Energy
	energySet []bool
}

// maxEnergyTable bounds evalScratch.energy, in bytes: SRAM sizes × cost
// classes × union kernels × 8 B per evaluation worker. It admits the
// 105k-point reference grid (30 SRAM sizes × 70 classes × 15 kernels,
// 252 KB) and every grid of cordobench's interactive workload (at most
// 36 KB); a larger grid, such as the 2²⁰-point cluster grid (3.9 MB), keeps
// priceShape's fused pass. Like accel.maxRowClocks, it trades a worker's
// memory for recomputation.
const maxEnergyTable = 1 << 20

func newEvalScratch(se *shapeEval) *evalScratch {
	sc := &evalScratch{
		kprof: make([]*accel.ShapeProfile, len(se.kernels)),
		costs: make([]workload.KernelCost, len(se.kernels)),
	}
	if se.cg != nil {
		sc.embSeen = make([]bool, se.cg.embClasses)
		sc.emb = make([]units.Carbon, se.cg.embClasses)
		sc.area = make([]units.Area, se.cg.embClasses)
	}
	return sc
}

// kernelUnion returns the kernels referenced by any task, in the canonical
// nn.AllKernels order, and their canonical indices.
func kernelUnion(tasks []workload.Task) (ids []nn.KernelID, idx []int) {
	for i, id := range nn.AllKernels() {
		for _, t := range tasks {
			if _, ok := t.Calls[id]; ok {
				ids, idx = append(ids, id), append(idx, i)
				break
			}
		}
	}
	return ids, idx
}

// EvaluateStream explores a knob grid for one task with the streaming
// engine: lazy enumeration, memoized kernel evaluation, incremental
// envelope. See EvaluateStreamTasks.
func EvaluateStream(ctx context.Context, task workload.Task, g Grid, fab carbon.Fab, ci units.CarbonIntensity, opt StreamOptions) (*StreamResult, error) {
	rs, err := EvaluateStreamTasks(ctx, []workload.Task{task}, g, fab, ci, opt)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// EvaluateStreamTasks is the v2 DSE engine. It enumerates the grid lazily
// in shape-major order, computes each (MAC arrays, SRAM) shape's kernel
// layer profiles once (through the shared memo cache), replays them across
// every DVFS/node cell and every task, and streams the resulting points
// through per-task dominance pruning into incremental convex-envelope
// accumulators. Memory stays O(survivors + workers·chunk) regardless of
// grid size; evaluated chunks are discarded as they stream.
//
// The surviving ever-optimal sets, elimination fractions and per-N optima
// are identical to materializing the grid with EvaluateGrid and calling
// EverOptimal — the property suite in prop_test.go holds the two engines
// equal on randomized spaces. Accumulation happens in shape-index order
// regardless of worker scheduling (see EvaluateStreamCheckpointedTasks), so
// SumEDP and SumEmbD are deterministic for a given grid.
func EvaluateStreamTasks(ctx context.Context, tasks []workload.Task, g Grid, fab carbon.Fab, ci units.CarbonIntensity, opt StreamOptions) ([]*StreamResult, error) {
	return EvaluateStreamCheckpointedTasks(ctx, tasks, g, fab, ci, CheckpointOptions{StreamOptions: opt})
}

// shapeEval is one run's read-only evaluation context, shared by its
// workers: the grid (nil for a configuration list), the kernel union with
// its canonical indices (the memo's slot positions), and each task's call
// counts resolved once against the union (workload.Task.Terms).
type shapeEval struct {
	cg      *compiledGrid
	kernels []nn.KernelID
	kidx    []int             // canonical index of each kernel of the union
	terms   [][]workload.Term // per task
	memo    *MemoCache
	fab     carbon.Fab
	yield   carbon.YieldModel
}

func newShapeEval(cg *compiledGrid, tasks []workload.Task, memo *MemoCache, fab carbon.Fab, yield carbon.YieldModel) (*shapeEval, error) {
	se := &shapeEval{cg: cg, terms: make([][]workload.Term, len(tasks)), memo: memo, fab: fab, yield: yield}
	se.kernels, se.kidx = kernelUnion(tasks)
	for ti, task := range tasks {
		terms, err := task.Terms(se.kernels)
		if err != nil {
			return nil, err
		}
		se.terms[ti] = terms
	}
	return se, nil
}

// evalShape evaluates every cell of shape si for every task: priceShape
// fills the [cost class][kernel] table, whose row for the cell's class
// workload.Fold reads per cell and task. buffers holds one slice per task,
// reset and filled in cell order — every value is bit-identical to the
// direct path (the property suite holds them equal). Cells are enumerated
// without IDs (gridPointID strings are stamped on envelope acceptance), and
// embodied carbon and area are computed once per (shape, embodied-class)
// instead of once per cell; with pre-sized buffers the loop allocates
// nothing in steady state.
func evalShape(se *shapeEval, si int, sc *evalScratch, buffers [][]Point) error {
	cg := se.cg
	shape := cg.shapeConfig(si)
	if err := se.priceShape(si, sc); err != nil {
		return err
	}
	for i := range sc.embSeen {
		sc.embSeen[i] = false
	}
	for ti := range buffers {
		buffers[ti] = buffers[ti][:0]
	}
	for ci := range cg.cells {
		cell := &cg.cells[ci]
		cfg := shape
		applyCell(&cfg, cell)
		if !sc.embSeen[cell.embClass] {
			emb, err := cfg.EmbodiedWith(cell.model, se.yield, cell.process, se.fab)
			if err != nil {
				return err
			}
			sc.emb[cell.embClass] = emb
			sc.area[cell.embClass] = cfg.TotalArea()
			sc.embSeen[cell.embClass] = true
		}
		emb, area := sc.emb[cell.embClass], sc.area[cell.embClass]
		leak := cfg.LeakagePower()
		costs := sc.table[cell.costClass*len(se.kernels):][:len(se.kernels)]
		for ti, terms := range se.terms {
			cost := workload.Fold(terms, costs, leak)
			buffers[ti] = append(buffers[ti], Point{
				Config:   cfg,
				Delay:    cost.Delay,
				Energy:   cost.Energy,
				Embodied: emb,
				Area:     area,
				Model:    cell.modelName,
			})
		}
	}
	return nil
}

// priceShape fills sc.table with every kernel's cost under every cost class
// of shape si: the shape's kernel profiles come from the memo in one
// batched round-trip, and each is replayed once for all of the grid's cost
// classes in one pass (accel.Replay).
//
// A kernel's dynamic energy reads neither the clock nor the MAC-array
// count, and within a cost class every shape of one SRAM size shares the
// per-op energies and the profile's SRAM-dependent half (the grid fixes
// TilingPenalty, so such shapes share a MemKey). So the first shape of an
// SRAM size that a worker prices runs the full replay and keeps the
// energies in sc.energy; every later MAC count of that size runs the
// delay-only replay and copies them back, bit for bit. SRAM is the inner
// shape axis, so each size comes back once per MAC count.
func (se *shapeEval) priceShape(si int, sc *evalScratch) error {
	cg := se.cg
	shape := cg.shapeConfig(si)
	if err := se.memo.Profiles(shape, se.kidx, sc.kprof); err != nil {
		return err
	}
	if sc.pricing == nil {
		sc.pricing = make([]accel.Pricing, 0, len(cg.costReps))
	}
	sc.pricing = sc.pricing[:0]
	for _, ci := range cg.costReps {
		cfg := shape
		applyCell(&cfg, &cg.cells[ci])
		sc.pricing = append(sc.pricing, cfg.Pricing())
	}
	sc.replay.Load(sc.pricing)
	classes, nk := len(cg.costReps), len(se.kernels)
	if cap(sc.table) < classes*nk {
		sc.column = make([]workload.KernelCost, classes)
		sc.table = make([]workload.KernelCost, classes*nk)
	}
	sc.column, sc.table = sc.column[:classes], sc.table[:classes*nk]
	srams := len(cg.g.SRAMMB)
	if sc.energySet == nil && srams*len(sc.table)*8 <= maxEnergyTable {
		sc.energySet = make([]bool, srams)
		sc.energy = make([]units.Energy, srams*len(sc.table))
	}
	var energy []units.Energy
	reuse := false
	if sc.energySet != nil {
		mi := si % srams
		energy = sc.energy[mi*len(sc.table):][:len(sc.table)]
		reuse, sc.energySet[mi] = sc.energySet[mi], true
	}
	for i, sp := range sc.kprof {
		sc.replay.Cost(sp, sc.column, reuse)
		for k, kc := range sc.column {
			sc.table[k*nk+i] = kc
		}
	}
	switch {
	case reuse:
		for j, e := range energy {
			sc.table[j].DynamicEnergy = e
		}
	case energy != nil:
		for j := range energy {
			energy[j] = sc.table[j].DynamicEnergy
		}
	}
	return nil
}

// pricePoint prices one configuration for task ti of the run. The
// configuration's kernel profiles come from the memo (computed on first
// use) and are replayed under its pricing, resolved once, one kernel at a
// time (accel.ShapeProfile.CostUnder, the one-cell case of priceShape's
// batched replay), then folded through the task's resolved terms; embodied
// carbon comes from model and the run's yield model under proc. Every value
// is bit-identical to the direct per-layer path (evalPointAcct) and to
// evalShape's cell. The list evaluator, the surrogate search and
// checkpoint restores price here. The caller must have validated cfg: a
// memo hit skips the validation a miss performs.
func (se *shapeEval) pricePoint(cfg *accel.Config, model carbon.Model, modelName string, proc carbon.Process, ti int, sc *evalScratch) (Point, error) {
	if err := se.memo.Profiles(*cfg, se.kidx, sc.kprof); err != nil {
		return Point{}, err
	}
	emb, err := cfg.EmbodiedWith(model, se.yield, proc, se.fab)
	if err != nil {
		return Point{}, err
	}
	terms := se.terms[ti]
	pr := cfg.Pricing()
	for _, tm := range terms {
		sc.costs[tm.Slot] = sc.kprof[tm.Slot].CostUnder(&pr)
	}
	cost := workload.Fold(terms, sc.costs, cfg.LeakagePower())
	return Point{
		Config:   *cfg,
		Delay:    cost.Delay,
		Energy:   cost.Energy,
		Embodied: emb,
		Area:     cfg.TotalArea(),
		Model:    modelName,
	}, nil
}

// priceAt prices grid point id for task ti, anonymously (pricePoint over
// compiledGrid.anonAt): the surrogate search evaluates its candidates here
// and a checkpoint restore re-derives its survivors, so both are
// bit-identical to the exhaustive walk's twin. Grid cells are valid by
// construction (compile).
func (se *shapeEval) priceAt(id int64, ti int, sc *evalScratch) (Point, error) {
	cfg, cell := se.cg.anonAt(id)
	return se.pricePoint(&cfg, cell.model, cell.modelName, cell.process, ti, sc)
}

// newWorkerScratch returns one evalScratch per evaluation worker: workers of
// them (< 1 selects GOMAXPROCS), but never more than maxBatch, the most
// points one evalBatch call will price. A run that prices several batches
// allocates its worker scratch once.
func newWorkerScratch(se *shapeEval, workers int, maxBatch int64) []*evalScratch {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if int64(workers) > maxBatch {
		workers = int(maxBatch)
	}
	scs := make([]*evalScratch, workers)
	for i := range scs {
		scs[i] = newEvalScratch(se)
	}
	return scs
}

// evalBatch prices points 0..len(pts)-1 into pts across one goroutine per
// scratch (at most one per point); eval prices point i. Workers claim
// indices from a shared counter, so a point costs one atomic add rather than
// a channel handoff. Callers accumulate sequentially, so floating-point
// order — and therefore every checkpoint — is independent of worker
// scheduling. The first error, or a cancelled ctx, stops the batch with an
// error.
func evalBatch(ctx context.Context, scs []*evalScratch, pts []Point, eval func(i int, sc *evalScratch) (Point, error)) error {
	if len(scs) > len(pts) {
		scs = scs[:len(pts)]
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		next     atomic.Int64
	)
	n := int64(len(pts))
	for _, sc := range scs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				pt, err := eval(int(i), sc)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					next.Store(n) // no worker claims another point
					return
				}
				pts[i] = pt
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("dse: evaluation aborted: %w", err)
	}
	return nil
}
