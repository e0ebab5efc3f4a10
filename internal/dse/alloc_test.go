package dse

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"cordoba/internal/carbon"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

// allocTestGrid returns a grid with several shapes and a many-cell DVFS/node
// sweep per shape, small enough to evaluate quickly.
func allocTestGrid() Grid {
	return Grid{
		MACArrays: []int{8, 16, 32},
		SRAMMB:    []float64{2, 4},
		VDDScales: []float64{1.0, 0.9, 0.8},
		Nodes:     []string{"7nm", "5nm", "3nm"},
	}
}

// evalShapeAllocs measures steady-state allocations of one evalShape call
// on grid g after a full warm-up pass (memo fill, scratch growth).
func evalShapeAllocs(t *testing.T, g Grid) float64 {
	t.Helper()
	cg, err := g.compile()
	if err != nil {
		t.Fatal(err)
	}
	se, err := newShapeEval(cg, paperTask(t, workload.TaskXR5), NewMemoCache(0), carbon.FabCoal, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := newEvalScratch(se)
	pts := make([]Point, 0, len(cg.cells))
	for si := 0; si < cg.shapes(); si++ {
		if pts, err = evalShape(se, si, sc, pts); err != nil {
			t.Fatal(err)
		}
	}
	si := 0
	return testing.AllocsPerRun(20, func() {
		if pts, err = evalShape(se, si, sc, pts); err != nil {
			t.Fatal(err)
		}
		si = (si + 1) % cg.shapes()
	})
}

// TestEvalShapeSteadyStateAllocs pins the tentpole: after warm-up, the
// streaming inner loop — batched memo lookup, profile replay, point
// buffering — allocates nothing per cell. The only remaining allocations
// are the per-(shape, embodied-class) EmbodiedWith calls, which depend on
// the node/model axes, not the cell count — so widening the V_DD axis 8×
// (8× the cells per shape, same classes) must not add a single allocation,
// and the per-shape total must stay far below one object per cell. The
// historical loop allocated ~9 objects per cell.
func TestEvalShapeSteadyStateAllocs(t *testing.T) {
	narrow := allocTestGrid() // 9 cells per shape
	wide := allocTestGrid()
	wide.VDDScales = []float64{1.0, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65} // 24 cells per shape

	aNarrow := evalShapeAllocs(t, narrow)
	aWide := evalShapeAllocs(t, wide)
	if aWide > aNarrow {
		t.Fatalf("per-cell allocations crept back: %.1f allocs at %d cells/shape vs %.1f at %d", aWide, 24, aNarrow, 9)
	}
	if perCell := aWide / 24; perCell >= 1 {
		t.Fatalf("steady-state evalShape allocates %.2f objects per cell, want 0", perCell)
	}
}

// TestEvalShapeSteadyStateAllocsWithPartitionAxes: the zero-marginal-
// allocation invariant must survive the partition axes. Widening the grid
// with integration/chiplets/chiplet-node axes multiplies the cells per shape
// but must not add per-cell allocations: the partition is priced through the
// same per-(shape, embodied-class) path as the node/model axes, so the
// per-cell average has to stay below one object.
func TestEvalShapeSteadyStateAllocsWithPartitionAxes(t *testing.T) {
	flat := allocTestGrid() // 9 cells per shape
	part := allocTestGrid()
	part.Integrations = []string{"monolithic", "2.5d", "3d"}
	part.Chiplets = []int{2, 4}
	part.ChipletNodes = []string{"10nm", "14nm"} // 108 cells per shape

	aFlat := evalShapeAllocs(t, flat)
	aPart := evalShapeAllocs(t, part)
	if perCell := aPart / 108; perCell >= 1 {
		t.Fatalf("steady-state evalShape with partition axes allocates %.2f objects per cell, want < 1", perCell)
	}
	// The absolute count grows with the embodied-class count (each class is
	// one multi-die pricing per shape; a partitioned spec allocates a couple
	// more objects than a monolithic one), never with the cell count: the
	// per-class cost must stay a small constant regardless of how many cells
	// share each class.
	classesOf := func(g Grid) float64 {
		cg, err := g.compile()
		if err != nil {
			t.Fatal(err)
		}
		return float64(cg.embClasses)
	}
	if perClass := aPart / classesOf(part); perClass > 6 {
		t.Fatalf("per-class allocations = %.2f with partition axes (flat grid: %.2f), want a small constant",
			perClass, aFlat/classesOf(flat))
	}
}

// TestPriceShapeSteadyStateAllocs: the batched replay half of evalShape —
// memo lookup, per-class pricings, compute-time rows, the [kernel][cost
// class] table, the per-SRAM energy table — allocates nothing per shape
// once warm, including on the shapes where a new MAC count refills the
// compute-time rows and on grids with partition axes (several memory
// classes).
func TestPriceShapeSteadyStateAllocs(t *testing.T) {
	part := allocTestGrid()
	part.Integrations = []string{"monolithic", "2.5d", "3d"}
	part.Chiplets = []int{2, 4}
	for _, g := range []Grid{allocTestGrid(), part} {
		cg, err := g.compile()
		if err != nil {
			t.Fatal(err)
		}
		se, err := newShapeEval(cg, paperTask(t, workload.TaskAllKernels), NewMemoCache(0), carbon.FabCoal, nil)
		if err != nil {
			t.Fatal(err)
		}
		sc := newEvalScratch(se)
		for si := 0; si < cg.shapes(); si++ {
			if err := se.priceShape(si, sc); err != nil {
				t.Fatal(err)
			}
		}
		if sc.energy == nil {
			t.Fatal("the grid's energy table is not in use")
		}
		si := 0
		allocs := testing.AllocsPerRun(20, func() {
			if err := se.priceShape(si, sc); err != nil {
				t.Fatal(err)
			}
			si = (si + 1) % cg.shapes()
		})
		if allocs != 0 {
			t.Fatalf("%d cost classes: steady-state priceShape allocates %.1f objects per shape, want 0", len(cg.costReps), allocs)
		}
	}
}

// TestSurrogateScratchSkipsBatchBuffers: the batch buffers are sized on
// first use by evalShape, so the surrogate's per-batch scratch — which
// prices single points through the one-cell replay — never grows them.
func TestSurrogateScratchSkipsBatchBuffers(t *testing.T) {
	cg, err := allocTestGrid().compile()
	if err != nil {
		t.Fatal(err)
	}
	se, err := newShapeEval(cg, paperTask(t, workload.TaskXR5), NewMemoCache(0), carbon.FabCoal, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := newEvalScratch(se)
	for id := int64(0); id < cg.size(); id += 7 {
		if _, err := se.priceAt(id, sc); err != nil {
			t.Fatal(err)
		}
	}
	if sc.table != nil || sc.column != nil || sc.pricing != nil || sc.energy != nil || sc.energySet != nil || !reflect.ValueOf(sc.replay).IsZero() {
		t.Fatal("priceAt grew the batched-replay buffers")
	}
}

// TestOfferChunkSteadyStateAllocs: the accumulator side of the hot path.
// Offers of all-dominated chunks (the overwhelmingly common case at steady
// state) must not allocate; envelope insertions may.
func TestOfferChunkSteadyStateAllocs(t *testing.T) {
	acc := &taskAcc{payload: make(map[int64]Point)}

	pts := make([]Point, 16)
	for i := range pts {
		// One clear winner at index 0; the rest strictly dominated.
		pts[i] = Point{Delay: units.Time(1 + i), Energy: units.Energy(1 + i), Embodied: units.Carbon(1 + i)}
	}
	// Warm up: sizes the scratch and admits the surviving envelope.
	acc.offerChunk(0, pts)

	base := int64(len(pts))
	allocs := testing.AllocsPerRun(50, func() {
		acc.offerChunk(base, pts[1:]) // every point dominated by the resident envelope
	})
	if allocs > 0 {
		t.Fatalf("steady-state offerChunk allocates %.1f objects per chunk, want 0", allocs)
	}
}

// TestStreamingAllocsScaleWithShapesNotCells: end-to-end guard that total
// engine allocations track the shape count, not the cell count. Two grids
// with identical shapes but a 9×-different cell count must stay within a
// small factor of each other — before the scratch refactor the ratio
// tracked the cell ratio.
func TestStreamingAllocsScaleWithShapesNotCells(t *testing.T) {
	task := paperTask(t, workload.TaskXR5)
	fab := carbon.FabCoal
	run := func(g Grid) uint64 {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		if _, err := EvaluateStream(context.Background(), task, g, fab, 100, CheckpointOptions{StreamOptions: StreamOptions{Workers: 1}}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms1)
		return ms1.Mallocs - ms0.Mallocs
	}

	small := Grid{MACArrays: []int{8, 16, 32}, SRAMMB: []float64{2, 4}, VDDScales: []float64{1.0}, Nodes: []string{"7nm"}}
	big := Grid{MACArrays: []int{8, 16, 32}, SRAMMB: []float64{2, 4}, VDDScales: []float64{1.0, 0.9, 0.8}, Nodes: []string{"7nm", "5nm", "3nm"}}

	run(small) // warm-up: one-time laziness (device tables, paper tasks)
	aSmall := run(small)
	aBig := run(big)
	// 9× the cells should cost well under 3× the allocations (fixed
	// per-run overhead dominates; the inner loop contributes ~nothing).
	if aBig > 3*aSmall {
		t.Fatalf("allocations scale with cells: %d cells → %d mallocs, %d cells → %d mallocs", small.Size(), aSmall, big.Size(), aBig)
	}
}

// TestSurrogateGenerationSteadyStateAllocs: the serial bookkeeping between
// two evaluation batches — parent selection, the RBF fit, offspring
// prediction and ranking, and the dedupe of the chosen children — runs in
// the search's reused scratch and allocates nothing once warm, at the
// default population on the 4 200-point property grid.
func TestSurrogateGenerationSteadyStateAllocs(t *testing.T) {
	cg, err := surrGrid().compile()
	if err != nil {
		t.Fatal(err)
	}
	space := newSgSpace(cg)
	rng := newSgRand(5)
	population, want := DefaultSurrogatePopulation, DefaultSurrogatePopulation/2

	// A parent pool of population + one batch of children, with distinct
	// lattice points and smooth positive objectives the RBF can fit.
	pool := make([]SurrogateIndiv, 0, population+want)
	seen := make(map[int64]bool)
	for len(pool) < population+want {
		idx := space.idxOf(int64(rng.intn(int(cg.size()))))
		id := space.id(idx)
		if seen[id] {
			continue
		}
		seen[id] = true
		c := space.coords(idx)
		pool = append(pool, SurrogateIndiv{ID: id, Idx: idx, X: 1 + c[0] + 0.5*c[2] + rng.float(), Y: 3 - c[1] - c[0] + rng.float()})
	}
	s := newSgScratch()
	var raw [][sgAxes]int
	for len(raw) < 4*want {
		raw = append(raw, sgOffspring(rng, space, pool))
	}
	_, uniq := s.dedupe(space, raw, seen, -1)
	raw = append(raw[:0], uniq...)
	if len(raw) <= want {
		t.Fatalf("only %d distinct offspring, need more than %d", len(raw), want)
	}

	pop := append([]SurrogateIndiv(nil), pool...)
	generation := func() {
		parents := s.selectParents(pop, population)
		chosen := s.rankOffspring(space, parents, raw, want)
		if len(chosen) != want {
			t.Fatalf("ranked %d offspring, want %d", len(chosen), want)
		}
		s.dedupe(space, chosen, seen, int64(want))
		pop = append(parents[:0], pool...)
	}
	generation()
	if !s.rbf.fit(space, pool[:population]) {
		t.Fatal("RBF fit unusable on a smooth pool: the test would skip the model path")
	}
	if allocs := testing.AllocsPerRun(20, generation); allocs != 0 {
		t.Fatalf("one generation's selection, RBF fit and offspring ranking allocate %.1f objects, want 0", allocs)
	}
}
