package dse

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"cordoba/internal/carbon"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

// The surrogate search finds the tCDP Pareto envelope of a knob grid with a
// small fraction of the evaluations the exhaustive engine pays. It is a
// stdlib-only multi-objective lattice search in the THRAM/cgra-dse mold:
//
//   - the knob lattice is seeded with every corner of the axes plus a
//     Latin-hypercube-like stratified sample, so both objective extremes are
//     anchored before any adaptive step;
//   - each generation performs NSGA-II-style selection — non-dominated sort
//     with crowding-distance tie-breaks — then breeds offspring by per-axis
//     crossover and reflected local mutation on the knob indices;
//   - an optional cheap RBF surrogate (multiquadric interpolation over the
//     normalized knob coordinates, fit to the current population) ranks the
//     offspring so only the most promising fraction pays a real kernel
//     evaluation through the shared MemoCache;
//   - every truly evaluated point streams into the same incremental convex
//     envelope accumulator the exhaustive engine uses, so the result's
//     survivor set is exactly the envelope of the evaluated subset — a
//     surrogate prediction can steer the search but never place a point.
//
// The search is deterministic for a fixed Seed: a serializable splitmix64
// PRNG drives every stochastic choice, parallel evaluations are accumulated
// in sorted candidate order, and checkpoints capture the complete generation
// state, so rerunning — or resuming from any checkpoint — reproduces the
// result byte for byte. Exhaustive remains the oracle; quality.go measures a
// surrogate envelope against it.

// DefaultSurrogatePopulation is the NSGA population size when options leave
// it unset: large enough to hold a stratified sample plus the corners of a
// typical knob lattice (partition-free grids span five non-degenerate axes;
// grids with partition axes may exceed the population and are truncated by
// the budget-capped dedupe), small enough that the O(n²) sort and the RBF
// solve stay trivial.
const DefaultSurrogatePopulation = 48

// sgLegacyAxes is how many leading lattice axes predate the partition axes.
// Variation operators draw RNG for these unconditionally — exactly as the
// historical five-axis implementation did — and for the partition axes only
// when present, so partition-free searches consume the identical RNG stream
// and reproduce historical results byte for byte.
const sgLegacyAxes = 5

// Surrogate budget bounds when SurrogateOptions.Budget is unset: 2 % of the
// grid, floored so small searches still converge and capped so huge grids
// keep sub-linear cost.
const (
	surrogateBudgetFracDenom = 50 // 1/50 = 2 % of the grid
	surrogateMinBudget       = 256
	surrogateMaxBudget       = 8192
)

// DefaultSurrogateBudget returns the evaluation budget used when options
// leave it unset: size/50 (2 %), clamped to [256, 8192] and never above the
// grid itself, nor below four populations' worth of evaluations.
func DefaultSurrogateBudget(size int64, population int) int64 {
	b := size / surrogateBudgetFracDenom
	if min := int64(4 * population); b < min {
		b = min
	}
	if b < surrogateMinBudget {
		b = surrogateMinBudget
	}
	if b > surrogateMaxBudget {
		b = surrogateMaxBudget
	}
	if b > size {
		b = size
	}
	return b
}

// SurrogateOptions tunes the surrogate search. The zero value selects the
// documented defaults (seed 1, auto budget, default population, unlimited
// generations).
type SurrogateOptions struct {
	StreamOptions

	// Seed drives every stochastic choice; runs with equal seed and inputs
	// are byte-identical. 0 selects seed 1.
	Seed uint64

	// Budget caps true evaluations; <= 0 selects DefaultSurrogateBudget.
	Budget int64

	// Population is the NSGA parent-pool size; <= 0 selects
	// DefaultSurrogatePopulation.
	Population int

	// Generations caps the adaptive rounds; <= 0 runs until the budget (or
	// the grid) is exhausted.
	Generations int

	// Resume continues from a previous checkpoint. It must carry this run's
	// fingerprint (task, grid, fab, CI, yield, seed, budget, population).
	Resume *SurrogateCheckpoint

	// Every is the checkpoint cadence in generations; <= 0 disables.
	Every int

	// OnCheckpoint receives a consistent snapshot every Every generations,
	// on the search goroutine. A returned error aborts the search.
	OnCheckpoint func(*SurrogateCheckpoint) error

	// OnProgress, when set, observes progress after every generation.
	OnProgress func(SurrogateProgress)
}

// SurrogateProgress is the live view of a running search.
type SurrogateProgress struct {
	Generation int   // adaptive rounds completed (0 while seeding)
	Evals      int64 // true evaluations paid so far
	Budget     int64 // resolved evaluation budget
	Kept       int   // current envelope size
	GridPoints int64 // full grid size, for context
}

// SurrogateResult is the outcome of a surrogate search. The embedded
// StreamResult holds the envelope of the truly evaluated subset in the same
// form the exhaustive engine produces (Total counts evaluations, and the
// Sum* statistics cover the evaluated sample, not the whole grid).
type SurrogateResult struct {
	*StreamResult

	GridPoints  int64  // configurations the grid enumerates
	Evaluations int64  // true evaluations paid (== StreamResult.Total)
	Generations int    // adaptive rounds run
	Skipped     int64  // offspring ranked out by the surrogate, never evaluated
	Seed        uint64 // resolved seed
	Budget      int64  // resolved budget

	// Evaluated lists every truly evaluated grid index, ascending. The
	// envelope's IDs are always a subset — the property suite pins it.
	Evaluated []int64
}

// SurrogateIndiv is one lattice individual: its knob indices, grid index,
// and evaluated objectives (X = E·D, Y = C_emb·D).
type SurrogateIndiv struct {
	ID  int64       `json:"id"`
	Idx [sgAxes]int `json:"idx"`
	X   float64     `json:"x"`
	Y   float64     `json:"y"`
}

// SurrogateCheckpoint is a resumable snapshot of the search, taken at a
// generation boundary: the generation counter, the PRNG state, the parent
// population, the evaluated-id set, and the archive accumulator. Resuming
// replays the remaining generations bit-identically to an uninterrupted run.
type SurrogateCheckpoint struct {
	Fingerprint string           `json:"fingerprint"`
	GridPoints  int64            `json:"grid_points"`
	Generation  int              `json:"generation"`
	Skipped     int64            `json:"skipped"`
	RNG         uint64           `json:"rng"`
	Population  []SurrogateIndiv `json:"population"`
	Evaluated   []int64          `json:"evaluated"`
	Acc         AccState         `json:"acc"`
}

// validate checks a checkpoint against the run asked to resume it.
func (cp *SurrogateCheckpoint) validate(fp string, size int64) error {
	if cp.Fingerprint != fp {
		return fmt.Errorf("dse: surrogate checkpoint fingerprint %.12s does not match this run (%.12s): the task, grid, fab, CI, yield, seed, budget or population changed", cp.Fingerprint, fp)
	}
	if cp.GridPoints != size {
		return fmt.Errorf("dse: surrogate checkpoint covers a %d-point grid, this grid has %d", cp.GridPoints, size)
	}
	if cp.Generation < 0 || cp.Skipped < 0 {
		return fmt.Errorf("dse: surrogate checkpoint counters corrupt: generation %d, skipped %d", cp.Generation, cp.Skipped)
	}
	if int64(len(cp.Evaluated)) != cp.Acc.Total {
		return fmt.Errorf("dse: surrogate checkpoint lists %d evaluated ids but accumulated %d", len(cp.Evaluated), cp.Acc.Total)
	}
	for i, id := range cp.Evaluated {
		if id < 0 || id >= size {
			return fmt.Errorf("dse: surrogate checkpoint evaluated id %d outside grid [0, %d)", id, size)
		}
		if i > 0 && cp.Evaluated[i-1] >= id {
			return fmt.Errorf("dse: surrogate checkpoint evaluated ids not strictly ascending at %d", i)
		}
	}
	seen := make(map[int64]bool, len(cp.Evaluated))
	for _, id := range cp.Evaluated {
		seen[id] = true
	}
	for i, ind := range cp.Population {
		if !seen[ind.ID] {
			return fmt.Errorf("dse: surrogate checkpoint population member %d (id %d) was never evaluated", i, ind.ID)
		}
	}
	for _, id := range cp.Acc.Envelope.IDs {
		if !seen[id] {
			return fmt.Errorf("dse: surrogate checkpoint envelope id %d was never evaluated", id)
		}
	}
	return nil
}

// surrogateFingerprint binds a checkpoint to everything the search outcome
// depends on: the exhaustive-engine fingerprint (task, grid, fab, CI, yield)
// plus the search's own seed, budget, population and generation cap.
func surrogateFingerprint(task workload.Task, g Grid, fab carbon.Fab, ci units.CarbonIntensity, yield carbon.YieldModel, seed uint64, budget int64, population, generations int) string {
	b, err := json.Marshal(struct {
		Base        string `json:"base"`
		Seed        uint64 `json:"seed"`
		Budget      int64  `json:"budget"`
		Population  int    `json:"population"`
		Generations int    `json:"generations"`
	}{checkpointFingerprint([]workload.Task{task}, g, fab, ci, yield), seed, budget, population, generations})
	if err != nil {
		panic(fmt.Sprintf("dse: surrogate fingerprint marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// ---- deterministic PRNG ----

// sgRand is a splitmix64 generator: a single serializable uint64 of state,
// so checkpoints capture it exactly and resumes continue the identical
// stream. Statistical quality is far beyond what lattice sampling needs.
type sgRand struct{ state uint64 }

func newSgRand(seed uint64) *sgRand { return &sgRand{state: seed} }

func (r *sgRand) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n); n must be positive. The modulo bias
// is immaterial at lattice sizes and keeps the draw count fixed per call,
// which the checkpoint determinism contract depends on.
func (r *sgRand) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform float64 in [0, 1).
func (r *sgRand) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// perm returns a Fisher-Yates permutation of [0, n).
func (r *sgRand) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// ---- lattice geometry ----

// sgAxes is the knob-lattice dimensionality, in canonical order: MAC
// arrays, SRAM, V_DD, node, model, integration, chiplets, chiplet node.
// Absent axes have length 1 and collapse out of every id computation, so
// partition-free grids keep their historical indices (and old checkpoints,
// whose Idx vectors unmarshal with trailing zeros, resume bit-identically).
const sgAxes = 8

// sgSpace is the knob lattice of a compiled grid: per-axis lengths in the
// canonical order above and the conversion between index vectors and
// shape-major grid indices — the same indices cg.at enumerates, so surrogate
// points keep whole-grid identity.
type sgSpace struct {
	cg    *compiledGrid
	lens  [sgAxes]int
	cells int64
}

func newSgSpace(cg *compiledGrid) *sgSpace {
	g := cg.g
	return &sgSpace{
		cg: cg,
		lens: [sgAxes]int{
			len(g.MACArrays), len(g.SRAMMB), len(g.VDDScales), len(g.Nodes),
			int(axisLen(len(g.Models))), int(axisLen(len(g.Integrations))),
			int(axisLen(len(g.Chiplets))), int(axisLen(len(g.ChipletNodes))),
		},
		cells: int64(len(cg.cells)),
	}
}

// id maps an index vector to its shape-major grid index, matching the
// enumeration order of compiledGrid.at (cells are V_DD-major, then node,
// model, integration, chiplets, with the chiplet node innermost).
func (s *sgSpace) id(idx [sgAxes]int) int64 {
	shape := idx[0]*s.lens[1] + idx[1]
	cell := idx[2]
	for k := 3; k < sgAxes; k++ {
		cell = cell*s.lens[k] + idx[k]
	}
	return int64(shape)*s.cells + int64(cell)
}

// coords maps an index vector to normalized [0,1] coordinates for the RBF
// surrogate; degenerate axes (length 1) collapse to 0.
func (s *sgSpace) coords(idx [sgAxes]int) [sgAxes]float64 {
	var out [sgAxes]float64
	for k, l := range s.lens {
		if l > 1 {
			out[k] = float64(idx[k]) / float64(l-1)
		}
	}
	return out
}

// corners returns every combination of extreme indices (2^(non-degenerate
// axes) vectors, ≤ 2^sgAxes): the anchors of both objective extremes.
func (s *sgSpace) corners() [][sgAxes]int {
	out := [][sgAxes]int{{}}
	for k, l := range s.lens {
		if l <= 1 {
			continue
		}
		next := make([][sgAxes]int, 0, 2*len(out))
		for _, idx := range out {
			lo, hi := idx, idx
			hi[k] = l - 1
			next = append(next, lo, hi)
		}
		out = next
	}
	return out
}

// latin returns n stratified samples: a Latin-hypercube-like design where
// each axis is cut into n strata and every stratum is used exactly once, in
// an independent random permutation per axis.
func (s *sgSpace) latin(rng *sgRand, n int) [][sgAxes]int {
	if n <= 0 {
		return nil
	}
	var perms [sgAxes][]int
	for k, l := range s.lens {
		if l > 1 {
			perms[k] = rng.perm(n)
		}
	}
	out := make([][sgAxes]int, n)
	for j := 0; j < n; j++ {
		var idx [sgAxes]int
		for k, l := range s.lens {
			if l <= 1 {
				continue
			}
			pos := (float64(perms[k][j]) + rng.float()) / float64(n)
			i := int(pos * float64(l))
			if i >= l {
				i = l - 1
			}
			idx[k] = i
		}
		out[j] = idx
	}
	return out
}

// ---- NSGA-II machinery ----

// sgDominates reports strict Pareto dominance of a over b.
func sgDominates(a, b SurrogateIndiv) bool {
	return a.X <= b.X && a.Y <= b.Y && (a.X < b.X || a.Y < b.Y)
}

// sgRank assigns non-domination ranks (0 = the Pareto front of the pool).
// O(n²), fine at population scale.
func sgRank(pop []SurrogateIndiv) []int {
	n := len(pop)
	dominated := make([]int, n) // how many dominate i
	dominates := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case sgDominates(pop[i], pop[j]):
				dominates[i] = append(dominates[i], j)
				dominated[j]++
			case sgDominates(pop[j], pop[i]):
				dominates[j] = append(dominates[j], i)
				dominated[i]++
			}
		}
	}
	rank := make([]int, n)
	var front []int
	for i := 0; i < n; i++ {
		if dominated[i] == 0 {
			front = append(front, i)
		}
	}
	for r := 0; len(front) > 0; r++ {
		var next []int
		for _, i := range front {
			rank[i] = r
			for _, j := range dominates[i] {
				if dominated[j]--; dominated[j] == 0 {
					next = append(next, j)
				}
			}
		}
		front = next
	}
	return rank
}

// sgCrowding computes each individual's crowding distance within its front:
// boundary members get +Inf, interior members the normalized gap between
// their neighbors on both objectives.
func sgCrowding(pop []SurrogateIndiv, rank []int) []float64 {
	crowd := make([]float64, len(pop))
	maxRank := 0
	for _, r := range rank {
		if r > maxRank {
			maxRank = r
		}
	}
	for r := 0; r <= maxRank; r++ {
		var f []int
		for i, ri := range rank {
			if ri == r {
				f = append(f, i)
			}
		}
		if len(f) <= 2 {
			for _, i := range f {
				crowd[i] = math.Inf(1)
			}
			continue
		}
		sort.Slice(f, func(a, b int) bool {
			pa, pb := pop[f[a]], pop[f[b]]
			if pa.X != pb.X {
				return pa.X < pb.X
			}
			if pa.Y != pb.Y {
				return pa.Y < pb.Y
			}
			return pa.ID < pb.ID
		})
		crowd[f[0]], crowd[f[len(f)-1]] = math.Inf(1), math.Inf(1)
		dx := pop[f[len(f)-1]].X - pop[f[0]].X
		dy := math.Abs(pop[f[0]].Y - pop[f[len(f)-1]].Y)
		for k := 1; k < len(f)-1; k++ {
			if dx > 0 {
				crowd[f[k]] += (pop[f[k+1]].X - pop[f[k-1]].X) / dx
			}
			if dy > 0 {
				crowd[f[k]] += math.Abs(pop[f[k-1]].Y-pop[f[k+1]].Y) / dy
			}
		}
	}
	return crowd
}

// sgSelect returns the n best individuals by (rank asc, crowding desc,
// id asc) — NSGA-II environmental selection with a deterministic tie-break.
// The result is freshly allocated and sorted best-first, so binary
// tournaments reduce to "lower index wins".
func sgSelect(pop []SurrogateIndiv, n int) []SurrogateIndiv {
	rank := sgRank(pop)
	crowd := sgCrowding(pop, rank)
	ord := make([]int, len(pop))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool {
		ia, ib := ord[a], ord[b]
		if rank[ia] != rank[ib] {
			return rank[ia] < rank[ib]
		}
		if crowd[ia] != crowd[ib] {
			return crowd[ia] > crowd[ib]
		}
		return pop[ia].ID < pop[ib].ID
	})
	if n > len(ord) {
		n = len(ord)
	}
	out := make([]SurrogateIndiv, n)
	for i := 0; i < n; i++ {
		out[i] = pop[ord[i]]
	}
	return out
}

// ---- variation operators ----

// sgOffspring breeds one child: per-axis uniform crossover between two
// tournament winners, then reflected local mutation on the knob indices —
// mostly ±small steps, with a rare uniform jump for exploration.
func sgOffspring(rng *sgRand, space *sgSpace, pop []SurrogateIndiv) [sgAxes]int {
	// Binary tournaments; pop is sorted best-first, so lower index wins.
	ai, bi := rng.intn(len(pop)), rng.intn(len(pop))
	if bi < ai {
		ai = bi
	}
	ci, di := rng.intn(len(pop)), rng.intn(len(pop))
	if di < ci {
		ci = di
	}
	a, b := pop[ai].Idx, pop[ci].Idx

	var child [sgAxes]int
	for k, l := range space.lens {
		if l <= 1 && k >= sgLegacyAxes {
			continue // absent partition axis: no knob, no RNG draw
		}
		if rng.next()&1 == 0 {
			child[k] = a[k]
		} else {
			child[k] = b[k]
		}
		if l <= 1 {
			continue
		}
		switch r := rng.float(); {
		case r < 0.05:
			child[k] = rng.intn(l) // uniform jump
		case r < 0.45:
			delta := 1
			for rng.float() < 0.4 && delta < l {
				delta++
			}
			if rng.next()&1 == 0 {
				delta = -delta
			}
			v := child[k] + delta
			// Reflect at the lattice edges, then clamp for safety.
			if v < 0 {
				v = -v
			}
			if v > l-1 {
				v = 2*(l-1) - v
			}
			if v < 0 {
				v = 0
			} else if v > l-1 {
				v = l - 1
			}
			child[k] = v
		}
	}
	return child
}

// ---- RBF surrogate model ----

// sgRBF is a multiquadric radial-basis interpolator over normalized knob
// coordinates, fit to the current population's log-objectives. Predictions
// only rank offspring — they never enter the archive — so interpolation
// error costs evaluations, not correctness.
type sgRBF struct {
	centers [][sgAxes]float64
	wx, wy  []float64
}

// sgRBFShape² is the multiquadric shape parameter c² on the unit lattice.
const sgRBFShape2 = 0.09

func sgPhi(r2 float64) float64 { return math.Sqrt(r2 + sgRBFShape2) }

func sgDist2(a, b [sgAxes]float64) float64 {
	var d2 float64
	for k := range a {
		d := a[k] - b[k]
		d2 += d * d
	}
	return d2
}

// sgFitRBF solves the regularized interpolation system for both objectives.
// It returns nil when the system is numerically unusable (the caller then
// evaluates unranked).
func sgFitRBF(space *sgSpace, train []SurrogateIndiv) *sgRBF {
	n := len(train)
	if n < 4 {
		return nil
	}
	m := &sgRBF{centers: make([][sgAxes]float64, n)}
	for i, ind := range train {
		m.centers[i] = space.coords(ind.Idx)
	}
	// Dense system with two right-hand sides, Gaussian elimination with
	// partial pivoting. n is the population size, so this is microseconds.
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+2)
		for j := 0; j < n; j++ {
			a[i][j] = sgPhi(sgDist2(m.centers[i], m.centers[j]))
		}
		a[i][i] += 1e-6 // ridge term: tolerate near-duplicate centers
		a[i][n] = math.Log(train[i].X)
		a[i][n+1] = math.Log(train[i].Y)
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		if math.Abs(a[col][col]) < 1e-12 {
			return nil
		}
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for j := col; j < n+2; j++ {
				a[r][j] -= f * a[col][j]
			}
		}
	}
	m.wx, m.wy = make([]float64, n), make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sx, sy := a[i][n], a[i][n+1]
		for j := i + 1; j < n; j++ {
			sx -= a[i][j] * m.wx[j]
			sy -= a[i][j] * m.wy[j]
		}
		m.wx[i] = sx / a[i][i]
		m.wy[i] = sy / a[i][i]
	}
	for i := range m.wx {
		if math.IsNaN(m.wx[i]) || math.IsInf(m.wx[i], 0) || math.IsNaN(m.wy[i]) || math.IsInf(m.wy[i], 0) {
			return nil
		}
	}
	return m
}

// predict returns the interpolated log-objectives at an index vector.
// Dominance comparisons on logs equal dominance on the raw objectives.
func (m *sgRBF) predict(space *sgSpace, idx [sgAxes]int) (x, y float64) {
	c := space.coords(idx)
	for i, ctr := range m.centers {
		phi := sgPhi(sgDist2(c, ctr))
		x += m.wx[i] * phi
		y += m.wy[i] * phi
	}
	return x, y
}

// ---- evaluation ----

// sgEval prices one grid point exactly like the exhaustive engine
// (pricePoint), so a surrogate-evaluated point is bit-identical to its
// exhaustive twin. Grid cells are valid by construction (compile).
func sgEval(se *shapeEval, id int64, sc *evalScratch) (Point, error) {
	cfg, cell := se.cg.at(id)
	return se.pricePoint(cfg, cell.model, cell.modelName, cell.process, sc)
}

// EvaluateSurrogate runs the surrogate-guided Pareto search over a knob grid
// for one task. The returned envelope contains only truly evaluated points
// (their grid IDs match the exhaustive enumeration), Evaluations reports the
// budget actually spent, and results are byte-identical across reruns and
// checkpoint/resume for a fixed Seed.
func EvaluateSurrogate(ctx context.Context, task workload.Task, g Grid, fab carbon.Fab, ci units.CarbonIntensity, opt SurrogateOptions) (*SurrogateResult, error) {
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
	space := newSgSpace(cg)
	size := cg.size()

	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	population := opt.Population
	if population <= 0 {
		population = DefaultSurrogatePopulation
	}
	budget := opt.Budget
	if budget <= 0 {
		budget = DefaultSurrogateBudget(size, population)
	}
	if budget > size {
		budget = size
	}
	memo := opt.Memo
	if memo == nil {
		memo = NewMemoCache(0)
	}
	se, err := newShapeEval(cg, []workload.Task{task}, memo, fab, opt.Yield)
	if err != nil {
		return nil, err
	}
	fp := surrogateFingerprint(task, g, fab, ci, opt.Yield, seed, budget, population, opt.Generations)

	rng := newSgRand(seed)
	acc := &taskAcc{payload: make(map[int64]Point)}
	seen := make(map[int64]bool, budget)
	var evalOrder []int64 // ascending insert per batch; checkpoint stores the sorted union
	var pop []SurrogateIndiv
	gen := 0
	var skipped int64

	// evaluate prices a batch of unseen candidate ids (ascending) and folds
	// them into the archive, the population, and the evaluated set.
	evaluate := func(ids []int64, idxs [][sgAxes]int) error {
		pts, err := evalBatch(ctx, se, len(ids), opt.Workers, func(i int, sc *evalScratch) (Point, error) {
			return sgEval(se, ids[i], sc)
		})
		if err != nil {
			return err
		}
		acc.offerBatch(ids, pts)
		for i, id := range ids {
			seen[id] = true
			evalOrder = append(evalOrder, id)
			pop = append(pop, SurrogateIndiv{
				ID:  id,
				Idx: idxs[i],
				X:   pts[i].EDP(),
				Y:   pts[i].EmbodiedDelay(),
			})
		}
		return nil
	}

	report := func() {
		if opt.OnProgress == nil {
			return
		}
		_, _, kept := acc.progress()
		opt.OnProgress(SurrogateProgress{
			Generation: gen,
			Evals:      int64(len(seen)),
			Budget:     budget,
			Kept:       kept,
			GridPoints: size,
		})
	}

	if cp := opt.Resume; cp != nil {
		if err := cp.validate(fp, size); err != nil {
			return nil, err
		}
		if err := acc.restore(cp.Acc); err != nil {
			return nil, fmt.Errorf("dse: surrogate checkpoint: %w", err)
		}
		for _, id := range cp.Evaluated {
			seen[id] = true
			evalOrder = append(evalOrder, id)
		}
		pop = append([]SurrogateIndiv(nil), cp.Population...)
		gen = cp.Generation
		skipped = cp.Skipped
		rng.state = cp.RNG
	} else {
		// Seed phase: lattice corners anchor the objective extremes, a
		// Latin-hypercube sample spreads the rest of the first population.
		cands := space.corners()
		if extra := population - len(cands); extra > 0 {
			cands = append(cands, space.latin(rng, extra)...)
		}
		ids, idxs := dedupeCandidates(space, cands, seen, budget)
		if err := evaluate(ids, idxs); err != nil {
			return nil, err
		}
		report()
	}

	batch := population / 2
	if batch < 8 {
		batch = 8
	}
	for {
		evals := int64(len(seen))
		if evals >= budget || evals >= size {
			break
		}
		if opt.Generations > 0 && gen >= opt.Generations {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("dse: surrogate search aborted: %w", err)
		}
		gen++

		pop = sgSelect(pop, population)
		want := batch
		if remaining := budget - evals; int64(want) > remaining {
			want = int(remaining)
		}

		// Breed up to 4× the evaluation slots; the surrogate ranks them and
		// only the most promising fraction pays a real evaluation.
		target := 4 * want
		raw := make([][sgAxes]int, 0, target)
		local := make(map[int64]bool, target)
		for attempts := 0; len(raw) < target && attempts < 16*target; attempts++ {
			child := sgOffspring(rng, space, pop)
			id := space.id(child)
			if seen[id] || local[id] {
				continue
			}
			local[id] = true
			raw = append(raw, child)
		}
		if len(raw) == 0 {
			// The neighborhood of the front is exhausted (tiny grid or huge
			// budget): fall back to a deterministic sweep of unseen ids so a
			// budget ≥ grid degrades to exhaustive.
			ids, idxs := unseenSweep(space, seen, want)
			if len(ids) == 0 {
				break
			}
			if err := evaluate(ids, idxs); err != nil {
				return nil, err
			}
			report()
			continue
		}

		chosen := raw
		if len(raw) > want {
			chosen = sgRankOffspring(space, pop, raw, want)
			skipped += int64(len(raw) - len(chosen))
		}
		ids, idxs := dedupeCandidates(space, chosen, seen, budget-evals)
		if err := evaluate(ids, idxs); err != nil {
			return nil, err
		}
		report()

		if opt.Every > 0 && opt.OnCheckpoint != nil && gen%opt.Every == 0 {
			if err := opt.OnCheckpoint(snapshotSurrogate(fp, size, gen, skipped, rng, pop, evalOrder, acc)); err != nil {
				return nil, fmt.Errorf("dse: surrogate checkpoint callback: %w", err)
			}
		}
	}

	sortedIDs := append([]int64(nil), evalOrder...)
	sort.Slice(sortedIDs, func(i, j int) bool { return sortedIDs[i] < sortedIDs[j] })
	return &SurrogateResult{
		StreamResult: acc.result(task, ci),
		GridPoints:   size,
		Evaluations:  int64(len(seen)),
		Generations:  gen,
		Skipped:      skipped,
		Seed:         seed,
		Budget:       budget,
		Evaluated:    sortedIDs,
	}, nil
}

// snapshotSurrogate captures the search state at a generation boundary.
func snapshotSurrogate(fp string, size int64, gen int, skipped int64, rng *sgRand, pop []SurrogateIndiv, evalOrder []int64, acc *taskAcc) *SurrogateCheckpoint {
	ids := append([]int64(nil), evalOrder...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return &SurrogateCheckpoint{
		Fingerprint: fp,
		GridPoints:  size,
		Generation:  gen,
		Skipped:     skipped,
		RNG:         rng.state,
		Population:  append([]SurrogateIndiv(nil), pop...),
		Evaluated:   ids,
		Acc:         acc.snapshot(),
	}
}

// sgRankOffspring picks the want most promising offspring: an RBF surrogate
// fit to the parent population predicts each child's objectives, and NSGA
// selection on the predictions keeps a non-dominated, well-spread subset.
// When the fit is unusable the first want children by grid id are taken —
// the search stays correct, just less sample-efficient.
func sgRankOffspring(space *sgSpace, parents []SurrogateIndiv, raw [][sgAxes]int, want int) [][sgAxes]int {
	model := sgFitRBF(space, parents)
	if model == nil {
		byID := append([][sgAxes]int(nil), raw...)
		sort.Slice(byID, func(i, j int) bool { return space.id(byID[i]) < space.id(byID[j]) })
		return byID[:want]
	}
	preds := make([]SurrogateIndiv, len(raw))
	for i, idx := range raw {
		x, y := model.predict(space, idx)
		preds[i] = SurrogateIndiv{ID: space.id(idx), Idx: idx, X: x, Y: y}
	}
	best := sgSelect(preds, want)
	out := make([][sgAxes]int, len(best))
	for i, ind := range best {
		out[i] = ind.Idx
	}
	return out
}

// dedupeCandidates resolves candidate index vectors to unique, unseen grid
// ids, caps them at limit, and returns them sorted ascending by id so
// accumulation order is canonical.
func dedupeCandidates(space *sgSpace, cands [][sgAxes]int, seen map[int64]bool, limit int64) ([]int64, [][sgAxes]int) {
	type c struct {
		id  int64
		idx [sgAxes]int
	}
	uniq := make([]c, 0, len(cands))
	local := make(map[int64]bool, len(cands))
	for _, idx := range cands {
		id := space.id(idx)
		if seen[id] || local[id] {
			continue
		}
		local[id] = true
		uniq = append(uniq, c{id, idx})
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i].id < uniq[j].id })
	if limit >= 0 && int64(len(uniq)) > limit {
		uniq = uniq[:limit]
	}
	ids := make([]int64, len(uniq))
	idxs := make([][sgAxes]int, len(uniq))
	for i, u := range uniq {
		ids[i], idxs[i] = u.id, u.idx
	}
	return ids, idxs
}

// unseenSweep returns up to n unseen ids in ascending order — the
// exhaustive-degradation path for budgets that approach the grid size.
func unseenSweep(space *sgSpace, seen map[int64]bool, n int) ([]int64, [][sgAxes]int) {
	var ids []int64
	var idxs [][sgAxes]int
	size := space.cg.size()
	for id := int64(0); id < size && len(ids) < n; id++ {
		if seen[id] {
			continue
		}
		ids = append(ids, id)
		idxs = append(idxs, space.idxOf(id))
	}
	return ids, idxs
}

// idxOf inverts id: the index vector of a shape-major grid index.
func (s *sgSpace) idxOf(id int64) [sgAxes]int {
	shape := int(id / s.cells)
	cell := int(id % s.cells)
	var idx [sgAxes]int
	idx[0], idx[1] = shape/s.lens[1], shape%s.lens[1]
	for k := sgAxes - 1; k >= 3; k-- {
		idx[k] = cell % s.lens[k]
		cell /= s.lens[k]
	}
	idx[2] = cell
	return idx
}
