package dse

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
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
// the budget-capped dedupe), small enough that the O(n³) RBF solve stays
// trivial next to the O(n log n) NSGA-II selection.
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

// validate checks a checkpoint against the run asked to resume it, over
// that run's knob lattice and budget: besides the fingerprint and the
// bookkeeping, every population member must be a distinct evaluated lattice
// point whose index vector lies on the lattice and maps to its id — the
// search breeds from those vectors, so a corrupt one would price off-grid or
// diverge.
func (cp *SurrogateCheckpoint) validate(fp string, space *sgSpace, budget int64) error {
	size := space.cg.size()
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
	if int64(len(cp.Evaluated)) > budget {
		return fmt.Errorf("dse: surrogate checkpoint lists %d evaluated ids, over the %d-evaluation budget", len(cp.Evaluated), budget)
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
	if len(cp.Population) == 0 {
		return fmt.Errorf("dse: surrogate checkpoint has an empty population")
	}
	members := make(map[int64]bool, len(cp.Population))
	for i, ind := range cp.Population {
		for k, l := range space.lens {
			if ind.Idx[k] < 0 || ind.Idx[k] >= l {
				return fmt.Errorf("dse: surrogate checkpoint population member %d index %v outside the %v lattice", i, ind.Idx, space.lens)
			}
		}
		if id := space.id(ind.Idx); id != ind.ID {
			return fmt.Errorf("dse: surrogate checkpoint population member %d index %v is grid id %d, not its id %d", i, ind.Idx, id, ind.ID)
		}
		if members[ind.ID] {
			return fmt.Errorf("dse: surrogate checkpoint population lists id %d twice", ind.ID)
		}
		members[ind.ID] = true
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
	}{checkpointFingerprint(task, g, fab, ci, yield), seed, budget, population, generations})
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
func sgDominates(a, b *SurrogateIndiv) bool {
	return a.X <= b.X && a.Y <= b.Y && (a.X < b.X || a.Y < b.Y)
}

// sgObjOrder sorts pool indices by (X, Y, ID). Ids are unique in every pool
// the search ranks — the population and the deduplicated offspring — so
// this is a total order and any sort lands on the same permutation.
type sgObjOrder struct {
	pool []SurrogateIndiv
	idx  []int
}

func (o *sgObjOrder) Len() int      { return len(o.idx) }
func (o *sgObjOrder) Swap(a, b int) { o.idx[a], o.idx[b] = o.idx[b], o.idx[a] }
func (o *sgObjOrder) Less(a, b int) bool {
	pa, pb := &o.pool[o.idx[a]], &o.pool[o.idx[b]]
	if pa.X != pb.X {
		return pa.X < pb.X
	}
	if pa.Y != pb.Y {
		return pa.Y < pb.Y
	}
	return pa.ID < pb.ID
}

// sgCrowdOrder sorts the indices of one front by (crowding desc, id asc).
type sgCrowdOrder struct {
	pool  []SurrogateIndiv
	crowd []float64
	idx   []int
}

func (o *sgCrowdOrder) Len() int      { return len(o.idx) }
func (o *sgCrowdOrder) Swap(a, b int) { o.idx[a], o.idx[b] = o.idx[b], o.idx[a] }
func (o *sgCrowdOrder) Less(a, b int) bool {
	ia, ib := o.idx[a], o.idx[b]
	if o.crowd[ia] != o.crowd[ib] {
		return o.crowd[ia] > o.crowd[ib]
	}
	return o.pool[ia].ID < o.pool[ib].ID
}

// sgNSGA is the reusable working set of NSGA-II environmental selection.
// Its buffers grow to the largest pool seen and are reused every
// generation, so ranking, crowding and selection allocate nothing once warm.
type sgNSGA struct {
	rank    []int     // non-domination rank per pool member (0 = Pareto front)
	crowd   []float64 // crowding distance per pool member, within its front
	tail    []int     // per front: its last-swept member, then a fill cursor
	start   []int     // per front: its offset into byFront (plus an end sentinel)
	obj     sgObjOrder
	byFront []int // obj.idx regrouped by rank, each front still in (X, Y, ID) order
	front   sgCrowdOrder
}

// rankAndCrowd assigns every pool member its non-domination rank and
// crowding distance — exactly what Deb's pairwise sort and a per-front
// re-sort produce (the test oracle pins it), in O(n log n).
//
// Ranking is a sort-and-sweep, valid because there are two objectives: in
// (X, Y, ID) order only earlier members can dominate a point, and along a
// front X never falls and Y never rises, so each front's last-swept member
// (its tail) dominates the point iff some member of that front does. Every member of
// front k is dominated from front k-1, so the fronts dominating a point form
// a prefix, and a binary search over the tails finds its rank.
//
// Crowding then walks each front in that same (X, Y, ID) order — a stable
// counting sort by rank regroups the sweep order front by front — instead
// of re-sorting every front: boundary members get +Inf, interior members the
// normalized gap between their neighbors on both objectives.
func (s *sgNSGA) rankAndCrowd(pool []SurrogateIndiv) {
	n := len(pool)
	s.obj.pool, s.obj.idx = pool, resize(s.obj.idx, n)
	for i := range s.obj.idx {
		s.obj.idx[i] = i
	}
	sort.Sort(&s.obj)

	s.rank = resize(s.rank, n)
	tail := s.tail[:0]
	for _, i := range s.obj.idx {
		p := &pool[i]
		lo, hi := 0, len(tail)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if sgDominates(&pool[tail[mid]], p) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(tail) {
			tail = append(tail, i)
		} else {
			tail[lo] = i
		}
		s.rank[i] = lo
	}
	fronts := len(tail)

	start := resize(s.start, fronts+1)
	clear(start)
	for _, r := range s.rank {
		start[r+1]++
	}
	for f := 0; f < fronts; f++ {
		start[f+1] += start[f]
		tail[f] = start[f]
	}
	s.byFront = resize(s.byFront, n)
	for _, i := range s.obj.idx {
		r := s.rank[i]
		s.byFront[tail[r]] = i
		tail[r]++
	}
	s.tail, s.start = tail, start

	s.crowd = resize(s.crowd, n)
	for f := 0; f < fronts; f++ {
		m := s.byFront[start[f]:start[f+1]]
		if len(m) <= 2 {
			for _, i := range m {
				s.crowd[i] = math.Inf(1)
			}
			continue
		}
		first, last := &pool[m[0]], &pool[m[len(m)-1]]
		s.crowd[m[0]], s.crowd[m[len(m)-1]] = math.Inf(1), math.Inf(1)
		dx := last.X - first.X
		dy := math.Abs(first.Y - last.Y)
		for k := 1; k < len(m)-1; k++ {
			var c float64
			if dx > 0 {
				c += (pool[m[k+1]].X - pool[m[k-1]].X) / dx
			}
			if dy > 0 {
				c += math.Abs(pool[m[k-1]].Y-pool[m[k+1]].Y) / dy
			}
			s.crowd[m[k]] = c
		}
	}
}

// selectOrder returns the indices of the n best pool members by (rank asc,
// crowding desc, id asc) — NSGA-II environmental selection with a
// deterministic tie-break — best-first, so binary tournaments reduce to
// "lower index wins". The fronts are already in rank order, so only the
// fronts that reach into the first n are sorted, each by crowding. The
// result is scratch, valid until the next call.
func (s *sgNSGA) selectOrder(pool []SurrogateIndiv, n int) []int {
	s.rankAndCrowd(pool)
	if n > len(pool) {
		n = len(pool)
	}
	s.front.pool, s.front.crowd = pool, s.crowd
	for f := 0; f+1 < len(s.start) && s.start[f] < n; f++ {
		s.front.idx = s.byFront[s.start[f]:s.start[f+1]]
		sort.Sort(&s.front)
	}
	return s.byFront[:n]
}

// resize returns buf with length n, reallocating only when it is too small.
// The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
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
// error costs evaluations, not correctness. One model is refit every
// generation into the same buffers.
type sgRBF struct {
	centers [][sgAxes]float64
	wx, wy  []float64

	sys []float64 // the n×(n+2) system, row-major: φ matrix, then both right-hand sides
	row []int     // offset of each logical row in sys, permuted by pivoting
}

// sgRBFShape² is the multiquadric shape parameter c² on the unit lattice.
const sgRBFShape2 = 0.09

func sgPhi(r2 float64) float64 { return math.Sqrt(r2 + sgRBFShape2) }

func sgDist2(a, b *[sgAxes]float64) float64 {
	var d2 float64
	for k := range a {
		d := a[k] - b[k]
		d2 += d * d
	}
	return d2
}

// fit solves the regularized interpolation system for both objectives. It
// reports false when the system is numerically unusable (the caller then
// evaluates unranked).
func (m *sgRBF) fit(space *sgSpace, train []SurrogateIndiv) bool {
	n := len(train)
	if n < 4 {
		return false
	}
	m.centers = m.centers[:0]
	for i := range train {
		m.centers = append(m.centers, space.coords(train[i].Idx))
	}
	// Dense system with two right-hand sides, Gaussian elimination with
	// partial pivoting. n is the population size, so this is microseconds.
	// sgDist2 is symmetric bit for bit ((a-b)² == (b-a)²), so each φ is
	// computed once per pair.
	w := n + 2
	a := resize(m.sys, n*w)
	row := resize(m.row, n)
	m.sys, m.row = a, row
	for i := 0; i < n; i++ {
		row[i] = i * w
		for j := i; j < n; j++ {
			phi := sgPhi(sgDist2(&m.centers[i], &m.centers[j]))
			a[i*w+j], a[j*w+i] = phi, phi
		}
	}
	for i := 0; i < n; i++ {
		a[i*w+i] += 1e-6 // ridge term: tolerate near-duplicate centers
		a[i*w+n] = math.Log(train[i].X)
		a[i*w+n+1] = math.Log(train[i].Y)
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[row[r]+col]) > math.Abs(a[row[piv]+col]) {
				piv = r
			}
		}
		row[col], row[piv] = row[piv], row[col]
		pc := a[row[col] : row[col]+w]
		if math.Abs(pc[col]) < 1e-12 {
			return false
		}
		for r := col + 1; r < n; r++ {
			pr := a[row[r] : row[r]+w]
			f := pr[col] / pc[col]
			if f == 0 {
				continue
			}
			// Column col below the pivot is never read again, so the
			// update starts right of it.
			for j := col + 1; j < w; j++ {
				pr[j] -= f * pc[j]
			}
		}
	}
	m.wx, m.wy = resize(m.wx, n), resize(m.wy, n)
	for i := n - 1; i >= 0; i-- {
		ri := a[row[i] : row[i]+w]
		sx, sy := ri[n], ri[n+1]
		for j := i + 1; j < n; j++ {
			sx -= ri[j] * m.wx[j]
			sy -= ri[j] * m.wy[j]
		}
		m.wx[i] = sx / ri[i]
		m.wy[i] = sy / ri[i]
	}
	for i := range m.wx {
		if math.IsNaN(m.wx[i]) || math.IsInf(m.wx[i], 0) || math.IsNaN(m.wy[i]) || math.IsInf(m.wy[i], 0) {
			return false
		}
	}
	return true
}

// predict returns the interpolated log-objectives at an index vector.
// Dominance comparisons on logs equal dominance on the raw objectives.
func (m *sgRBF) predict(space *sgSpace, idx [sgAxes]int) (x, y float64) {
	c := space.coords(idx)
	for i := range m.centers {
		phi := sgPhi(sgDist2(&c, &m.centers[i]))
		x += m.wx[i] * phi
		y += m.wy[i] * phi
	}
	return x, y
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
	se, err := newShapeEval(cg, task, memo, fab, opt.Yield)
	if err != nil {
		return nil, err
	}
	fp := surrogateFingerprint(task, g, fab, ci, opt.Yield, seed, budget, population, opt.Generations)

	rng := newSgRand(seed)
	acc := &taskAcc{payload: make(map[int64]Point)}
	seen := make(map[int64]bool, budget)
	scratch := newSgScratch()
	workers := newWorkerScratch(se, opt.Workers, budget)
	var evalOrder []int64 // ascending insert per batch; checkpoint stores the sorted union
	var pop []SurrogateIndiv
	gen := 0
	var skipped int64

	// evaluate prices a batch of unseen candidate ids (ascending) and folds
	// them into the archive, the population, and the evaluated set.
	evaluate := func(ids []int64, idxs [][sgAxes]int) error {
		scratch.pts = resize(scratch.pts, len(ids))
		pts := scratch.pts
		if err := evalBatch(ctx, workers, pts, func(i int, sc *evalScratch) (Point, error) {
			return se.priceAt(ids[i], sc)
		}); err != nil {
			return err
		}
		acc.offerBatch(ids, pts)
		for i, id := range ids {
			seen[id] = true
			evalOrder = append(evalOrder, id)
			o := pts[i].objectives()
			pop = append(pop, SurrogateIndiv{ID: id, Idx: idxs[i], X: o.X, Y: o.Y})
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
		if err := cp.validate(fp, space, budget); err != nil {
			return nil, err
		}
		scratch.pts = resize(scratch.pts, len(cp.Population))
		if err := repriceMembers(ctx, se, workers, cp.Population, scratch.pts); err != nil {
			return nil, err
		}
		if err := acc.restore(cp.Acc, se, workers[0]); err != nil {
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
		ids, idxs := scratch.dedupe(space, cands, seen, budget)
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

		pop = scratch.selectParents(pop, population)
		want := batch
		if remaining := budget - evals; int64(want) > remaining {
			want = int(remaining)
		}

		// Breed up to 4× the evaluation slots; the surrogate ranks them and
		// only the most promising fraction pays a real evaluation.
		raw := scratch.breed(rng, space, pop, seen, 4*want)
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
			chosen = scratch.rankOffspring(space, pop, raw, want)
			skipped += int64(len(raw) - len(chosen))
		}
		ids, idxs := scratch.dedupe(space, chosen, seen, budget-evals)
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

	sortedIDs := slices.Clone(evalOrder)
	slices.Sort(sortedIDs)
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

// repriceMembers re-prices a resumed checkpoint's population into pts and
// rejects a member whose stored objectives differ from the re-pricing bit
// for bit. validate checks only the members' bookkeeping, while the search
// ranks and breeds from these objectives, so a tampered one would resume
// into a different run than the uninterrupted one.
func repriceMembers(ctx context.Context, se *shapeEval, workers []*evalScratch, pop []SurrogateIndiv, pts []Point) error {
	if err := evalBatch(ctx, workers, pts, func(i int, sc *evalScratch) (Point, error) {
		return se.priceAt(pop[i].ID, sc)
	}); err != nil {
		return err
	}
	for i, ind := range pop {
		o := pts[i].objectives()
		if math.Float64bits(o.X) != math.Float64bits(ind.X) || math.Float64bits(o.Y) != math.Float64bits(ind.Y) {
			return fmt.Errorf("dse: surrogate checkpoint population member %d (id %d) stores objectives (%g, %g), its re-pricing gives (%g, %g)", i, ind.ID, ind.X, ind.Y, o.X, o.Y)
		}
	}
	return nil
}

// snapshotSurrogate captures the search state at a generation boundary.
func snapshotSurrogate(fp string, size int64, gen int, skipped int64, rng *sgRand, pop []SurrogateIndiv, evalOrder []int64, acc *taskAcc) *SurrogateCheckpoint {
	ids := slices.Clone(evalOrder)
	slices.Sort(ids)
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

// sgScratch is one search's per-generation working set: the NSGA-II and
// RBF buffers, the offspring pools, the dedupe state and the evaluation
// batch. Everything is reused across generations, so the serial bookkeeping
// between evaluation batches allocates nothing once the first generations
// have sized it.
type sgScratch struct {
	nsga   sgNSGA
	rbf    sgRBF
	spare  []SurrogateIndiv // the population buffer not currently in use
	preds  []SurrogateIndiv // offspring with predicted objectives
	raw    [][sgAxes]int    // bred offspring
	chosen [][sgAxes]int    // offspring picked for evaluation
	taken  map[int64]bool   // ids already in raw, or already in a dedupe
	ids    []int64          // dedupe output
	idxs   [][sgAxes]int    // dedupe output, parallel to ids
	pts    []Point          // evaluation batch
}

func newSgScratch() *sgScratch {
	return &sgScratch{taken: make(map[int64]bool)}
}

// selectParents returns the n best of pop, best-first (see
// sgNSGA.selectOrder). The result lives in the scratch's spare population
// buffer and pop's buffer becomes the spare, so the caller must drop pop.
func (s *sgScratch) selectParents(pop []SurrogateIndiv, n int) []SurrogateIndiv {
	out := s.spare[:0]
	for _, i := range s.nsga.selectOrder(pop, n) {
		out = append(out, pop[i])
	}
	s.spare = pop[:0]
	return out
}

// breed draws up to target distinct offspring of pop that are not in seen,
// giving up after 16·target attempts. The result is scratch.
func (s *sgScratch) breed(rng *sgRand, space *sgSpace, pop []SurrogateIndiv, seen map[int64]bool, target int) [][sgAxes]int {
	clear(s.taken)
	raw := s.raw[:0]
	for attempts := 0; len(raw) < target && attempts < 16*target; attempts++ {
		child := sgOffspring(rng, space, pop)
		id := space.id(child)
		if seen[id] || s.taken[id] {
			continue
		}
		s.taken[id] = true
		raw = append(raw, child)
	}
	s.raw = raw
	return raw
}

// rankOffspring picks the want most promising offspring: an RBF surrogate
// fit to the parent population predicts each child's objectives, and NSGA
// selection on the predictions keeps a non-dominated, well-spread subset.
// When the fit is unusable the first want children by grid id are taken —
// the search stays correct, just less sample-efficient. The result is
// scratch.
func (s *sgScratch) rankOffspring(space *sgSpace, parents []SurrogateIndiv, raw [][sgAxes]int, want int) [][sgAxes]int {
	if !s.rbf.fit(space, parents) {
		_, idxs := s.dedupe(space, raw, nil, int64(want))
		s.chosen = append(s.chosen[:0], idxs...)
		return s.chosen
	}
	s.preds = s.preds[:0]
	for _, idx := range raw {
		x, y := s.rbf.predict(space, idx)
		s.preds = append(s.preds, SurrogateIndiv{ID: space.id(idx), Idx: idx, X: x, Y: y})
	}
	s.chosen = s.chosen[:0]
	for _, i := range s.nsga.selectOrder(s.preds, want) {
		s.chosen = append(s.chosen, s.preds[i].Idx)
	}
	return s.chosen
}

// dedupe resolves candidate index vectors to unique grid ids not in seen,
// caps them at limit (< 0: no cap), and returns them sorted ascending by id
// so accumulation order is canonical, each with its index vector (ids and
// lattice vectors map one to one). The result is scratch.
func (s *sgScratch) dedupe(space *sgSpace, cands [][sgAxes]int, seen map[int64]bool, limit int64) ([]int64, [][sgAxes]int) {
	clear(s.taken)
	s.ids = s.ids[:0]
	for _, idx := range cands {
		id := space.id(idx)
		if seen[id] || s.taken[id] {
			continue
		}
		s.taken[id] = true
		s.ids = append(s.ids, id)
	}
	slices.Sort(s.ids)
	if limit >= 0 && int64(len(s.ids)) > limit {
		s.ids = s.ids[:limit]
	}
	s.idxs = s.idxs[:0]
	for _, id := range s.ids {
		s.idxs = append(s.idxs, space.idxOf(id))
	}
	return s.ids, s.idxs
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
