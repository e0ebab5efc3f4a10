// Package dse is CORDOBA's design-space exploration engine (§VI-B/C): it
// evaluates a set of accelerator configurations on a task, sweeps operational
// time (measured in number of inferences, the Fig. 8 x-axis), finds the
// tCDP-optimal design at each operational time, and identifies the
// *ever-optimal* set — the designs that can be tCDP-optimal for some
// operational time.
//
// The engine exploits the linearity identity of DESIGN.md §4: with fixed
// per-inference delay D and energy E,
//
//	tCDP(N) = C_emb·D + CI_use·E·D·N
//
// is a line in N, so the ever-optimal set is exactly the lower convex
// envelope of the points (E·D, C_emb·D), and elimination percentages follow
// without sweeping. A brute-force sweep is provided as a cross-check.
package dse

import (
	"context"
	"fmt"
	"math"

	"cordoba/internal/accel"
	"cordoba/internal/carbon"
	"cordoba/internal/metrics"
	"cordoba/internal/pareto"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

// Point is one evaluated design in the space.
type Point struct {
	Config accel.Config

	Delay    units.Time   // task delay per inference, D (eq. IV.2)
	Energy   units.Energy // task energy per inference incl. leakage (eq. IV.4)
	Embodied units.Carbon // manufacturing footprint, C_emb (eq. IV.5)
	Area     units.Area   // total silicon area

	// Model names the embodied-carbon backend that priced the point when
	// one was explicitly selected (Evaluate's model or a grid Models knob);
	// empty for the default ACT path.
	Model string
}

// EDP returns the point's energy-delay product.
func (p Point) EDP() float64 { return p.objectives().X }

// EmbodiedDelay returns C_emb·D, the Lagrange-plane Y coordinate.
func (p Point) EmbodiedDelay() float64 { return p.objectives().Y }

// objectives returns the point's Lagrange-plane coordinates (X = E·D,
// Y = C_emb·D), the values every envelope accumulator ranks it by. It takes
// a pointer because the accumulators call it on every point of a batch: a
// value receiver copies the whole Point, Config included, even inlined.
func (p *Point) objectives() pareto.Point {
	return pareto.Point{X: p.Energy.Joules() * p.Delay.Seconds(), Y: p.Embodied.Grams() * p.Delay.Seconds()}
}

// TCDP returns the point's total-carbon-delay product after n inferences at
// use-phase intensity ci.
func (p Point) TCDP(ci units.CarbonIntensity, n float64) float64 {
	tc := p.Embodied + ci.Of(p.Energy*units.Energy(n))
	return tc.Grams() * p.Delay.Seconds()
}

// Report converts the point into a metrics.Report for an operational time of
// n inferences.
func (p Point) Report(ci units.CarbonIntensity, n float64) metrics.Report {
	return metrics.Report{
		Name:              p.Config.ID,
		Delay:             p.Delay,
		Energy:            p.Energy,
		EmbodiedCarbon:    p.Embodied,
		OperationalCarbon: ci.Of(p.Energy * units.Energy(n)),
		Tasks:             n,
	}
}

// Space is an evaluated design space for one task.
type Space struct {
	Task   workload.Task
	CIUse  units.CarbonIntensity
	Points []Point
}

// Evaluate prices every configuration in the list on the task: the
// explicit-list form of the engine behind the §VI-B/C and §VI-E studies.
// Each configuration is validated, then priced exactly like a knob-grid
// point (pricePoint): kernel profiles from the shape-profile memo, replayed
// under the configuration and folded through the task's call counts, so
// every point is bit-identical to the direct per-layer path. model selects
// the embodied-carbon backend (nil is ACT and leaves Point.Model blank);
// opt.Yield the yield model (nil is Murphy); a nil opt.Memo uses a private
// cache for this call. Points stay in configuration order at any worker
// count. ci is the use-phase carbon intensity applied during
// operational-time sweeps. A cancelled ctx returns an error, never a
// partial space.
func Evaluate(ctx context.Context, task workload.Task, configs []accel.Config, p carbon.Process, fab carbon.Fab, ci units.CarbonIntensity, model carbon.Model, opt StreamOptions) (*Space, error) {
	if len(configs) == 0 {
		return nil, fmt.Errorf("dse: empty design space for task %q", task.Name)
	}
	if ci < 0 {
		return nil, fmt.Errorf("dse: negative CI_use %v", ci)
	}
	memo := opt.Memo
	if memo == nil {
		memo = NewMemoCache(0)
	}
	se, err := newShapeEval(nil, []workload.Task{task}, memo, fab, opt.Yield)
	if err != nil {
		return nil, err
	}
	var modelName string
	if model != nil {
		modelName = model.Name()
	}
	pts := make([]Point, len(configs))
	err = evalBatch(ctx, newWorkerScratch(se, opt.Workers, int64(len(configs))), pts, func(i int, sc *evalScratch) (Point, error) {
		// The memo is keyed on ShapeKey alone, so a hit would skip the
		// validation a miss performs: validate every configuration here.
		if err := configs[i].Validate(); err != nil {
			return Point{}, err
		}
		return se.pricePoint(&configs[i], model, modelName, p, 0, sc)
	})
	if err != nil {
		return nil, err
	}
	return &Space{Task: task, CIUse: ci, Points: pts}, nil
}

// TCDPAt returns each design's tCDP after n inferences.
func (s *Space) TCDPAt(n float64) []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.TCDP(s.CIUse, n)
	}
	return out
}

// OptimalAt returns the index of the tCDP-optimal design after n inferences.
func (s *Space) OptimalAt(n float64) int {
	best, bestV := -1, math.Inf(1)
	for i, p := range s.Points {
		if v := p.TCDP(s.CIUse, n); v < bestV {
			best, bestV = i, v
		}
	}
	return best
}

// lagrangePoints maps the space onto the (E·D, C_emb·D) plane of §IV-B.
func (s *Space) lagrangePoints() []pareto.Point {
	pts := make([]pareto.Point, len(s.Points))
	for i := range s.Points {
		pts[i] = s.Points[i].objectives()
	}
	return pts
}

// EverOptimal returns the indices of designs that are tCDP-optimal for some
// operational time (equivalently, some Lagrange β): the lower convex
// envelope of (E·D, C_emb·D), ordered from the long-operational-time winner
// (lowest E·D) to the short-operational-time winner (lowest C_emb·D).
func (s *Space) EverOptimal() []int {
	return pareto.Envelope(s.lagrangePoints())
}

// EliminatedFraction returns the share of the design space that can never be
// tCDP-optimal — the §VI-B "eliminate up to 98 % of the design space" figure.
func (s *Space) EliminatedFraction() float64 {
	return pareto.EliminatedFraction(s.lagrangePoints())
}

// SweepOptimal brute-force sweeps operational times and returns the optimal
// design index at each. It is the cross-check for EverOptimal.
func (s *Space) SweepOptimal(inferences []float64) []int {
	out := make([]int, len(inferences))
	for i, n := range inferences {
		out[i] = s.OptimalAt(n)
	}
	return out
}

// LogSpace returns k points logarithmically spaced over [lo, hi].
func LogSpace(lo, hi float64, k int) []float64 {
	if k <= 1 || lo <= 0 || hi <= lo {
		return []float64{lo}
	}
	out := make([]float64, k)
	ratio := math.Log(hi / lo)
	for i := range out {
		out[i] = lo * math.Exp(ratio*float64(i)/float64(k-1))
	}
	return out
}

// NormalizedAt returns tCDP_optimal(n)/tCDP_i(n) for every design — the
// Fig. 9 y-axis, where 1.0 is the per-operational-time optimum and smaller
// values are worse.
func (s *Space) NormalizedAt(n float64) []float64 {
	vals := s.TCDPAt(n)
	best := math.Inf(1)
	for _, v := range vals {
		if v < best {
			best = v
		}
	}
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = best / v
	}
	return out
}

// MeanTCDPAt returns the average tCDP across the space after n inferences —
// the red diamonds of Fig. 8(f).
func (s *Space) MeanTCDPAt(n float64) float64 {
	vals := s.TCDPAt(n)
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// ByID returns the point whose configuration has the given ID.
func (s *Space) ByID(id string) (Point, error) {
	for _, p := range s.Points {
		if p.Config.ID == id {
			return p, nil
		}
	}
	return Point{}, fmt.Errorf("dse: no design %q in the space", id)
}

// IDs maps a list of point indices to configuration IDs.
func (s *Space) IDs(indices []int) []string {
	out := make([]string, len(indices))
	for i, idx := range indices {
		out[i] = s.Points[idx].Config.ID
	}
	return out
}

// BestAverage returns the index of the design with the best (largest) mean
// normalized tCDP across the given operational times — the §VI-C
// "better average tCDP across operational time" robustness criterion.
func (s *Space) BestAverage(inferences []float64) int {
	best, bestV := -1, math.Inf(-1)
	sums := make([]float64, len(s.Points))
	for _, n := range inferences {
		for i, v := range s.NormalizedAt(n) {
			sums[i] += v
		}
	}
	for i, v := range sums {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
