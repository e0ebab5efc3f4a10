// Package uncertainty implements §IV-B: optimizing carbon efficiency when
// total carbon cannot be quantified precisely.
//
// The central result: with a fixed, known power profile, the unknown
// use-phase carbon intensity CI_use(t) only ever enters tCDP through the
// non-negative weight it puts on operational energy. Recasting the objective
// with a Lagrange multiplier β (eq. IV.9),
//
//	C_embodied·D + β·E·D,   β ∈ [0, ∞),
//
// every possible CI_use(t) corresponds to some β, so designs that are not
// optimal for any β — the ones off the lower convex envelope of
// (E·D, C_emb·D) — can be eliminated even when CI_use(t) is unknown. The
// package provides the elimination set and tCDP evaluation under arbitrary
// CI traces (to validate the theorem empirically). The β sweep itself
// lives in this package's tests, as the oracle the envelope is checked
// against.
package uncertainty

import (
	"fmt"
	"math"

	"cordoba/internal/dse"
	"cordoba/internal/grid"
	"cordoba/internal/pareto"
	"cordoba/internal/units"
)

// Design is a candidate hardware target reduced to the three quantities
// §IV-B reasons about: per-task energy, per-task delay, embodied carbon.
type Design struct {
	Name     string
	Energy   units.Energy
	Delay    units.Time
	Embodied units.Carbon
}

// EDP returns E·D.
func (d Design) EDP() float64 { return d.Energy.Joules() * d.Delay.Seconds() }

// EmbodiedDelay returns C_emb·D.
func (d Design) EmbodiedDelay() float64 { return d.Embodied.Grams() * d.Delay.Seconds() }

// Power returns the design's operational power draw, E/D — assumed fixed
// and known (the §IV-B modelling assumption).
func (d Design) Power() units.Power { return d.Energy.DividedBy(d.Delay) }

// FromDSE converts an evaluated design space into uncertainty designs.
func FromDSE(s *dse.Space) []Design {
	out := make([]Design, len(s.Points))
	for i, p := range s.Points {
		out[i] = Design{Name: p.Config.ID, Energy: p.Energy, Delay: p.Delay, Embodied: p.Embodied}
	}
	return out
}

func toPoints(designs []Design) []pareto.Point {
	pts := make([]pareto.Point, len(designs))
	for i, d := range designs {
		pts[i] = pareto.Point{X: d.EDP(), Y: d.EmbodiedDelay()}
	}
	return pts
}

// Survivors returns the indices of designs that can be tCDP-optimal for some
// β ∈ [0, ∞) — the set X* of §IV-B in the paper's *fixed-work* analysis
// (Fig. 12 caption: "E is Energy per inference"): every design executes the
// same number of inferences N, so tCDP = C_emb·D + β·(E·D) with β = CI·N,
// and the survivor set is the lower convex envelope of (E·D, C_emb·D).
// Everything else is safely eliminated even when CI_use(t) is unknown.
func Survivors(designs []Design) []int {
	return pareto.Envelope(toPoints(designs))
}

// SurvivorsFixedTime returns the §IV-B survivor set under the *fixed-time*
// analysis (eq. IV.7/IV.8 verbatim): every design runs continuously at its
// fixed power P = E/D for the same lifetime, so
//
//	tCDP = C_emb·D + (∫CI(t)·P dt)·D = C_emb·D + avgCI·t_life·E,
//
// a linear functional of (E, C_emb·D) with a weight common to all designs
// for any trace. Only envelope members of that plane can be tCDP-optimal
// under any CI_use(t) trace; OptimalUnderTrace always lands in this set.
func SurvivorsFixedTime(designs []Design) []int {
	pts := make([]pareto.Point, len(designs))
	for i, d := range designs {
		pts[i] = pareto.Point{X: d.Energy.Joules(), Y: d.EmbodiedDelay()}
	}
	return pareto.Envelope(pts)
}

// TCDPUnderCumulative evaluates a design's true tCDP (eq. IV.8) when the
// grid's carbon intensity follows a trace, given as its prebuilt cumulative
// form, over the hardware lifetime: the design runs continuously at its
// fixed power E/D, and embodied carbon is not amortized (it is paid once).
func TCDPUnderCumulative(d Design, cum *grid.Cumulative, life units.Time) (float64, error) {
	if d.Delay <= 0 {
		return 0, fmt.Errorf("uncertainty: design %q has non-positive delay", d.Name)
	}
	if life < 0 {
		return 0, fmt.Errorf("uncertainty: negative lifetime %v", life)
	}
	op := cum.OperationalCarbon(d.Power(), 0, life)
	return (d.Embodied + op).Grams() * d.Delay.Seconds(), nil
}

// OptimalUnderTrace returns the tCDP-optimal design index under a CI trace.
// By the §IV-B theorem, the result is always a member of Survivors. The
// trace's prefix integral is built once and shared across all designs.
func OptimalUnderTrace(designs []Design, tr grid.Trace, life units.Time, steps int) (int, error) {
	if len(designs) == 0 {
		return -1, fmt.Errorf("uncertainty: no designs")
	}
	if steps < 1 {
		return -1, fmt.Errorf("uncertainty: need at least one integration step, got %d", steps)
	}
	cum, err := grid.NewCumulative(tr, life)
	if err != nil {
		return -1, err
	}
	best, bestV := -1, math.Inf(1)
	for i, d := range designs {
		v, err := TCDPUnderCumulative(d, cum, life)
		if err != nil {
			return -1, err
		}
		if v < bestV {
			best, bestV = i, v
		}
	}
	return best, nil
}
