package dse

import (
	"math"

	"cordoba/internal/pareto"
)

// Quality summarizes how faithfully a candidate envelope (typically from the
// surrogate search) reproduces an oracle envelope (from the exhaustive
// engine) over the shared (E·D, C_emb·D) objective plane. It is the number
// the oracle-equivalence test harness pins and the API reports alongside
// surrogate results.
type Quality struct {
	// HypervolumeRatio is candidate HV / oracle HV under a shared reference
	// point. A subset of the oracle can never exceed 1; ≥ 0.99 is the
	// documented bar for trusting a surrogate run.
	HypervolumeRatio float64 `json:"hypervolume_ratio"`

	// AdditiveEpsilon is the additive ε-indicator from candidate to oracle,
	// measured after both fronts are normalized to the oracle's unit box, so
	// the number is comparable across grids whose objectives span different
	// decades. 0 means the candidate found (or beat) every oracle vertex.
	AdditiveEpsilon float64 `json:"additive_epsilon"`

	// Coverage is the fraction of oracle vertices weakly dominated by some
	// candidate point — 1.0 when every exhaustive survivor was recovered
	// exactly (or beaten).
	Coverage float64 `json:"coverage"`
}

// envelopeFront projects a result's surviving points into the objective
// plane.
func envelopeFront(r *StreamResult) []pareto.Point {
	if r == nil || r.Space == nil {
		return nil
	}
	out := make([]pareto.Point, len(r.Space.Points))
	for i := range r.Space.Points {
		out[i] = r.Space.Points[i].objectives()
	}
	return out
}

// MeasureQuality compares a candidate envelope against the exhaustive
// oracle's. Both hypervolumes share one reference point derived from the two
// fronts; the ε-indicator is computed on oracle-normalized coordinates.
func MeasureQuality(candidate, oracle *StreamResult) Quality {
	return measureQualityFronts(envelopeFront(candidate), envelopeFront(oracle))
}

func measureQualityFronts(cand, orc []pareto.Point) Quality {
	ref := pareto.ReferencePoint(cand, orc)
	hvC := pareto.Hypervolume(cand, ref)
	hvO := pareto.Hypervolume(orc, ref)
	q := Quality{Coverage: pareto.Coverage(cand, orc)}
	switch {
	case hvO > 0:
		q.HypervolumeRatio = hvC / hvO
	case hvC == 0:
		// Both degenerate (e.g. single identical point): vacuously perfect.
		q.HypervolumeRatio = 1
	}
	q.AdditiveEpsilon = pareto.AdditiveEpsilon(normalizeTo(cand, orc), normalizeTo(orc, orc))
	return q
}

// normalizeTo maps pts into the unit box spanned by the basis front; a
// degenerate basis axis keeps its raw offset from the basis minimum. An
// empty basis returns pts unchanged.
func normalizeTo(pts, basis []pareto.Point) []pareto.Point {
	var lo, hi pareto.Point
	first := true
	for _, p := range basis {
		if !finitePoint(p) {
			continue
		}
		if first {
			lo, hi, first = p, p, false
			continue
		}
		if p.X < lo.X {
			lo.X = p.X
		}
		if p.X > hi.X {
			hi.X = p.X
		}
		if p.Y < lo.Y {
			lo.Y = p.Y
		}
		if p.Y > hi.Y {
			hi.Y = p.Y
		}
	}
	if first {
		return pts
	}
	dx, dy := hi.X-lo.X, hi.Y-lo.Y
	if dx <= 0 {
		dx = 1
	}
	if dy <= 0 {
		dy = 1
	}
	out := make([]pareto.Point, len(pts))
	for i, p := range pts {
		out[i] = pareto.Point{X: (p.X - lo.X) / dx, Y: (p.Y - lo.Y) / dy}
	}
	return out
}

func finitePoint(p pareto.Point) bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}
