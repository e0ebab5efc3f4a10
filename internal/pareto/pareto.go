// Package pareto provides the dominance and convex-envelope machinery behind
// the paper's uncertainty argument (§IV-B, Fig. 12).
//
// Designs are 2-D points (X, Y) with both coordinates minimized — in the
// CORDOBA use, X = E·D and Y = C_embodied·D. Two survivor sets matter:
//
//   - Front: the non-dominated (Pareto) set. A design is dominated when
//     another design is at least as good in both coordinates and strictly
//     better in one.
//
//   - Envelope: the lower convex envelope — designs that minimize
//     Y + β·X for *some* Lagrange multiplier β ∈ [0, ∞) (eq. IV.9). Because
//     tCDP with unknown-but-constant scaling between E and C_operational is
//     exactly such a linear combination, only envelope members can ever be
//     tCDP-optimal; everything else is safely eliminated even when CI_use(t)
//     is unknown.
//
// The envelope is always a subset of the front.
package pareto

import (
	"math"
	"sort"
)

// Point is a candidate design in a two-objective minimization.
type Point struct {
	X, Y float64
}

// valid reports whether a point's coordinates are finite.
func (p Point) valid() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// Front returns the indices of the non-dominated points, sorted by ascending
// X (ties by ascending Y, then by index). Non-finite points are never on the
// front. Duplicate coordinates are all retained: identical points do not
// dominate each other.
func Front(points []Point) []int {
	var s FrontScratch
	front := s.Front(points)
	s.front = nil // detach so the caller owns the slice
	return front
}

// FrontScratch computes fronts without per-call heap allocations: the index
// buffers are reused across calls, so a steady caller (the streaming DSE
// engine offers one chunk per grid shape) amortizes to zero allocations. The
// zero value is ready to use. Not safe for concurrent use.
type FrontScratch struct {
	sorter frontSorter
	front  []int
}

// Front is Front computed on the reusable scratch. The returned slice is
// owned by the scratch and valid only until the next call.
func (s *FrontScratch) Front(points []Point) []int {
	idx := s.sorter.idx[:0]
	for i, p := range points {
		if p.valid() {
			idx = append(idx, i)
		}
	}
	s.sorter.points = points
	s.sorter.idx = idx
	// sort.Sort on the embedded sorter: same total order as the historical
	// sort.Slice comparator (ties broken by index make it deterministic),
	// without the per-call closure and interface-boxing allocations.
	sort.Sort(&s.sorter)
	s.sorter.points = nil

	front := s.front[:0]
	bestY := math.Inf(1)
	for _, i := range idx {
		p := points[i]
		// Sorted by ascending X: a point is dominated iff an earlier point
		// has Y ≤ p.Y — except exact coordinate duplicates, which co-exist.
		if p.Y < bestY {
			front = append(front, i)
			bestY = p.Y
		} else if len(front) > 0 {
			last := points[front[len(front)-1]]
			if last.X == p.X && last.Y == p.Y {
				front = append(front, i)
			}
		}
	}
	s.front = front
	return front
}

// frontSorter orders candidate indices by (X, Y, index) — the Front order.
type frontSorter struct {
	points []Point
	idx    []int
}

func (f *frontSorter) Len() int      { return len(f.idx) }
func (f *frontSorter) Swap(a, b int) { f.idx[a], f.idx[b] = f.idx[b], f.idx[a] }
func (f *frontSorter) Less(a, b int) bool {
	pa, pb := f.points[f.idx[a]], f.points[f.idx[b]]
	if pa.X != pb.X {
		return pa.X < pb.X
	}
	if pa.Y != pb.Y {
		return pa.Y < pb.Y
	}
	return f.idx[a] < f.idx[b]
}

// Envelope returns the indices of points on the lower convex envelope: the
// designs that minimize Y + β·X for some β ∈ [0, ∞). The result is sorted by
// ascending X. Collinear interior points are excluded (they tie but never
// uniquely win), as are coordinate duplicates beyond the first.
func Envelope(points []Point) []int {
	front := Front(points)
	if len(front) <= 2 {
		return dedupe(points, front)
	}
	front = dedupe(points, front)
	// The front is sorted by ascending X with strictly descending Y.
	// Monotone-chain lower hull over it; every vertex of that hull (the
	// whole chain, since Y is strictly decreasing along the front) is a
	// minimizer of Y + β·X for β in some non-empty interval.
	hull := make([]int, 0, len(front))
	for _, i := range front {
		for len(hull) >= 2 {
			a, b := points[hull[len(hull)-2]], points[hull[len(hull)-1]]
			c := points[i]
			// Monotone-chain lower hull: keep b only on a strictly
			// counter-clockwise turn a→b→c (cross > 0); pop collinear
			// points too, since they never uniquely minimize Y + β·X.
			cross := (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
			if cross <= 0 {
				hull = hull[:len(hull)-1]
				continue
			}
			break
		}
		hull = append(hull, i)
	}
	return hull
}

// dedupe removes coordinate duplicates from a sorted index list, keeping the
// first occurrence.
func dedupe(points []Point, idx []int) []int {
	out := idx[:0:len(idx)]
	for _, i := range idx {
		if len(out) > 0 {
			last := points[out[len(out)-1]]
			if last == points[i] {
				continue
			}
		}
		out = append(out, i)
	}
	return out
}

// ArgminLinear returns the index minimizing Y + β·X, breaking ties toward
// lower X then lower index; it returns -1 for an empty or all-invalid input.
func ArgminLinear(points []Point, beta float64) int {
	best := -1
	bestV := math.Inf(1)
	for i, p := range points {
		if !p.valid() {
			continue
		}
		v := p.Y + beta*p.X
		if v < bestV || (v == bestV && best >= 0 && p.X < points[best].X) {
			best, bestV = i, v
		}
	}
	return best
}

// EliminatedFraction returns the share of designs that are provably never
// optimal for any β — the "eliminate up to 98 % of the design space" number
// of §VI-B. It returns 0 for an empty input.
func EliminatedFraction(points []Point) float64 {
	if len(points) == 0 {
		return 0
	}
	kept := len(Envelope(points))
	return 1 - float64(kept)/float64(len(points))
}
