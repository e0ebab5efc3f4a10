package dse

import (
	"math"
	"sort"
	"testing"
)

// The O(n²) NSGA-II bookkeeping the search used before the sort-and-sweep
// ranking: Deb's pairwise non-dominated sort, per-front crowding with a
// re-sort of every front, and a closure-sorted selection. It stays here as
// the oracle the fast path must reproduce exactly — ranks, crowding
// distances and selection order, ties included.

// oracleRank is Deb's fast non-dominated sort: pairwise dominance counts,
// then peeling fronts.
func oracleRank(pop []SurrogateIndiv) []int {
	n := len(pop)
	dominated := make([]int, n) // how many dominate i
	dominates := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case sgDominates(&pop[i], &pop[j]):
				dominates[i] = append(dominates[i], j)
				dominated[j]++
			case sgDominates(&pop[j], &pop[i]):
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

// oracleCrowding sorts each front by (X, Y, ID) and sums the normalized
// neighbor gaps; boundary members get +Inf.
func oracleCrowding(pop []SurrogateIndiv, rank []int) []float64 {
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

// oracleSelect returns the n best by (rank asc, crowding desc, id asc).
func oracleSelect(pop []SurrogateIndiv, n int) []SurrogateIndiv {
	rank := oracleRank(pop)
	crowd := oracleCrowding(pop, rank)
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

// randomPool draws n individuals with unique ids and objectives from a few
// integer levels, so duplicate points and equal-X / equal-Y ties — the
// cases a sweep most easily gets wrong — are common.
func randomPool(rng *sgRand, n, levels int) []SurrogateIndiv {
	pool := make([]SurrogateIndiv, n)
	for i, id := range rng.perm(4 * n) {
		if i == n {
			break
		}
		pool[i] = SurrogateIndiv{
			ID: int64(id),
			X:  float64(1 + rng.intn(levels)),
			Y:  float64(1 + rng.intn(levels)),
		}
		pool[i].Idx[0] = id
	}
	return pool
}

// TestNSGAMatchesOracle: on random pools of 1–100 members with heavy ties,
// the sort-and-sweep ranking, the single-order crowding walk and the
// index-sorted selection reproduce the O(n²) oracle exactly, for both of the
// search's selection calls — the parent pool (population + fresh children,
// keep population) and the offspring predictions (4× the slots, keep one
// slot's worth).
func TestNSGAMatchesOracle(t *testing.T) {
	rng := newSgRand(17)
	var s sgNSGA
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.intn(100)
		levels := 1 + rng.intn(12)
		pool := randomPool(rng, n, levels)

		s.rankAndCrowd(pool)
		wantRank := oracleRank(pool)
		wantCrowd := oracleCrowding(pool, wantRank)
		for i := range pool {
			if s.rank[i] != wantRank[i] {
				t.Fatalf("trial %d (n=%d, %d levels): member %d rank %d, oracle %d", trial, n, levels, i, s.rank[i], wantRank[i])
			}
			if s.crowd[i] != wantCrowd[i] {
				t.Fatalf("trial %d (n=%d, %d levels): member %d crowding %v, oracle %v", trial, n, levels, i, s.crowd[i], wantCrowd[i])
			}
		}

		// Parent selection keeps two thirds of the pool (48 of 48+24 at
		// the default population); offspring ranking keeps a quarter.
		for _, keep := range []int{(2*n + 2) / 3, (n + 3) / 4, n, n + 5} {
			got := s.selectOrder(pool, keep)
			want := oracleSelect(pool, keep)
			if len(got) != len(want) {
				t.Fatalf("trial %d: selected %d of %d, oracle %d", trial, len(got), keep, len(want))
			}
			for i, j := range got {
				if pool[j] != want[i] {
					t.Fatalf("trial %d (n=%d, keep %d): selection %d is id %d, oracle id %d", trial, n, keep, i, pool[j].ID, want[i].ID)
				}
			}
		}
	}
}
