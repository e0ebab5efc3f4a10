package pareto

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// dominates reports whether p dominates q: p is no worse in both
// coordinates and strictly better in at least one. It is the reference the
// front tests check Front against.
func dominates(p, q Point) bool {
	return p.X <= q.X && p.Y <= q.Y && (p.X < q.X || p.Y < q.Y)
}

func TestDominates(t *testing.T) {
	cases := []struct {
		p, q Point
		want bool
	}{
		{Point{1, 1}, Point{2, 2}, true},
		{Point{1, 2}, Point{2, 1}, false},
		{Point{1, 1}, Point{1, 1}, false}, // equal points do not dominate
		{Point{1, 1}, Point{1, 2}, true},
		{Point{2, 2}, Point{1, 1}, false},
	}
	for i, c := range cases {
		if got := dominates(c.p, c.q); got != c.want {
			t.Errorf("case %d: %v dominates %v = %v, want %v", i, c.p, c.q, got, c.want)
		}
	}
}

func TestFrontSimple(t *testing.T) {
	pts := []Point{
		{1, 5}, // front
		{2, 3}, // front
		{3, 4}, // dominated by (2,3)
		{4, 1}, // front
		{5, 2}, // dominated by (4,1)
	}
	got := Front(pts)
	want := []int{0, 1, 3}
	if !equalInts(got, want) {
		t.Errorf("front = %v, want %v", got, want)
	}
}

func TestFrontSkipsInvalid(t *testing.T) {
	pts := []Point{
		{math.NaN(), 1},
		{1, math.Inf(1)},
		{2, 2},
	}
	got := Front(pts)
	if !equalInts(got, []int{2}) {
		t.Errorf("front = %v, want [2]", got)
	}
	if Front(nil) == nil {
		// empty, not nil guarantee is unimportant; just should not panic
		t.Log("empty front ok")
	}
}

func TestFrontKeepsDuplicates(t *testing.T) {
	pts := []Point{{1, 1}, {1, 1}, {2, 0.5}}
	got := Front(pts)
	if len(got) != 3 {
		t.Errorf("duplicates should co-exist on the front: %v", got)
	}
}

func TestEnvelopeSubsetOfFront(t *testing.T) {
	pts := []Point{
		{1, 10},  // envelope endpoint (min X)
		{2, 8},   // on front, NOT on envelope (above chord (1,10)→(3,3.5))
		{3, 3.5}, // envelope
		{4, 2},   // envelope
		{8, 1.8}, // envelope endpoint (min Y)
	}
	front := Front(pts)
	if !equalInts(front, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("front = %v, want all five", front)
	}
	env := Envelope(pts)
	if !equalInts(env, []int{0, 2, 3, 4}) {
		t.Errorf("envelope = %v, want [0 2 3 4]", env)
	}
	frontSet := map[int]bool{}
	for _, i := range front {
		frontSet[i] = true
	}
	for _, i := range env {
		if !frontSet[i] {
			t.Errorf("envelope member %d not on front", i)
		}
	}
}

// The defining property: a point is on the envelope iff it is the argmin of
// Y+β·X for some β ≥ 0. Verify both directions by dense β sweep.
func TestEnvelopeMatchesBetaSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(40)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: rng.Float64()*100 + 0.1, Y: rng.Float64()*100 + 0.1}
		}
		env := Envelope(pts)
		envSet := map[int]bool{}
		for _, i := range env {
			envSet[i] = true
		}
		winners := map[int]bool{}
		for _, beta := range betaGrid() {
			winners[ArgminLinear(pts, beta)] = true
		}
		// Every β winner must be on the envelope.
		for w := range winners {
			if !envSet[w] {
				t.Fatalf("trial %d: β winner %d (%v) not in envelope %v", trial, w, pts[w], env)
			}
		}
		// Every envelope member should win for some β (dense grid).
		for _, e := range env {
			if !winners[e] {
				t.Fatalf("trial %d: envelope member %d (%v) never won the β sweep", trial, e, pts[e])
			}
		}
	}
}

func betaGrid() []float64 {
	var bs []float64
	for e := -6.0; e <= 6.0; e += 0.05 {
		bs = append(bs, math.Pow(10, e))
	}
	return append(bs, 0)
}

func TestEnvelopeSortedByX(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := make([]Point, 30)
	for i := range pts {
		pts[i] = Point{rng.Float64() * 10, rng.Float64() * 10}
	}
	env := Envelope(pts)
	if !sort.SliceIsSorted(env, func(a, b int) bool { return pts[env[a]].X < pts[env[b]].X }) {
		t.Errorf("envelope not sorted by X: %v", env)
	}
}

func TestEnvelopeSmallInputs(t *testing.T) {
	if got := Envelope(nil); len(got) != 0 {
		t.Errorf("empty envelope = %v", got)
	}
	one := []Point{{1, 1}}
	if got := Envelope(one); !equalInts(got, []int{0}) {
		t.Errorf("singleton envelope = %v", got)
	}
	two := []Point{{1, 2}, {2, 1}}
	if got := Envelope(two); len(got) != 2 {
		t.Errorf("two incomparable points should both survive: %v", got)
	}
	dominatedPair := []Point{{1, 1}, {2, 2}}
	if got := Envelope(dominatedPair); !equalInts(got, []int{0}) {
		t.Errorf("dominated pair envelope = %v", got)
	}
}

func TestEnvelopeCollinear(t *testing.T) {
	// Middle point is exactly on the chord: excluded (never uniquely wins).
	pts := []Point{{1, 3}, {2, 2}, {3, 1}}
	got := Envelope(pts)
	if !equalInts(got, []int{0, 2}) {
		t.Errorf("collinear envelope = %v, want [0 2]", got)
	}
}

func TestEnvelopeDuplicates(t *testing.T) {
	pts := []Point{{1, 2}, {1, 2}, {3, 1}}
	got := Envelope(pts)
	if len(got) != 2 {
		t.Errorf("duplicate points should collapse on the envelope: %v", got)
	}
}

func TestArgminLinear(t *testing.T) {
	pts := []Point{{1, 10}, {5, 1}, {math.NaN(), 0}}
	if got := ArgminLinear(pts, 0); got != 1 {
		t.Errorf("β=0 argmin = %d, want 1 (min Y)", got)
	}
	if got := ArgminLinear(pts, 1e9); got != 0 {
		t.Errorf("β→∞ argmin = %d, want 0 (min X)", got)
	}
	if got := ArgminLinear(nil, 1); got != -1 {
		t.Errorf("empty argmin = %d, want -1", got)
	}
}

func TestEliminatedFraction(t *testing.T) {
	pts := []Point{{1, 4}, {2, 1}, {3, 3}, {4, 2.5}, {5, 0.9}}
	// Envelope: (1,4) → (2,1) → (5,0.9); eliminated 2 of 5.
	got := EliminatedFraction(pts)
	if math.Abs(got-0.4) > 1e-12 {
		t.Errorf("eliminated = %v, want 0.4", got)
	}
	if EliminatedFraction(nil) != 0 {
		t.Error("empty elimination should be 0")
	}
}

// Property: the envelope of any point cloud is non-empty and every other
// valid point is beaten by some envelope member under β=1.
func TestEnvelopeNonEmptyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Float64(), rng.Float64()}
		}
		env := Envelope(pts)
		if len(env) == 0 {
			return false
		}
		w := ArgminLinear(pts, 1)
		for _, e := range env {
			if e == w {
				return true
			}
		}
		// The β=1 winner must be on the envelope.
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: front members are mutually non-dominating and everything off the
// front is dominated by someone on it.
func TestFrontProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		pts := make([]Point, n)
		for i := range pts {
			// Coarse grid to exercise ties.
			pts[i] = Point{float64(rng.Intn(8)), float64(rng.Intn(8))}
		}
		front := Front(pts)
		onFront := map[int]bool{}
		for _, i := range front {
			onFront[i] = true
		}
		for _, i := range front {
			for _, j := range front {
				if i != j && dominates(pts[i], pts[j]) {
					return false
				}
			}
		}
		for i := range pts {
			if onFront[i] {
				continue
			}
			dominated := false
			for _, j := range front {
				if dominates(pts[j], pts[i]) {
					dominated = true
					break
				}
			}
			if !dominated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
