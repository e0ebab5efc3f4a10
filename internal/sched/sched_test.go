package sched

import (
	"math"
	"testing"

	"cordoba/internal/soc"
)

func near(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Max(math.Abs(want), 1e-30) {
		t.Errorf("%s: got %v want %v", name, got, want)
	}
}

// twoPhase is a workload with a known analytical answer: two threads compute
// 1 s each simultaneously, then one thread computes 1 s alone.
func twoPhase() *Workload {
	return &Workload{
		Name: "two-phase",
		Threads: []Thread{
			{Name: "a", Burst: []Segment{{Compute: 2}}},
			{Name: "b", Burst: []Segment{{Compute: 1}}},
		},
	}
}

func TestSimulateKnownMakespan(t *testing.T) {
	w := twoPhase()
	// Two cores: both run at full rate; makespan = 2.
	r2, err := Simulate(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	near(t, "2-core makespan", r2.Makespan, 2, 1e-9)
	// One core: 3 CPU-seconds of demand → makespan 3.
	r1, err := Simulate(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	near(t, "1-core makespan", r1.Makespan, 3, 1e-9)
	// TLP on the 2-core run: 2 threads for 1 s, 1 thread for 1 s → 1.5.
	near(t, "TLP", r2.TLP, 1.5, 1e-9)
	// Occupancy histogram: half the busy time at 2 threads, half at 1.
	near(t, "occ[0]", r2.RunnableOccupancy[0], 0.5, 1e-9)
	near(t, "occ[1]", r2.RunnableOccupancy[1], 0.5, 1e-9)
}

func TestSimulateRespectsWaits(t *testing.T) {
	w := &Workload{
		Name: "waity",
		Threads: []Thread{
			{Name: "a", Burst: []Segment{{Compute: 1, Wait: 1}, {Compute: 1}}},
		},
	}
	r, err := Simulate(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	near(t, "makespan", r.Makespan, 3, 1e-9)
	// Busy time excludes the wait.
	near(t, "busy", r.BusyTime, 2, 1e-9)
}

func TestSimulateStartOffsets(t *testing.T) {
	w := &Workload{
		Name: "staggered",
		Threads: []Thread{
			{Name: "a", Start: 0, Burst: []Segment{{Compute: 1}}},
			{Name: "b", Start: 5, Burst: []Segment{{Compute: 1}}},
		},
	}
	r, err := Simulate(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	near(t, "makespan", r.Makespan, 6, 1e-9)
	// Never more than one runnable thread.
	near(t, "occ[0]", r.RunnableOccupancy[0], 1, 1e-9)
	near(t, "TLP", r.TLP, 1, 1e-9)
}

func TestSimulateOversubscribed(t *testing.T) {
	// Four identical threads on one core: perfect sharing, makespan = 4.
	w := &Workload{Name: "over"}
	for i := 0; i < 4; i++ {
		w.Threads = append(w.Threads, Thread{Name: "t", Burst: []Segment{{Compute: 1}}})
	}
	r, err := Simulate(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	near(t, "makespan", r.Makespan, 4, 1e-9)
	// All busy time at 4 runnable threads but only 1 running.
	near(t, "runnable[3]", r.RunnableOccupancy[3], 1, 1e-9)
	near(t, "running[0]", r.Occupancy[0], 1, 1e-9)
	near(t, "TLP", r.TLP, 4, 1e-9)
}

func TestValidation(t *testing.T) {
	cases := []*Workload{
		{Name: "empty"},
		{Name: "neg-start", Threads: []Thread{{Start: -1, Burst: []Segment{{Compute: 1}}}}},
		{Name: "neg-seg", Threads: []Thread{{Burst: []Segment{{Compute: -1}}}}},
		{Name: "no-compute", Threads: []Thread{{Burst: []Segment{{Wait: 1}}}}},
	}
	for _, w := range cases {
		if _, err := Simulate(w, 1); err == nil {
			t.Errorf("%s should fail validation", w.Name)
		}
	}
	if _, err := Simulate(twoPhase(), 0); err == nil {
		t.Error("0 cores should error")
	}
}

func TestSlowdown(t *testing.T) {
	s, err := Slowdown(twoPhase(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	near(t, "slowdown", s, 1.5, 1e-9)
}

func TestSimulationDoesNotMutateWorkload(t *testing.T) {
	w := twoPhase()
	before := w.Threads[0].Burst[0].Compute
	if _, err := Simulate(w, 2); err != nil {
		t.Fatal(err)
	}
	if w.Threads[0].Burst[0].Compute != before {
		t.Error("simulation mutated the workload")
	}
	// Running again gives identical results.
	r1, _ := Simulate(w, 2)
	r2, _ := Simulate(w, 2)
	if r1.Makespan != r2.Makespan || r1.TLP != r2.TLP {
		t.Error("simulation not repeatable")
	}
}

func TestSyntheticVRHitsTargetTLP(t *testing.T) {
	for _, target := range []float64{3.5, 4.2} {
		w := SyntheticVR("vr", target, 30, 1)
		r, err := Simulate(w, 16) // plenty of cores: TLP unconstrained
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.TLP-target) > 0.8 {
			t.Errorf("target TLP %.2f, measured %.2f", target, r.TLP)
		}
	}
}

func TestSyntheticVRDeterministic(t *testing.T) {
	a := SyntheticVR("vr", 4, 10, 7)
	b := SyntheticVR("vr", 4, 10, 7)
	if len(a.Threads) != len(b.Threads) {
		t.Fatal("nondeterministic thread count")
	}
	ra, _ := Simulate(a, 4)
	rb, _ := Simulate(b, 4)
	if ra.Makespan != rb.Makespan {
		t.Error("same seed should give the same simulation")
	}
}

// histogram converts a runnable-occupancy histogram to a fixed length by
// folding overflow into the last bucket (for handing to soc.TLPProfile).
func histogram(occ []float64, buckets int) []float64 {
	out := make([]float64, buckets)
	for k, f := range occ {
		idx := k
		if idx >= buckets {
			idx = buckets - 1
		}
		out[idx] += f
	}
	return out
}

func TestHistogramFolding(t *testing.T) {
	occ := []float64{0.1, 0.2, 0.3, 0.2, 0.1, 0.1}
	h := histogram(occ, 4)
	near(t, "h[0]", h[0], 0.1, 1e-12)
	near(t, "h[3]", h[3], 0.4, 1e-12) // 0.2+0.1+0.1 folded
	sum := 0.0
	for _, v := range h {
		sum += v
	}
	near(t, "sum", sum, 1.0, 1e-12)
}

// Cross-validation: the analytical work-conserving slowdown model of
// internal/soc, fed with the scheduler's measured occupancy histogram, must
// predict the scheduler's own measured slowdown closely. This is the
// substitute for validating against Perfetto traces.
func TestSocModelMatchesScheduler(t *testing.T) {
	w := SyntheticVR("vr", 4.0, 60, 3)
	ref, err := Simulate(w, soc.MaxCores)
	if err != nil {
		t.Fatal(err)
	}
	var profile soc.TLPProfile
	h := histogram(ref.RunnableOccupancy, soc.MaxCores)
	copy(profile.Fraction[:], h)
	if err := profile.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{4, 5, 6} {
		measured, err := Slowdown(w, n, soc.MaxCores)
		if err != nil {
			t.Fatal(err)
		}
		predicted := profile.Slowdown(n)
		if math.Abs(measured-predicted) > 0.08*measured {
			t.Errorf("%d cores: measured slowdown %.4f, model predicts %.4f", n, measured, predicted)
		}
	}
}

// Work conservation: makespan never decreases when cores are removed and
// never falls below total work / cores.
func TestSlowdownMonotoneInCores(t *testing.T) {
	w := SyntheticVR("vr", 4.3, 40, 11)
	prev := math.Inf(1)
	for n := 1; n <= 8; n++ {
		r, err := Simulate(w, n)
		if err != nil {
			t.Fatal(err)
		}
		if r.Makespan > prev+1e-9 {
			t.Errorf("%d cores slower than %d cores", n, n-1)
		}
		prev = r.Makespan
	}
}
