package sched

import (
	"fmt"
	"math"
	"testing"

	"cordoba/internal/grid"
	"cordoba/internal/units"
)

func duckCumulative(t testing.TB) *grid.Cumulative {
	t.Helper()
	cum, err := grid.NewCumulative(grid.CaliforniaDuck(), units.Days(7))
	if err != nil {
		t.Fatal(err)
	}
	return cum
}

// findWindowNaive is the pre-engine reference implementation: every
// candidate window is integrated from scratch with composite quadrature.
// It is the oracle for the differential tests and the speedup benchmark.
func findWindowNaive(tr grid.Trace, req WindowRequest, steps int) (WindowPlan, error) {
	if tr == nil {
		return WindowPlan{}, fmt.Errorf("sched: nil trace")
	}
	step, err := req.validate()
	if err != nil {
		return WindowPlan{}, err
	}
	p := grid.ConstantPower(req.Power)
	return searchWindows(req, step, func(t0, t1 units.Time) (units.Carbon, error) {
		whole, err := grid.Integrate(tr, p, t1, steps)
		if err != nil {
			return 0, err
		}
		head, err := grid.Integrate(tr, p, t0, steps)
		if err != nil {
			return 0, err
		}
		return whole - head, nil
	})
}

func TestFindWindowPrefersSolarValley(t *testing.T) {
	// A 2-hour job with a 24-hour deadline on the duck curve should land in
	// the midday solar valley (samples bottom out around hour 12).
	plan, err := FindWindow(duckCumulative(t), WindowRequest{
		Duration: units.Hours(2),
		Power:    200,
		Deadline: units.Hours(24),
		Step:     units.Hours(0.25),
	})
	if err != nil {
		t.Fatal(err)
	}
	if h := plan.Best.Start.InHours(); h < 9 || h > 13 {
		t.Errorf("best start %.2fh, want midday valley", h)
	}
	// The worst window should straddle the evening ramp peak (hour 19).
	if h := plan.Worst.Start.InHours(); h < 17 || h > 21 {
		t.Errorf("worst start %.2fh, want evening peak", h)
	}
	if plan.Savings <= 0.3 {
		t.Errorf("savings vs immediate = %.3f, duck valley should save >30%%", plan.Savings)
	}
	if plan.Best.Carbon > plan.Immediate.Carbon || plan.Best.Carbon > plan.Worst.Carbon {
		t.Error("best window is not the minimum")
	}
	if plan.Best.End-plan.Best.Start != units.Hours(2) {
		t.Errorf("window length %v, want 2h", plan.Best.End-plan.Best.Start)
	}
}

func TestFindWindowMatchesNaive(t *testing.T) {
	req := WindowRequest{
		Duration: units.Hours(3.5),
		Power:    150,
		Deadline: units.Hours(30),
		Step:     units.Hours(0.5),
	}
	for _, tr := range grid.NamedTraces() {
		cum, err := grid.NewCumulative(tr, units.Days(3))
		if err != nil {
			t.Fatal(err)
		}
		fast, err := FindWindow(cum, req)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := findWindowNaive(tr, req, 256)
		if err != nil {
			t.Fatal(err)
		}
		if fast.Candidates != naive.Candidates {
			t.Fatalf("%s: candidate counts differ: %d vs %d", tr.Name(), fast.Candidates, naive.Candidates)
		}
		// Ties (flat or symmetric traces) may break differently between the
		// two paths, so compare optimum carbon, not the argmin.
		for _, pair := range [][2]float64{
			{fast.Best.Carbon.Grams(), naive.Best.Carbon.Grams()},
			{fast.Worst.Carbon.Grams(), naive.Worst.Carbon.Grams()},
			{fast.Immediate.Carbon.Grams(), naive.Immediate.Carbon.Grams()},
		} {
			rel := math.Abs(pair[0]-pair[1]) / math.Max(pair[1], 1e-30)
			if rel > 1e-6 {
				t.Errorf("%s: carbon %.9g vs naive %.9g", tr.Name(), pair[0], pair[1])
			}
		}
	}
}

func TestFindWindowZeroSlack(t *testing.T) {
	// Deadline == duration: exactly one candidate, savings 0.
	plan, err := FindWindow(duckCumulative(t), WindowRequest{
		Duration: units.Hours(6),
		Power:    100,
		Deadline: units.Hours(6),
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Candidates != 1 {
		t.Errorf("candidates = %d, want 1", plan.Candidates)
	}
	if plan.Savings != 0 {
		t.Errorf("savings = %v, want 0", plan.Savings)
	}
	if plan.Best != plan.Worst || plan.Best != plan.Immediate {
		t.Error("single-candidate plan should have best == worst == immediate")
	}
}

func TestFindWindowSearchesDeadlineEdge(t *testing.T) {
	// Slack not a step multiple: the final feasible start must be examined.
	cum, err := grid.NewCumulative(grid.Ramp{Start: 500, End: 100, Span: units.Hours(10)}, units.Days(1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := FindWindow(cum, WindowRequest{
		Duration: units.Hours(1),
		Power:    100,
		Deadline: units.Hours(10.5), // slack 9.5h, step 1h → last start 9.5h
		Step:     units.Hours(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Best.Start != units.Hours(9.5) {
		t.Errorf("best start %v, want the deadline edge 9.5h on a falling ramp", plan.Best.Start)
	}
}

func TestFindWindowValidation(t *testing.T) {
	cum := duckCumulative(t)
	cases := []WindowRequest{
		{Duration: 0, Power: 10, Deadline: units.Hours(1)},
		{Duration: units.Hours(1), Power: 0, Deadline: units.Hours(2)},
		{Duration: units.Hours(2), Power: 10, Deadline: units.Hours(1)},
		{Duration: units.Hours(1), Power: 10, Deadline: units.Hours(2), Step: -1},
		{Duration: units.Hours(1), Power: 10, Deadline: units.Years(100), Step: units.Time(0.001)},
	}
	for i, req := range cases {
		if _, err := FindWindow(cum, req); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := FindWindow(nil, WindowRequest{Duration: 1, Power: 1, Deadline: 1}); err == nil {
		t.Error("nil cumulative should error")
	}
	if _, err := findWindowNaive(nil, WindowRequest{Duration: 1, Power: 1, Deadline: 1}, 10); err == nil {
		t.Error("nil trace should error")
	}
}

// BenchmarkScheduleWindow contrasts the cumulative prefix-integral search
// with the repeated-quadrature baseline it replaced; bench-check gates on
// the recorded baseline in testdata/bench_baseline.json.
func BenchmarkScheduleWindow(b *testing.B) {
	req := WindowRequest{
		Duration: units.Hours(2),
		Power:    200,
		Deadline: units.Days(2),
		Step:     units.Hours(0.25),
	}
	tr := grid.CaliforniaDuck()
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := findWindowNaive(tr, req, 256); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cumulative", func(b *testing.B) {
		cum, err := grid.NewCumulative(tr, units.Days(3))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := FindWindow(cum, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
