package grid

import (
	"math"
	"testing"
	"testing/quick"

	"cordoba/internal/units"
)

// stepClosedForm is the independent reference for a Step trace under
// constant power: Σ level_i · overlap([edge_{i-1}, edge_i], [0, life]).
func stepClosedForm(s Step, p units.Power, life units.Time) float64 {
	sum := 0.0
	prev := 0.0
	for i, l := range s.Levels {
		end := life.Seconds()
		if i < len(s.Edges) && s.Edges[i].Seconds() < end {
			end = s.Edges[i].Seconds()
		}
		if end > prev {
			sum += float64(l) * (end - prev)
		}
		if i < len(s.Edges) {
			prev = s.Edges[i].Seconds()
		}
		if prev >= life.Seconds() {
			break
		}
	}
	return sum * p.Watts() / units.JoulesPerKWh
}

// Regression for the headline bug: composite quadrature used to smear step
// edges whenever its points didn't align with them. The edge-aligned path
// must match the closed-form piecewise sum to rounding for ANY steps value.
func TestIntegrateStepExactRegardlessOfSteps(t *testing.T) {
	s, err := NewStep(
		// Deliberately awkward edges: none lands on a uniform grid of the
		// step counts below.
		[]units.Time{units.Time(1234.567), units.Hours(7.3), units.Days(1.9)},
		[]units.CarbonIntensity{512, 64, 900, 123},
	)
	if err != nil {
		t.Fatal(err)
	}
	life := units.Days(3)
	want := stepClosedForm(s, 17.5, life)
	for _, steps := range []int{1, 2, 3, 7, 100, 999, 4096} {
		got, err := Integrate(s, ConstantPower(17.5), life, steps)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got.Grams()-want) / want; rel > 1e-12 {
			t.Errorf("steps=%d: got %.15g want %.15g (rel err %.3g)", steps, got.Grams(), want, rel)
		}
	}
}

// The old trapezoid rule got this wrong: with a single step over a
// two-level trace, it averaged the endpoint levels instead of weighting
// them by duration.
func TestIntegrateStepMisalignedWorstCase(t *testing.T) {
	s, err := NewStep([]units.Time{units.Hours(23)}, []units.CarbonIntensity{1000, 0})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Integrate(s, ConstantPower(1000), units.Hours(24), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := stepClosedForm(s, 1000, units.Hours(24))
	if rel := math.Abs(got.Grams()-want) / want; rel > 1e-12 {
		t.Errorf("got %.15g want %.15g (rel err %.3g)", got.Grams(), want, rel)
	}
}

func TestNewStepRejectsNegativeEdgesAndLevels(t *testing.T) {
	if _, err := NewStep([]units.Time{-5}, []units.CarbonIntensity{1, 2}); err == nil {
		t.Error("negative edge should error")
	}
	if _, err := NewStep([]units.Time{5}, []units.CarbonIntensity{1, -2}); err == nil {
		t.Error("negative level should error")
	}
}

// Regression for the Empirical wrap bug: at the wrap boundary the old clamp
// (i = n-1 with frac > 1) extrapolated past the last sample. Interpolated
// values must stay within the sample range everywhere.
func TestEmpiricalStaysWithinSampleRange(t *testing.T) {
	traces := []Empirical{
		mustEmpirical(t, units.Hours(2), []units.CarbonIntensity{400, 100}),
		mustEmpirical(t, units.Time(1.0/3), []units.CarbonIntensity{10, 500, 20}),
		CaliforniaDuck(),
	}
	for _, e := range traces {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range e.Samples {
			lo = math.Min(lo, float64(s))
			hi = math.Max(hi, float64(s))
		}
		p := e.Period.Seconds()
		for k := 0; k < 5; k++ {
			base := float64(k) * p
			for _, tt := range []float64{
				base, math.Nextafter(base, 0), math.Nextafter(base, base+1),
				base + p/2, base + p - 1e-9, math.Nextafter(base+p, 0),
			} {
				ci := float64(e.CI(units.Time(tt)))
				if ci < lo-1e-9 || ci > hi+1e-9 {
					t.Errorf("%s: CI(%g) = %g outside sample range [%g, %g]", e.Name(), tt, ci, lo, hi)
				}
			}
		}
	}
}

func mustEmpirical(t *testing.T, period units.Time, samples []units.CarbonIntensity) Empirical {
	t.Helper()
	e, err := NewEmpirical("", period, samples)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// Cumulative prefix must agree with direct edge-aligned quadrature on every
// registered trace shape, both inside and beyond any table horizon.
func TestCumulativeMatchesIntegrate(t *testing.T) {
	for _, tr := range NamedTraces() {
		cum, err := NewCumulative(tr, units.Years(1))
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		for _, life := range []units.Time{
			units.Hours(1), units.Hours(13.7), units.Days(2.31), units.Days(400), // past the 1y horizon
		} {
			want, err := Integrate(tr, ConstantPower(1), life, 512)
			if err != nil {
				t.Fatal(err)
			}
			got := cum.OperationalCarbon(1, 0, life)
			rel := math.Abs(got.Grams()-want.Grams()) / math.Max(want.Grams(), 1e-30)
			if rel > 1e-9 {
				t.Errorf("%s over %v: cumulative %.12g vs integrate %.12g (rel %.3g)",
					tr.Name(), life, got.Grams(), want.Grams(), rel)
			}
		}
	}
}

// Window integrals through the engine must match integrating the shifted
// window directly.
func TestCumulativeWindowMatchesDirect(t *testing.T) {
	for _, tr := range NamedTraces() {
		cum, err := NewCumulative(tr, units.Days(30))
		if err != nil {
			t.Fatal(err)
		}
		t0, t1 := units.Hours(30), units.Hours(77.5)
		whole, _ := Integrate(tr, ConstantPower(1), t1, 2048)
		head, _ := Integrate(tr, ConstantPower(1), t0, 2048)
		want := whole.Grams() - head.Grams()
		got := cum.OperationalCarbon(1, t0, t1).Grams()
		if rel := math.Abs(got-want) / math.Max(math.Abs(want), 1e-30); rel > 1e-8 {
			t.Errorf("%s: window [%v,%v] = %.12g want %.12g", tr.Name(), t0, t1, got, want)
		}
	}
}

// Property: the average of a constant trace is that constant, exactly.
func TestAverageCIConstantExact(t *testing.T) {
	f := func(ci uint32, hrs uint16) bool {
		c := units.CarbonIntensity(float64(ci%100000) / 7)
		life := units.Hours(0.5 + float64(hrs%5000))
		avg, err := averageCI(Constant{Intensity: c}, life)
		return err == nil && avg == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: IntegralBetween is additive: F(a,b) + F(b,c) = F(a,c).
func TestIntegralBetweenAdditivity(t *testing.T) {
	for _, tr := range NamedTraces() {
		cum, err := NewCumulative(tr, units.Days(10))
		if err != nil {
			t.Fatal(err)
		}
		f := func(x, y, z uint32) bool {
			ts := []units.Time{
				units.Time(float64(x%1000000) * 25.3),
				units.Time(float64(y%1000000) * 25.3),
				units.Time(float64(z%1000000) * 25.3),
			}
			a, b, c := ts[0], ts[1], ts[2]
			sum := cum.IntegralBetween(a, b) + cum.IntegralBetween(b, c)
			direct := cum.IntegralBetween(a, c)
			scale := math.Max(math.Abs(cum.Prefix(a))+math.Abs(cum.Prefix(b))+math.Abs(cum.Prefix(c)), 1)
			return math.Abs(sum-direct) <= 1e-9*scale
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", tr.Name(), err)
		}
	}
}

// Property: CI is non-negative everywhere on every reference trace.
func TestTracesNonNegativeProperty(t *testing.T) {
	for _, tr := range NamedTraces() {
		f := func(sec uint32, frac uint16) bool {
			tt := units.Time(float64(sec) + float64(frac)/65536)
			return tr.CI(tt) >= 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", tr.Name(), err)
		}
	}
}

// Property: Empirical is periodic: CI(t) == CI(t + Period).
func TestEmpiricalPeriodicityProperty(t *testing.T) {
	duck := CaliforniaDuck()
	f := func(sec uint32, frac uint16) bool {
		tt := units.Time(float64(sec%200000) + float64(frac)/65536)
		a := float64(duck.CI(tt))
		b := float64(duck.CI(tt + duck.Period))
		return math.Abs(a-b) <= 1e-6*math.Max(a, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCumulativePrefixMonotone(t *testing.T) {
	for _, tr := range NamedTraces() {
		cum, err := NewCumulative(tr, units.Days(5))
		if err != nil {
			t.Fatal(err)
		}
		prev := 0.0
		for h := 0.0; h <= 24*8; h += 0.37 {
			f := cum.Prefix(units.Hours(h))
			if f < prev-1e-6 {
				t.Errorf("%s: prefix not monotone at %gh: %g < %g", tr.Name(), h, f, prev)
			}
			prev = f
		}
	}
}

func TestCumulativeValidation(t *testing.T) {
	if _, err := NewCumulative(nil, 0); err == nil {
		t.Error("nil trace should error")
	}
	if _, err := NewCumulative(Constant{Intensity: 1}, -1); err == nil {
		t.Error("negative horizon should error")
	}
	if _, err := NewCumulative(Step{Levels: []units.CarbonIntensity{1, 2}}, 0); err == nil {
		t.Error("malformed step should error")
	}
	if _, err := NewCumulative(Empirical{Period: 1, Samples: nil}, 0); err == nil {
		t.Error("malformed empirical should error")
	}
	cum, err := NewCumulative(Constant{Intensity: 380}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cum.Horizon() != DefaultHorizon {
		t.Errorf("default horizon = %v", cum.Horizon())
	}
	if cum.Trace().Name() == "" {
		t.Error("trace accessor lost the trace")
	}
	if cum.Prefix(-5) != 0 {
		t.Error("negative prefix should clamp to 0")
	}
	if _, err := cum.AverageBetween(5, 5); err == nil {
		t.Error("empty average window should error")
	}
}

func TestTraceRegistry(t *testing.T) {
	ts := NamedTraces()
	if len(ts) < 6 {
		t.Fatalf("expected at least 6 named traces, got %d", len(ts))
	}
	seen := map[string]bool{}
	for _, tr := range ts {
		if tr.Name() == "" {
			t.Error("registry trace with empty name")
		}
		if seen[tr.Name()] {
			t.Errorf("duplicate trace name %q", tr.Name())
		}
		seen[tr.Name()] = true
	}
	for _, want := range []string{"paper-grid", "california-duck", "solar-diurnal", "decarb-ramp", "coal-retirement", "duck-decarb"} {
		if !seen[want] {
			t.Errorf("registry is missing %q", want)
		}
	}
}

// FuzzTraceIntegrate drives the engine with arbitrary Step and Empirical
// shapes and windows, checking the invariants that must hold for any valid
// trace: non-negative CI, non-negative and additive prefix integrals, and
// agreement between the closed-form engine and direct quadrature.
func FuzzTraceIntegrate(f *testing.F) {
	f.Add(uint8(0), 3600.0, 100.0, 7200.0, []byte{10, 200, 30, 90})
	f.Add(uint8(1), 86400.0, 50.0, 400.0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(0), 1.5, 0.25, 2.75, []byte{255, 0})
	f.Add(uint8(1), 0.001, 0.0005, 0.01, []byte{7, 7, 7})
	f.Fuzz(func(t *testing.T, kind uint8, span, t0, t1 float64, raw []byte) {
		if len(raw) < 2 || len(raw) > 64 {
			return
		}
		if !(span > 1e-6 && span < 1e9) || math.IsNaN(t0) || math.IsNaN(t1) {
			return
		}
		clampT := func(v float64) units.Time {
			if !(v >= 0) {
				return 0
			}
			if v > 1e10 {
				v = 1e10
			}
			return units.Time(v)
		}
		a, b := clampT(t0), clampT(t1)
		if a > b {
			a, b = b, a
		}

		var tr Trace
		switch kind % 2 {
		case 0: // Step: edges spread over [0, span], levels from raw
			levels := make([]units.CarbonIntensity, len(raw))
			for i, r := range raw {
				levels[i] = units.CarbonIntensity(r) * 3
			}
			edges := make([]units.Time, len(raw)-1)
			for i := range edges {
				edges[i] = units.Time(span * float64(i+1) / float64(len(raw)))
			}
			s, err := NewStep(edges, levels)
			if err != nil {
				t.Fatalf("generated step invalid: %v", err)
			}
			tr = s
		default: // Empirical with period=span
			samples := make([]units.CarbonIntensity, len(raw))
			for i, r := range raw {
				samples[i] = units.CarbonIntensity(r)
			}
			e, err := NewEmpirical("fuzz", units.Time(span), samples)
			if err != nil {
				t.Fatalf("generated empirical invalid: %v", err)
			}
			tr = e
		}

		for _, probe := range []units.Time{0, a, b, units.Time(span / 3), units.Time(span * 2.7)} {
			ci := tr.CI(probe)
			if !(float64(ci) >= 0) || math.IsInf(float64(ci), 0) {
				t.Fatalf("CI(%v) = %v", probe, ci)
			}
		}

		cum, err := NewCumulative(tr, units.Time(span*4))
		if err != nil {
			t.Fatalf("cumulative: %v", err)
		}
		fa, fb := cum.Prefix(a), cum.Prefix(b)
		if fa < 0 || fb < fa {
			t.Fatalf("prefix not monotone: F(%v)=%g F(%v)=%g", a, fa, b, fb)
		}
		win := cum.IntegralBetween(a, b)
		if win < -1e-9*math.Max(fb, 1) {
			t.Fatalf("negative window integral %g", win)
		}
		mid := units.Time((a.Seconds() + b.Seconds()) / 2)
		sum := cum.IntegralBetween(a, mid) + cum.IntegralBetween(mid, b)
		if math.Abs(sum-win) > 1e-9*math.Max(fb, 1) {
			t.Fatalf("additivity broken: %g vs %g", sum, win)
		}

		if b > a && b.Seconds()-a.Seconds() < 1e8 {
			direct, err := Integrate(tr, ConstantPower(1), b, 64)
			if err != nil {
				t.Fatalf("integrate: %v", err)
			}
			head, err := Integrate(tr, ConstantPower(1), a, 64)
			if err != nil {
				t.Fatalf("integrate: %v", err)
			}
			want := direct.Grams() - head.Grams()
			got := cum.OperationalCarbon(1, a, b).Grams()
			scale := math.Max(math.Abs(direct.Grams()), 1e-12)
			if math.Abs(got-want) > 1e-6*scale {
				t.Fatalf("engine %.12g vs quadrature %.12g (trace %s, window [%v,%v])",
					got, want, tr.Name(), a, b)
			}
		}
	})
}
