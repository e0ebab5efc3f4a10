package grid

import (
	"math"
	"testing"
	"testing/quick"

	"cordoba/internal/units"
)

func near(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Max(math.Abs(want), 1e-30) {
		t.Errorf("%s: got %v want %v", name, got, want)
	}
}

func TestConstantTrace(t *testing.T) {
	c := Constant{Label: "grid", Intensity: 380}
	for _, tm := range []units.Time{0, units.Hours(5), units.Years(3)} {
		if c.CI(tm) != 380 {
			t.Errorf("CI(%v) = %v", tm, c.CI(tm))
		}
	}
	if c.Name() != "grid" {
		t.Errorf("name = %q", c.Name())
	}
	if (Constant{Intensity: 10}).Name() == "" {
		t.Error("unnamed constant should synthesize a name")
	}
}

func TestDiurnalTrace(t *testing.T) {
	d := Diurnal{Mean: 400, Swing: 100}
	midnight := d.CI(0)
	noon := d.CI(units.Hours(12))
	near(t, "midnight", midnight.GramsPerKWh(), 500, 1e-9)
	near(t, "noon", noon.GramsPerKWh(), 300, 1e-9)
	// Periodic: same value a day later.
	near(t, "period", d.CI(units.Hours(36)).GramsPerKWh(), noon.GramsPerKWh(), 1e-9)
	// Never negative even with swing > mean.
	neg := Diurnal{Mean: 50, Swing: 100}
	if neg.CI(0) < 0 {
		t.Error("diurnal CI went negative")
	}
	if d.Name() == "" {
		t.Error("empty name")
	}
}

func TestRampTrace(t *testing.T) {
	r := Ramp{Start: 400, End: 100, Span: units.Years(10)}
	near(t, "start", r.CI(0).GramsPerKWh(), 400, 1e-9)
	near(t, "mid", r.CI(units.Years(5)).GramsPerKWh(), 250, 1e-9)
	near(t, "end", r.CI(units.Years(10)).GramsPerKWh(), 100, 1e-9)
	near(t, "beyond", r.CI(units.Years(20)).GramsPerKWh(), 100, 1e-9)
	near(t, "before", r.CI(-5).GramsPerKWh(), 400, 1e-9)
	zero := Ramp{Start: 400, End: 100, Span: 0}
	near(t, "zero span", zero.CI(0).GramsPerKWh(), 100, 1e-9)
	if r.Name() == "" {
		t.Error("empty name")
	}
}

func TestStepTrace(t *testing.T) {
	s, err := NewStep(
		[]units.Time{units.Years(1), units.Years(2)},
		[]units.CarbonIntensity{500, 300, 100},
	)
	if err != nil {
		t.Fatal(err)
	}
	near(t, "first", s.CI(units.Days(100)).GramsPerKWh(), 500, 1e-9)
	near(t, "second", s.CI(units.Days(500)).GramsPerKWh(), 300, 1e-9)
	near(t, "third", s.CI(units.Years(5)).GramsPerKWh(), 100, 1e-9)
	if s.Name() == "" {
		t.Error("empty name")
	}
}

func TestStepValidation(t *testing.T) {
	if _, err := NewStep(nil, nil); err == nil {
		t.Error("empty step should error")
	}
	if _, err := NewStep([]units.Time{1, 2}, []units.CarbonIntensity{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := NewStep([]units.Time{2, 1}, []units.CarbonIntensity{1, 2, 3}); err == nil {
		t.Error("non-increasing edges should error")
	}
}

func TestComposeTrace(t *testing.T) {
	base := Ramp{Start: 400, End: 200, Span: units.Years(4)}
	mod := Diurnal{Mean: 400, Swing: 100}
	c := Compose{Base: base, Mod: mod, ModMean: 400}
	// At t=0: base 400, mod 500 → 400·500/400 = 500.
	near(t, "compose t0", c.CI(0).GramsPerKWh(), 500, 1e-9)
	if c.Name() == "" {
		t.Error("empty name")
	}
	// Zero ModMean falls back to the base trace.
	c0 := Compose{Base: base, Mod: mod}
	near(t, "fallback", c0.CI(0).GramsPerKWh(), 400, 1e-9)
}

func TestIntegrateConstantMatchesClosedForm(t *testing.T) {
	// 8.3 W at 380 g/kWh for 1 hour = 3.154 g (Table V's C_op per hour).
	c, err := Integrate(Constant{Intensity: 380}, ConstantPower(8.3), units.Hours(1), 100)
	if err != nil {
		t.Fatal(err)
	}
	near(t, "constant integral", c.Grams(), 3.154, 1e-3)
}

func TestIntegrateDiurnalAveragesOut(t *testing.T) {
	// Over whole days the swing integrates away: equals the mean trace.
	d := Diurnal{Mean: 400, Swing: 150}
	got, err := Integrate(d, ConstantPower(10), units.Days(2), 2000)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Integrate(Constant{Intensity: 400}, ConstantPower(10), units.Days(2), 10)
	near(t, "diurnal average", got.Grams(), want.Grams(), 1e-4)
}

func TestIntegrateRampIsMidpoint(t *testing.T) {
	r := Ramp{Start: 400, End: 200, Span: units.Years(1)}
	got, err := Integrate(r, ConstantPower(1), units.Years(1), 1000)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Integrate(Constant{Intensity: 300}, ConstantPower(1), units.Years(1), 10)
	near(t, "ramp midpoint", got.Grams(), want.Grams(), 1e-6)
}

func TestIntegrateValidation(t *testing.T) {
	if _, err := Integrate(Constant{Intensity: 1}, ConstantPower(1), -1, 10); err == nil {
		t.Error("negative lifetime should error")
	}
	if _, err := Integrate(Constant{Intensity: 1}, ConstantPower(1), 10, 0); err == nil {
		t.Error("zero steps should error")
	}
}

func TestIntegrateTimeVaryingPower(t *testing.T) {
	// Power on for the first half only: half the constant-power carbon.
	life := units.Hours(2)
	p := func(t units.Time) units.Power {
		if t < units.Hours(1) {
			return 10
		}
		return 0
	}
	got, err := Integrate(Constant{Intensity: 380}, p, life, 20000)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Integrate(Constant{Intensity: 380}, ConstantPower(10), units.Hours(1), 10)
	near(t, "half-on power", got.Grams(), want.Grams(), 1e-3)
}

// averageCI is the time-average carbon intensity of tr over [0, life]
// through the cumulative-trace engine.
func averageCI(tr Trace, life units.Time) (units.CarbonIntensity, error) {
	cum, err := NewCumulative(tr, life)
	if err != nil {
		return 0, err
	}
	return cum.AverageBetween(0, life)
}

func TestAverageCI(t *testing.T) {
	avg, err := averageCI(Ramp{Start: 400, End: 200, Span: units.Years(1)}, units.Years(1))
	if err != nil {
		t.Fatal(err)
	}
	near(t, "avg CI", avg.GramsPerKWh(), 300, 1e-6)
	if _, err := averageCI(Constant{Intensity: 1}, 0); err == nil {
		t.Error("zero lifetime should error")
	}
}

// Property: for any constant trace and power, the integral is exactly
// CI·P·t (linearity sanity check on the quadrature).
func TestIntegrateLinearityProperty(t *testing.T) {
	f := func(ci, p, hrs uint16) bool {
		c := units.CarbonIntensity(ci % 1000)
		pw := units.Power(float64(p%1000) / 10)
		life := units.Hours(1 + float64(hrs%100))
		got, err := Integrate(Constant{Intensity: c}, ConstantPower(pw), life, 7)
		if err != nil {
			return false
		}
		want := c.Of(pw.Over(life))
		return math.Abs(got.Grams()-want.Grams()) <= 1e-9*math.Max(want.Grams(), 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: integral is monotone in lifetime for non-negative traces.
func TestIntegrateMonotoneProperty(t *testing.T) {
	tr := Diurnal{Mean: 300, Swing: 200}
	f := func(a, b uint16) bool {
		t1 := units.Hours(float64(a % 1000))
		t2 := units.Hours(float64(b % 1000))
		lo, hi := t1, t2
		if lo > hi {
			lo, hi = hi, lo
		}
		cLo, err1 := Integrate(tr, ConstantPower(5), lo, 500)
		cHi, err2 := Integrate(tr, ConstantPower(5), hi, 500)
		return err1 == nil && err2 == nil && cLo <= cHi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmpiricalValidation(t *testing.T) {
	if _, err := NewEmpirical("x", 0, []units.CarbonIntensity{1, 2}); err == nil {
		t.Error("zero period should error")
	}
	if _, err := NewEmpirical("x", 1, []units.CarbonIntensity{1}); err == nil {
		t.Error("single sample should error")
	}
	if _, err := NewEmpirical("x", 1, []units.CarbonIntensity{1, -2}); err == nil {
		t.Error("negative sample should error")
	}
}

func TestEmpiricalInterpolation(t *testing.T) {
	e, err := NewEmpirical("ramp", units.Hours(4), []units.CarbonIntensity{100, 200, 300, 400})
	if err != nil {
		t.Fatal(err)
	}
	near(t, "sample 0", e.CI(0).GramsPerKWh(), 100, 1e-9)
	near(t, "sample 1", e.CI(units.Hours(1)).GramsPerKWh(), 200, 1e-9)
	// Halfway between samples 0 and 1.
	near(t, "interp", e.CI(units.Hours(0.5)).GramsPerKWh(), 150, 1e-9)
	// Wrap: last sample interpolates back toward the first.
	near(t, "wrap", e.CI(units.Hours(3.5)).GramsPerKWh(), 250, 1e-9)
	// Periodicity.
	near(t, "period", e.CI(units.Hours(5)).GramsPerKWh(), 200, 1e-9)
	if e.Name() != "ramp" {
		t.Errorf("name = %q", e.Name())
	}
	if (Empirical{Period: 1, Samples: []units.CarbonIntensity{1, 2}}).Name() == "" {
		t.Error("unnamed empirical should synthesize a name")
	}
}

func TestCaliforniaDuckShape(t *testing.T) {
	duck := CaliforniaDuck()
	noon := duck.CI(units.Hours(12))
	evening := duck.CI(units.Hours(19))
	night := duck.CI(units.Hours(2))
	if !(noon < night && night < evening) {
		t.Errorf("duck shape broken: noon %v, night %v, evening %v", noon, evening, night)
	}
	// Integrates cleanly over a day.
	avg, err := averageCI(duck, units.Days(1))
	if err != nil {
		t.Fatal(err)
	}
	if avg < 100 || avg > 400 {
		t.Errorf("daily average %v out of sample range", avg)
	}
}
