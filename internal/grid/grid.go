// Package grid models the use-phase carbon intensity of the electricity
// supply, CI_use(t), as a function of time — the quantity §IV-B identifies as
// a major source of uncertainty ("may change dramatically from year-to-year
// ... or depending on the time of day").
//
// A Trace is CI_use as a function of time since deployment. The package
// supplies the trace shapes the paper mentions (constant grids, diurnal
// solar-driven swings, multi-year decarbonization ramps) and numeric
// integration of eq. IV.7:
//
//	C_operational = ∫₀^t_life CI_use(t)·P(t) dt
package grid

import (
	"fmt"
	"math"

	"cordoba/internal/units"
)

// Trace is a carbon-intensity time series: CI(t) for t seconds after
// deployment. Implementations must return non-negative intensities.
type Trace interface {
	CI(t units.Time) units.CarbonIntensity
	Name() string
}

// Constant is a flat grid at a fixed intensity.
type Constant struct {
	Label     string
	Intensity units.CarbonIntensity
}

// CI implements Trace.
func (c Constant) CI(units.Time) units.CarbonIntensity { return c.Intensity }

// Name implements Trace.
func (c Constant) Name() string {
	if c.Label != "" {
		return c.Label
	}
	return fmt.Sprintf("constant(%v)", c.Intensity)
}

// Diurnal models a solar-heavy grid: intensity swings sinusoidally around
// Mean with amplitude Swing over a 24-hour period, cleanest at local noon.
type Diurnal struct {
	Mean  units.CarbonIntensity
	Swing units.CarbonIntensity // peak deviation from the mean; must be ≤ Mean
}

// CI implements Trace.
func (d Diurnal) CI(t units.Time) units.CarbonIntensity {
	phase := 2 * math.Pi * math.Mod(t.Seconds(), units.SecondsPerDay) / units.SecondsPerDay
	// cos(phase) is +1 at midnight (dirty) and −1 at noon (clean).
	ci := float64(d.Mean) + float64(d.Swing)*math.Cos(phase)
	if ci < 0 {
		ci = 0
	}
	return units.CarbonIntensity(ci)
}

// Name implements Trace.
func (d Diurnal) Name() string { return fmt.Sprintf("diurnal(%v±%v)", d.Mean, d.Swing) }

// Ramp models multi-year decarbonization: intensity moves linearly from
// Start at t=0 to End at t=Span, then stays at End.
type Ramp struct {
	Start, End units.CarbonIntensity
	Span       units.Time
}

// CI implements Trace.
func (r Ramp) CI(t units.Time) units.CarbonIntensity {
	if r.Span <= 0 || t >= r.Span {
		return r.End
	}
	if t <= 0 {
		return r.Start
	}
	frac := t.Seconds() / r.Span.Seconds()
	return units.CarbonIntensity(float64(r.Start) + frac*float64(r.End-r.Start))
}

// Name implements Trace.
func (r Ramp) Name() string { return fmt.Sprintf("ramp(%v→%v over %v)", r.Start, r.End, r.Span) }

// Step is a piecewise-constant trace: Levels[i] applies from Edges[i-1] to
// Edges[i] (Edges[len-1] onward is the last level).
type Step struct {
	Edges  []units.Time // strictly increasing boundaries, len = len(Levels)-1
	Levels []units.CarbonIntensity
}

// NewStep validates and constructs a Step trace.
func NewStep(edges []units.Time, levels []units.CarbonIntensity) (Step, error) {
	if len(levels) == 0 {
		return Step{}, fmt.Errorf("grid: step trace needs at least one level")
	}
	if len(edges) != len(levels)-1 {
		return Step{}, fmt.Errorf("grid: step trace needs len(edges) = len(levels)-1, got %d and %d", len(edges), len(levels))
	}
	for i, e := range edges {
		if e < 0 {
			return Step{}, fmt.Errorf("grid: step edge %d is negative (%v)", i, e)
		}
		if i > 0 && e <= edges[i-1] {
			return Step{}, fmt.Errorf("grid: step edges must be strictly increasing")
		}
	}
	for i, l := range levels {
		if l < 0 {
			return Step{}, fmt.Errorf("grid: step level %d is negative (%v)", i, l)
		}
	}
	return Step{Edges: edges, Levels: levels}, nil
}

// CI implements Trace.
func (s Step) CI(t units.Time) units.CarbonIntensity {
	for i, e := range s.Edges {
		if t < e {
			return s.Levels[i]
		}
	}
	return s.Levels[len(s.Levels)-1]
}

// Name implements Trace.
func (s Step) Name() string { return fmt.Sprintf("step(%d levels)", len(s.Levels)) }

// Compose multiplies a base trace by a diurnal modulation — e.g. a
// decarbonization ramp with daily solar swings on top.
type Compose struct {
	Base Trace
	Mod  Trace
	// ModMean normalizes the modulation: effective CI = Base·Mod/ModMean.
	ModMean units.CarbonIntensity
}

// CI implements Trace.
func (c Compose) CI(t units.Time) units.CarbonIntensity {
	if c.ModMean <= 0 {
		return c.Base.CI(t)
	}
	return units.CarbonIntensity(float64(c.Base.CI(t)) * float64(c.Mod.CI(t)) / float64(c.ModMean))
}

// Name implements Trace.
func (c Compose) Name() string { return fmt.Sprintf("%s × %s", c.Base.Name(), c.Mod.Name()) }

// Empirical is a trace built from sampled intensities (e.g. hourly grid
// data), linearly interpolated between samples and repeating with the given
// period — the shape of real grid-operator feeds.
type Empirical struct {
	Label string
	// Period is the span the samples cover; the trace repeats after it.
	Period units.Time
	// Samples are evenly spaced over [0, Period).
	Samples []units.CarbonIntensity
}

// NewEmpirical validates and constructs an empirical trace.
func NewEmpirical(label string, period units.Time, samples []units.CarbonIntensity) (Empirical, error) {
	if period <= 0 {
		return Empirical{}, fmt.Errorf("grid: empirical trace needs a positive period")
	}
	if len(samples) < 2 {
		return Empirical{}, fmt.Errorf("grid: empirical trace needs at least two samples, got %d", len(samples))
	}
	for i, s := range samples {
		if s < 0 {
			return Empirical{}, fmt.Errorf("grid: sample %d is negative", i)
		}
	}
	return Empirical{Label: label, Period: period, Samples: samples}, nil
}

// CI implements Trace.
func (e Empirical) CI(t units.Time) units.CarbonIntensity {
	n := len(e.Samples)
	pos := math.Mod(t.Seconds(), e.Period.Seconds())
	if pos < 0 {
		pos += e.Period.Seconds()
	}
	// Sample i covers phase i/n; interpolate toward the next (wrapping).
	x := pos / e.Period.Seconds() * float64(n)
	i := int(x)
	frac := x - float64(i)
	if i >= n {
		// pos/Period rounded up to 1 at the wrap boundary: that is phase 0
		// of the next period, not an extrapolation past the last sample.
		i, frac = 0, 0
	}
	a := float64(e.Samples[i])
	b := float64(e.Samples[(i+1)%n])
	return units.CarbonIntensity(a + frac*(b-a))
}

// Name implements Trace.
func (e Empirical) Name() string {
	if e.Label != "" {
		return e.Label
	}
	return fmt.Sprintf("empirical(%d samples/%v)", len(e.Samples), e.Period)
}

// CaliforniaDuck returns a stylized "duck curve" daily trace: clean midday
// solar, dirty evening ramp — the canonical time-of-day CI variation that
// §IV-B cites ("depending on the time of day ... availability of renewable
// energy sources such as solar").
func CaliforniaDuck() Empirical {
	e, err := NewEmpirical("california-duck", units.Days(1), []units.CarbonIntensity{
		// Hourly from midnight: overnight gas baseline, solar valley
		// around noon, steep evening ramp.
		310, 305, 300, 300, 305, 315, 300, 260,
		210, 160, 130, 115, 110, 112, 125, 150,
		200, 280, 360, 390, 380, 360, 340, 320,
	})
	if err != nil {
		panic(err) // static data; unreachable
	}
	return e
}

// PowerProfile is the operational power draw as a function of time, P(t).
type PowerProfile func(t units.Time) units.Power

// ConstantPower returns a flat power profile.
func ConstantPower(p units.Power) PowerProfile {
	return func(units.Time) units.Power { return p }
}

// Integrate computes eq. IV.7 over [0, life]:
//
//	C_operational = ∫₀^life CI(t)·P(t) dt
//
// The quadrature is edge-aligned: [0, life] is first split at every
// discontinuity or kink of the trace (step edges, ramp breaks, sample
// boundaries, clamp crossings), then each smooth segment is integrated with
// Gauss–Legendre sub-steps. Because no rule ever straddles or samples a
// discontinuity, the result is exact (to rounding) for piecewise-polynomial
// traces under constant power regardless of `steps`; `steps` (≥1) only sets
// the minimum total sub-step resolution for smooth variation in CI·P.
func Integrate(tr Trace, p PowerProfile, life units.Time, steps int) (units.Carbon, error) {
	if life < 0 {
		return 0, fmt.Errorf("grid: negative lifetime %v", life)
	}
	if steps < 1 {
		return 0, fmt.Errorf("grid: need at least one integration step, got %d", steps)
	}
	if life == 0 {
		return 0, nil
	}
	integrand := func(tSec float64) float64 {
		t := units.Time(tSec)
		// CI is g/kWh, P is W: g/kWh · W = g/kWh · J/s; dividing by
		// J-per-kWh converts to g/s.
		return float64(tr.CI(t)) * p(t).Watts() / units.JoulesPerKWh
	}
	total := life.Seconds()
	knots := knotGrid(tr, 0, total)
	sum := 0.0
	for i := 1; i < len(knots); i++ {
		a, b := knots[i-1], knots[i]
		// Distribute the requested resolution across segments by length,
		// with at least one Gauss panel per segment.
		m := int(math.Ceil(float64(steps) * (b - a) / total))
		if m < 1 {
			m = 1
		}
		h := (b - a) / float64(m)
		for j := 0; j < m; j++ {
			sum += glIntegrate(integrand, a+float64(j)*h, a+float64(j+1)*h)
		}
	}
	return units.Carbon(sum), nil
}
