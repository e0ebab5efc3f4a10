package grid

import (
	"sort"

	"cordoba/internal/units"
)

// Named reference traces: the CI_use(t) shapes §IV-B describes, under
// stable names so the daemon can serve them by key (GET /v1/traces,
// POST /v1/schedule, and the ci_trace field of POST /v1/dse).

// Named wraps any trace under a stable registry name. The cumulative-trace
// engine unwraps it, so a Named Step still gets the closed-form path.
type Named struct {
	Trace
	Label string
}

// Name implements Trace.
func (n Named) Name() string { return n.Label }

// PaperGrid returns the paper's flat 380 g/kWh anchor grid (Table III).
func PaperGrid() Trace {
	return Constant{Label: "paper-grid", Intensity: 380}
}

// SolarDiurnal returns a solar-heavy grid swinging ±150 g/kWh around the
// paper's 380 g/kWh mean, cleanest at local noon.
func SolarDiurnal() Trace {
	return Named{Trace: Diurnal{Mean: 380, Swing: 150}, Label: "solar-diurnal"}
}

// DecarbRamp returns a decade-long decarbonization ramp from the paper's
// 380 g/kWh down to 100 g/kWh.
func DecarbRamp() Trace {
	return Named{Trace: Ramp{Start: 380, End: 100, Span: units.Years(10)}, Label: "decarb-ramp"}
}

// CoalRetirement returns a stepwise-cleaning grid: coal units retire in
// tranches at years 2, 4, and 7.
func CoalRetirement() Trace {
	s, err := NewStep(
		[]units.Time{units.Years(2), units.Years(4), units.Years(7)},
		[]units.CarbonIntensity{500, 380, 250, 150},
	)
	if err != nil {
		panic(err) // static data; unreachable
	}
	return Named{Trace: s, Label: "coal-retirement"}
}

// DuckDecarb composes the duck curve's daily shape onto the
// decarbonization ramp: the long-run trend decays while the time-of-day
// swing persists.
func DuckDecarb() Trace {
	duck := CaliforniaDuck()
	// Normalize by the duck's exact daily mean so the composed trace tracks
	// the ramp on average.
	cum, err := NewCumulative(duck, units.Days(1))
	if err != nil {
		panic(err) // static data; unreachable
	}
	mean, err := cum.AverageBetween(0, units.Days(1))
	if err != nil {
		panic(err)
	}
	base := Ramp{Start: 380, End: 100, Span: units.Years(10)}
	return Named{Trace: Compose{Base: base, Mod: duck, ModMean: mean}, Label: "duck-decarb"}
}

// NamedTraces returns the reference traces the daemon serves, keyed by
// their Name(), in a stable order.
func NamedTraces() []Trace {
	ts := []Trace{
		PaperGrid(),
		CaliforniaDuck(),
		SolarDiurnal(),
		DecarbRamp(),
		CoalRetirement(),
		DuckDecarb(),
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Name() < ts[j].Name() })
	return ts
}
