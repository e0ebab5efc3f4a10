// Package metrics implements the efficiency metrics that CORDOBA compares:
// task energy, EDP, ED²P for energy-aware design, and total carbon (tC),
// Computational Carbon Intensity (CCI), tCDP and tCD²P for carbon-aware
// design (paper §III).
//
// The central object is Report, the (energy, delay, embodied carbon,
// operational carbon) tuple of one candidate design executing one task. Every
// metric is a pure function of a Report, so design-space exploration code can
// score candidates under several objectives without re-simulating.
package metrics

import (
	"fmt"
	"math"

	"cordoba/internal/units"
)

// Report captures the evaluation of one design on one computing task.
//
// Delay and Energy are per execution of the task. EmbodiedCarbon is the total
// manufacturing footprint attributed to the design over the analysis window;
// OperationalCarbon is the use-phase footprint over the same window. The
// window is whatever the caller chose (a lifetime, an amortized slice, one
// service interval) — the metrics are agnostic.
type Report struct {
	Name string

	Delay  units.Time   // execution time of the task (D)
	Energy units.Energy // energy per task execution (E_task)

	EmbodiedCarbon    units.Carbon // C_embodied over the analysis window
	OperationalCarbon units.Carbon // C_operational over the analysis window

	// Tasks is the number of task executions in the analysis window
	// (N_task). It is required for CCI; zero means "unknown".
	Tasks float64
}

// TotalCarbon returns tC = C_operational + C_embodied (paper §IV-A).
func (r Report) TotalCarbon() units.Carbon {
	return r.EmbodiedCarbon + r.OperationalCarbon
}

// EDP returns the energy-delay product in joule-seconds (equivalently,
// joules per hertz), the paper's chosen quantification of energy efficiency.
func (r Report) EDP() float64 {
	return r.Energy.Joules() * r.Delay.Seconds()
}

// ED2P returns the energy-delay² product (J·s²). §III-A explains why this is
// only meaningful under antiquated square-law MOSFET assumptions; it is
// provided so that experiments can demonstrate exactly that.
func (r Report) ED2P() float64 {
	d := r.Delay.Seconds()
	return r.Energy.Joules() * d * d
}

// TCDP returns the total-carbon-delay product in gCO2e·s (equivalently,
// gCO2e per hertz) — the paper's carbon-efficiency metric.
func (r Report) TCDP() float64 {
	return r.TotalCarbon().Grams() * r.Delay.Seconds()
}

// TCD2P returns the total-carbon-delay² product (gCO2e·s²).
func (r Report) TCD2P() float64 {
	d := r.Delay.Seconds()
	return r.TotalCarbon().Grams() * d * d
}

// CCI returns the Computational Carbon Intensity: total carbon divided by the
// number of task executions (gCO2e per task, ref. Junkyard Computing [50]).
// It returns an error when the report does not carry a task count.
func (r Report) CCI() (units.Carbon, error) {
	if r.Tasks <= 0 {
		return 0, fmt.Errorf("metrics: CCI of %q requires a positive task count, got %v", r.Name, r.Tasks)
	}
	return r.TotalCarbon() / units.Carbon(r.Tasks), nil
}

// Objective identifies an optimization target. §III-C stresses that the
// target must be derived from the application scenario; the DSE code
// therefore treats the objective as an input rather than hard-coding tCDP.
type Objective int

// Supported objectives.
const (
	MinEnergy Objective = iota // minimize E_task
	MinEDP                     // minimize energy-delay product
	MinED2P                    // minimize energy-delay² product
	MinDelay                   // minimize execution time
	MinTC                      // minimize total carbon
	MinCCI                     // minimize carbon per task
	MinTCDP                    // minimize total-carbon-delay product
	MinTCD2P                   // minimize total-carbon-delay² product
)

var objectiveNames = map[Objective]string{
	MinEnergy: "min-energy",
	MinEDP:    "min-EDP",
	MinED2P:   "min-ED2P",
	MinDelay:  "min-delay",
	MinTC:     "min-tC",
	MinCCI:    "min-CCI",
	MinTCDP:   "min-tCDP",
	MinTCD2P:  "min-tCD2P",
}

// String returns the objective's name.
func (o Objective) String() string {
	if s, ok := objectiveNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// Score returns the scalar value this objective minimizes for report r.
// Lower is always better. CCI falls back to total carbon when the report has
// no task count, matching the paper's tC = N_task·CCI proportionality.
func (o Objective) Score(r Report) float64 {
	switch o {
	case MinEnergy:
		return r.Energy.Joules()
	case MinEDP:
		return r.EDP()
	case MinED2P:
		return r.ED2P()
	case MinDelay:
		return r.Delay.Seconds()
	case MinTC:
		return r.TotalCarbon().Grams()
	case MinCCI:
		if cci, err := r.CCI(); err == nil {
			return cci.Grams()
		}
		return r.TotalCarbon().Grams()
	case MinTCDP:
		return r.TCDP()
	case MinTCD2P:
		return r.TCD2P()
	default:
		return math.NaN()
	}
}
