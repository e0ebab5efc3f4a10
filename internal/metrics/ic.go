package metrics

import (
	"cordoba/internal/units"
)

// IC is one of the candidate integrated circuits of paper Tables I–II and
// Figs. 2–3: a design characterized entirely by its clock frequency and its
// average energy per clock cycle.
type IC struct {
	Name           string
	Clock          units.Frequency
	EnergyPerCycle units.Energy
}

// CyclesPerTask is the fixed work per inference assumed in §III: 100 million
// clock cycles.
const CyclesPerTask = 100e6

// PaperICs returns the six candidate ICs "A" through "F" from Table I.
func PaperICs() []IC {
	return []IC{
		{"A", units.GHz(0.02), units.Energy(1.9e-9)},
		{"B", units.GHz(0.20), units.Energy(2.0e-9)},
		{"C", units.GHz(0.40), units.Energy(2.5e-9)},
		{"D", units.GHz(0.80), units.Energy(4.0e-9)},
		{"E", units.GHz(1.6), units.Energy(10e-9)},
		{"F", units.GHz(3.2), units.Energy(50e-9)},
	}
}

// TimePerTask returns the execution time of one task of `cycles` cycles
// (Table II row [4]).
func (ic IC) TimePerTask(cycles float64) units.Time {
	return units.Time(cycles / ic.Clock.Hertz())
}

// EnergyPerTask returns the energy of one task of `cycles` cycles
// (Table I row [8]).
func (ic IC) EnergyPerTask(cycles float64) units.Energy {
	return ic.EnergyPerCycle * units.Energy(cycles)
}

// Power returns the IC's power draw while running (Table I row [6]).
func (ic IC) Power() units.Power {
	return units.Power(ic.EnergyPerCycle.Joules() * ic.Clock.Hertz())
}

// Throughput returns tasks per second for one IC instance (Table I row [4]).
func (ic IC) Throughput(cycles float64) float64 {
	return ic.Clock.Hertz() / cycles
}

// EDP returns energy-delay product for one task (Table I row [11]).
func (ic IC) EDP(cycles float64) float64 {
	return ic.EnergyPerTask(cycles).Joules() * ic.TimePerTask(cycles).Seconds()
}

// EnergyScenario is the §III-A design problem: given a fixed energy budget
// per service interval, choose the IC maximizing task throughput by running
// copies in parallel.
type EnergyScenario struct {
	CyclesPerTask float64
	EnergyBudget  units.Energy // budget per service interval (9.5 J in Table I)
}

// EnergyRow is one column of Table I for a candidate IC.
type EnergyRow struct {
	IC            IC
	ThroughputOne float64      // row [4]: inf/s of one instance
	ICsFor1000    float64      // row [5]: instances to sustain 1000 inf/s
	Power         units.Power  // row [6]
	TotalPower    units.Power  // row [7]: power of the 1000 inf/s system
	EnergyPerTask units.Energy // row [8]
	ICsForBudget  float64      // row [9]: instances affordable under the energy budget
	Throughput    float64      // row [10]: total inf/s of those instances
	EDP           float64      // row [11]
}

// Evaluate computes the full Table I analysis for each candidate.
func (s EnergyScenario) Evaluate(ics []IC) []EnergyRow {
	rows := make([]EnergyRow, len(ics))
	for i, ic := range ics {
		tp := ic.Throughput(s.CyclesPerTask)
		ept := ic.EnergyPerTask(s.CyclesPerTask)
		n := s.EnergyBudget.Joules() / ept.Joules()
		rows[i] = EnergyRow{
			IC:            ic,
			ThroughputOne: tp,
			ICsFor1000:    1000 / tp,
			Power:         ic.Power(),
			TotalPower:    units.Power(1000 / tp * ic.Power().Watts()),
			EnergyPerTask: ept,
			ICsForBudget:  n,
			Throughput:    n * tp,
			EDP:           ic.EDP(s.CyclesPerTask),
		}
	}
	return rows
}

// CarbonScenario is the §III-B design problem: a fixed *carbon* budget is
// allocated per service interval; each IC instance also carries embodied
// carbon amortized over the hardware lifetime. Choose the IC maximizing task
// throughput (Table II).
type CarbonScenario struct {
	CyclesPerTask   float64
	CIUse           units.CarbonIntensity // row [5]: 380 g/kWh
	EmbodiedPerIC   units.Carbon          // row [6]: 3000 g
	Lifetime        units.Time            // row [7]: 1.05e7 s
	ServiceInterval units.Time            // row [C1]: 0.1 s
	EnergyBudget    units.Energy          // row [C2]: 9.5 J per service interval
}

// PaperCarbonScenario returns the exact scenario of Table II.
func PaperCarbonScenario() CarbonScenario {
	return CarbonScenario{
		CyclesPerTask:   CyclesPerTask,
		CIUse:           380,
		EmbodiedPerIC:   3000,
		Lifetime:        units.Time(1.05e7),
		ServiceInterval: units.Time(0.1),
		EnergyBudget:    units.Energy(9.5),
	}
}

// CarbonBudget returns the per-service-interval carbon budget, row [C4]:
// the energy budget converted through CI_use (1.003e-3 g for the paper's
// parameters).
func (s CarbonScenario) CarbonBudget() units.Carbon {
	return s.CIUse.Of(s.EnergyBudget)
}

// TasksPerLifetime returns row [10]: one task per service interval for the
// whole lifetime.
func (s CarbonScenario) TasksPerLifetime() float64 {
	return s.Lifetime.Seconds() / s.ServiceInterval.Seconds()
}

// CarbonRow is one column of Table II for a candidate IC.
type CarbonRow struct {
	IC             IC
	TimePerTask    units.Time   // row [4]
	EnergyPerTask  units.Energy // row [11]
	CCIOperational units.Carbon // row [13]: g CO2e per task, use phase
	CCIEmbodied    units.Carbon // row [14]: g CO2e per task, embodied
	CCI            units.Carbon // row [15]
	ICsForBudget   float64      // row [16] before rounding
	Throughput     float64      // row [17]: tasks per second in a service interval
	TotalCarbon    units.Carbon // row [18]: lifetime tC of one instance
	TCDP           float64      // row [19]: tC·D, gCO2e·s
}

// Report converts the row into a generic metrics.Report over the lifetime
// analysis window of a single IC instance.
func (r CarbonRow) Report(s CarbonScenario) Report {
	return Report{
		Name:              r.IC.Name,
		Delay:             r.TimePerTask,
		Energy:            r.EnergyPerTask,
		EmbodiedCarbon:    s.EmbodiedPerIC,
		OperationalCarbon: r.TotalCarbon - s.EmbodiedPerIC,
		Tasks:             s.TasksPerLifetime(),
	}
}

// Evaluate computes the full Table II analysis for each candidate.
func (s CarbonScenario) Evaluate(ics []IC) []CarbonRow {
	nTasks := s.TasksPerLifetime()
	budget := s.CarbonBudget()
	rows := make([]CarbonRow, len(ics))
	for i, ic := range ics {
		ept := ic.EnergyPerTask(s.CyclesPerTask)
		cciOp := s.CIUse.Of(ept)
		cciEmb := s.EmbodiedPerIC / units.Carbon(nTasks)
		cci := cciOp + cciEmb
		n := budget.Grams() / cci.Grams()
		tpt := ic.TimePerTask(s.CyclesPerTask)
		tc := units.Carbon(nTasks)*cciOp + s.EmbodiedPerIC
		rows[i] = CarbonRow{
			IC:             ic,
			TimePerTask:    tpt,
			EnergyPerTask:  ept,
			CCIOperational: cciOp,
			CCIEmbodied:    cciEmb,
			CCI:            cci,
			ICsForBudget:   n,
			Throughput:     n / tpt.Seconds(),
			TotalCarbon:    tc,
			TCDP:           tc.Grams() * tpt.Seconds(),
		}
	}
	return rows
}

// ThroughputTCDPProduct returns throughput·tCDP for a row. §III-B observes
// this product is the same constant for every IC — relative throughput is
// precisely quantified by relative tCDP (throughput ∝ tCDP⁻¹).
func (r CarbonRow) ThroughputTCDPProduct() float64 {
	return r.Throughput * r.TCDP
}
