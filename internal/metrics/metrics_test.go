package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"cordoba/internal/units"
)

func near(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		if math.Abs(got) > tol {
			t.Errorf("%s: got %v want 0", name, got)
		}
		return
	}
	if math.Abs(got-want) > tol*math.Abs(want) {
		t.Errorf("%s: got %v want %v (tol %v)", name, got, want, tol)
	}
}

func sampleReport() Report {
	return Report{
		Name:              "sample",
		Delay:             units.Time(2),
		Energy:            units.Energy(3),
		EmbodiedCarbon:    units.Carbon(10),
		OperationalCarbon: units.Carbon(5),
		Tasks:             100,
	}
}

func TestReportDerivedMetrics(t *testing.T) {
	r := sampleReport()
	near(t, "tC", r.TotalCarbon().Grams(), 15, 1e-12)
	near(t, "EDP", r.EDP(), 6, 1e-12)
	near(t, "ED2P", r.ED2P(), 12, 1e-12)
	near(t, "tCDP", r.TCDP(), 30, 1e-12)
	near(t, "tCD2P", r.TCD2P(), 60, 1e-12)
	cci, err := r.CCI()
	if err != nil {
		t.Fatalf("CCI: %v", err)
	}
	near(t, "CCI", cci.Grams(), 0.15, 1e-12)
}

func TestCCIWithoutTaskCount(t *testing.T) {
	r := sampleReport()
	r.Tasks = 0
	if _, err := r.CCI(); err == nil {
		t.Fatal("expected error for CCI with zero task count")
	}
	// Objective score must fall back to tC rather than NaN.
	if s := MinCCI.Score(r); s != 15 {
		t.Fatalf("MinCCI fallback score = %v, want 15", s)
	}
}

func TestObjectiveStrings(t *testing.T) {
	for o := MinEnergy; o <= MinTCD2P; o++ {
		if s := o.String(); s == "" || s[0] == 'O' {
			t.Errorf("objective %d has no name: %q", int(o), s)
		}
	}
	if s := Objective(99).String(); s != "Objective(99)" {
		t.Errorf("unknown objective = %q", s)
	}
	if !math.IsNaN(Objective(99).Score(sampleReport())) {
		t.Error("unknown objective should score NaN")
	}
}

func TestBestSelectsMinimum(t *testing.T) {
	best := func(o Objective, reports []Report) int {
		b, bestScore := -1, math.Inf(1)
		for i, r := range reports {
			if s := o.Score(r); s < bestScore {
				b, bestScore = i, s
			}
		}
		return b
	}
	rs := []Report{
		{Name: "slow", Delay: 10, Energy: 1, EmbodiedCarbon: 1},
		{Name: "fast", Delay: 1, Energy: 2, EmbodiedCarbon: 5},
		{Name: "mid", Delay: 3, Energy: 1.5, EmbodiedCarbon: 2},
	}
	if i := best(MinDelay, rs); rs[i].Name != "fast" {
		t.Errorf("MinDelay picked %s", rs[i].Name)
	}
	if i := best(MinEnergy, rs); rs[i].Name != "slow" {
		t.Errorf("MinEnergy picked %s", rs[i].Name)
	}
	if i := best(MinTCDP, rs); rs[i].Name != "fast" {
		// tCDP: slow=10, fast=5, mid=6.
		t.Errorf("MinTCDP picked %s", rs[i].Name)
	}
}

// ---- Table I ----

func TestTableIReproduction(t *testing.T) {
	s := EnergyScenario{CyclesPerTask: CyclesPerTask, EnergyBudget: 9.5}
	rows := s.Evaluate(PaperICs())
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	wantThroughputOne := []float64{0.2, 2, 4, 8, 16, 32}
	wantICs1000 := []float64{5000, 500, 250, 125, 62.5, 31.25}
	wantPower := []float64{0.038, 0.4, 1, 3.2, 16, 160}
	wantTotalPower := []float64{190, 200, 250, 400, 1000, 5000}
	wantEPT := []float64{0.19, 0.2, 0.25, 0.4, 1, 5}
	wantICsBudget := []float64{50, 47.5, 38, 23.75, 9.5, 1.9}
	wantThroughput := []float64{10, 95, 152, 190, 152, 60.8}
	wantEDP := []float64{0.950, 0.100, 0.063, 0.050, 0.063, 0.156}
	for i, r := range rows {
		near(t, "row4 "+r.IC.Name, r.ThroughputOne, wantThroughputOne[i], 1e-9)
		near(t, "row5 "+r.IC.Name, r.ICsFor1000, wantICs1000[i], 1e-9)
		near(t, "row6 "+r.IC.Name, r.Power.Watts(), wantPower[i], 1e-9)
		near(t, "row7 "+r.IC.Name, r.TotalPower.Watts(), wantTotalPower[i], 1e-9)
		near(t, "row8 "+r.IC.Name, r.EnergyPerTask.Joules(), wantEPT[i], 1e-9)
		near(t, "row9 "+r.IC.Name, r.ICsForBudget, wantICsBudget[i], 1e-9)
		near(t, "row10 "+r.IC.Name, r.Throughput, wantThroughput[i], 1e-9)
		near(t, "row11 "+r.IC.Name, r.EDP, wantEDP[i], 5e-2)
	}
	// IC "A" minimizes power of the 1000 inf/s system; IC "D" has the best
	// EDP and the highest fixed-budget throughput.
	minPower, maxTP, minEDP := 0, 0, 0
	for i, r := range rows {
		if r.TotalPower < rows[minPower].TotalPower {
			minPower = i
		}
		if r.Throughput > rows[maxTP].Throughput {
			maxTP = i
		}
		if r.EDP < rows[minEDP].EDP {
			minEDP = i
		}
	}
	if rows[minPower].IC.Name != "A" {
		t.Errorf("min power = %s, want A", rows[minPower].IC.Name)
	}
	if rows[maxTP].IC.Name != "D" {
		t.Errorf("max throughput = %s, want D", rows[maxTP].IC.Name)
	}
	if rows[minEDP].IC.Name != "D" {
		t.Errorf("min EDP = %s, want D", rows[minEDP].IC.Name)
	}
}

// ---- Table II ----

func TestTableIIReproduction(t *testing.T) {
	s := PaperCarbonScenario()
	rows := s.Evaluate(PaperICs())

	near(t, "carbon budget [C4]", s.CarbonBudget().Grams(), 1.003e-3, 1e-3)
	near(t, "tasks/lifetime [10]", s.TasksPerLifetime(), 1.05e8, 1e-9)

	wantTime := []float64{5, 0.5, 0.25, 0.125, 0.0625, 0.03125}
	wantCCIOp := []float64{2.01e-5, 2.11e-5, 2.64e-5, 4.22e-5, 1.056e-4, 5.28e-4}
	wantCCI := []float64{4.86e-5, 4.96e-5, 5.49e-5, 7.08e-5, 13.4e-5, 55.6e-5}
	wantTC := []float64{5108, 5219, 5774, 7438, 14096, 58480}
	wantTCDP := []float64{25541.2, 2609.6, 1443.5, 929.8, 881.0, 1827.5}
	wantThroughput := []float64{4.1, 40.4, 73.0, 113.4, 119.7, 57.7}
	for i, r := range rows {
		near(t, "time "+r.IC.Name, r.TimePerTask.Seconds(), wantTime[i], 1e-9)
		near(t, "CCIop "+r.IC.Name, r.CCIOperational.Grams(), wantCCIOp[i], 5e-3)
		near(t, "CCIemb "+r.IC.Name, r.CCIEmbodied.Grams(), 2.857e-5, 1e-3)
		near(t, "CCI "+r.IC.Name, r.CCI.Grams(), wantCCI[i], 5e-3)
		near(t, "tC "+r.IC.Name, r.TotalCarbon.Grams(), wantTC[i], 5e-3)
		near(t, "tCDP "+r.IC.Name, r.TCDP, wantTCDP[i], 5e-3)
		near(t, "throughput "+r.IC.Name, r.Throughput, wantThroughput[i], 2e-2)
	}

	// Headline claims: "E" is tCDP-optimal with the highest throughput;
	// "A" has the lowest tC (and CCI) but is the slowest.
	minTCDP, maxTP, minTC := 0, 0, 0
	for i, r := range rows {
		if r.TCDP < rows[minTCDP].TCDP {
			minTCDP = i
		}
		if r.Throughput > rows[maxTP].Throughput {
			maxTP = i
		}
		if r.TotalCarbon < rows[minTC].TotalCarbon {
			minTC = i
		}
	}
	if rows[minTCDP].IC.Name != "E" {
		t.Errorf("tCDP-optimal = %s, want E", rows[minTCDP].IC.Name)
	}
	if rows[maxTP].IC.Name != "E" {
		t.Errorf("max throughput = %s, want E", rows[maxTP].IC.Name)
	}
	if rows[minTC].IC.Name != "A" {
		t.Errorf("min tC = %s, want A", rows[minTC].IC.Name)
	}
}

// §III-B: throughput·tCDP is the same constant for every IC, i.e. throughput
// is exactly proportional to tCDP⁻¹.
func TestThroughputTCDPConstant(t *testing.T) {
	s := PaperCarbonScenario()
	rows := s.Evaluate(PaperICs())
	ref := rows[0].ThroughputTCDPProduct()
	for _, r := range rows[1:] {
		near(t, "product "+r.IC.Name, r.ThroughputTCDPProduct(), ref, 1e-9)
	}
}

// The proportionality is a mathematical identity, not a coincidence of the
// paper's numbers: check it for random scenarios and random ICs.
func TestThroughputTCDPConstantProperty(t *testing.T) {
	f := func(fGHz1, fGHz2, epc1, epc2, emb, budget uint32) bool {
		s := CarbonScenario{
			CyclesPerTask:   1e6,
			CIUse:           380,
			EmbodiedPerIC:   units.Carbon(1 + float64(emb%100000)),
			Lifetime:        units.Time(1e6),
			ServiceInterval: units.Time(0.1),
			EnergyBudget:    units.Energy(0.1 + float64(budget%1000)),
		}
		ics := []IC{
			{"x", units.GHz(0.01 + float64(fGHz1%400)/100), units.Energy(1e-9 * (1 + float64(epc1%100)))},
			{"y", units.GHz(0.01 + float64(fGHz2%400)/100), units.Energy(1e-9 * (1 + float64(epc2%100)))},
		}
		rows := s.Evaluate(ics)
		a, b := rows[0].ThroughputTCDPProduct(), rows[1].ThroughputTCDPProduct()
		return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCarbonRowReport(t *testing.T) {
	s := PaperCarbonScenario()
	rows := s.Evaluate(PaperICs())
	r := rows[4].Report(s) // IC "E"
	near(t, "report tC", r.TotalCarbon().Grams(), rows[4].TotalCarbon.Grams(), 1e-12)
	near(t, "report tCDP", r.TCDP(), rows[4].TCDP, 1e-12)
	cci, err := r.CCI()
	if err != nil {
		t.Fatalf("CCI: %v", err)
	}
	near(t, "report CCI", cci.Grams(), rows[4].CCI.Grams(), 1e-12)
}

// §III-A worked example: "IC A requires ~5% less energy than IC B, but is
// 10× slower".
func TestICAVersusB(t *testing.T) {
	ics := PaperICs()
	a, b := ics[0], ics[1]
	ratioE := a.EnergyPerTask(CyclesPerTask).Joules() / b.EnergyPerTask(CyclesPerTask).Joules()
	near(t, "energy ratio", ratioE, 0.95, 1e-9)
	ratioD := a.TimePerTask(CyclesPerTask).Seconds() / b.TimePerTask(CyclesPerTask).Seconds()
	near(t, "delay ratio", ratioD, 10, 1e-9)
}

func TestICPowerIdentity(t *testing.T) {
	// Power must equal energy-per-task divided by time-per-task.
	for _, ic := range PaperICs() {
		p := ic.EnergyPerTask(CyclesPerTask).DividedBy(ic.TimePerTask(CyclesPerTask))
		near(t, "power "+ic.Name, ic.Power().Watts(), p.Watts(), 1e-9)
	}
}
