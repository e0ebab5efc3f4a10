package soc

import (
	"math"
	"testing"

	"cordoba/internal/carbon"
	"cordoba/internal/units"
)

// deriveCoreEmbodied recomputes the per-core embodied constants through the
// ACT backend instead of the checked-in Table V literals: the whole 8-core
// SoC die is priced at the paper's anchor point (7 nm, coal-heavy fab), and
// each core class is charged its area share of the silicon footprint — dies
// are scrapped whole, so core slices inherit the die-level yield derating.
func deriveCoreEmbodied(s SoC) (gold, silver units.Carbon, err error) {
	die := s.Area(Provision{Gold: 4, Silver: 4})
	spec := carbon.DesignSpec{
		Name: "xr2-soc",
		Fab:  carbon.FabCoal,
		Dies: []carbon.DieSpec{{Name: "soc", Area: die, Process: carbon.Process7nm()}},
	}
	bd, err := carbon.DefaultModel().EmbodiedDesign(spec)
	if err != nil {
		return 0, 0, err
	}
	share := func(a units.Area) units.Carbon {
		return units.Carbon(bd.Total.Grams() * a.CM2() / die.CM2())
	}
	return share(s.GoldArea), share(s.SilverArea), nil
}

// The Table V per-core embodied literals (895.89 / 447.945 gCO2e) must stay
// consistent with what the ACT backend derives for the same die at the
// paper's anchor point — otherwise internal/soc silently drifts from
// internal/carbon when either side is recalibrated.
func TestTableVCoresMatchACTDerivation(t *testing.T) {
	s := Quest2()
	gold, silver, err := deriveCoreEmbodied(s)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 0.10 // Table V rounds its inputs; hold to 10%
	if rel := math.Abs(gold.Grams()-s.GoldEmbodied.Grams()) / s.GoldEmbodied.Grams(); rel > tol {
		t.Errorf("derived gold core = %.2f g, Table V = %.2f g (off by %.1f%%)",
			gold.Grams(), s.GoldEmbodied.Grams(), 100*rel)
	}
	if rel := math.Abs(silver.Grams()-s.SilverEmbodied.Grams()) / s.SilverEmbodied.Grams(); rel > tol {
		t.Errorf("derived silver core = %.2f g, Table V = %.2f g (off by %.1f%%)",
			silver.Grams(), s.SilverEmbodied.Grams(), 100*rel)
	}
	// The silver/gold area ratio is exactly 1/2, so the derived constants
	// must preserve Table V's silver = gold/2 relation exactly.
	if got, want := silver.Grams(), gold.Grams()/2; math.Abs(got-want) > 1e-9*want {
		t.Errorf("derived silver %v != derived gold/2 %v", got, want)
	}
}
