package carbon

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

func TestProcess7nmMatchesTableIII(t *testing.T) {
	p := Process7nm()
	near(t, "EPA", p.EPA, 2.15, 1e-12)
	near(t, "GPA", p.GPA.Grams(), 300, 1e-12)
	near(t, "MPA", p.MPA.Grams(), 500, 1e-12)
	near(t, "CI_fab", FabCoal.CI.GramsPerKWh(), 820, 1e-12)
}

func TestProcessesMonotone(t *testing.T) {
	ps := Processes()
	for i := 1; i < len(ps); i++ {
		if ps[i].Nm >= ps[i-1].Nm {
			t.Errorf("nodes out of order at %s", ps[i].Node)
		}
		if ps[i].EPA <= ps[i-1].EPA {
			t.Errorf("%s: EPA should rise as nodes advance", ps[i].Node)
		}
		if ps[i].MPA <= ps[i-1].MPA {
			t.Errorf("%s: MPA should rise as nodes advance", ps[i].Node)
		}
		if ps[i].GPA <= ps[i-1].GPA {
			t.Errorf("%s: GPA should rise as nodes advance", ps[i].Node)
		}
	}
}

func TestProcessByName(t *testing.T) {
	if _, err := ProcessByName("7nm"); err != nil {
		t.Fatal(err)
	}
	if _, err := ProcessByName("1nm"); err == nil {
		t.Fatal("expected error for unknown node")
	}
}

func TestEmbodiedDieEquationIV5(t *testing.T) {
	// Hand-computed eq. IV.5 at the Table III anchor:
	// (820·2.15 + 500 + 300) · 2.25 / 0.98 = 2563 · 2.2959 = 5884.6 g.
	p := Process7nm()
	got, err := p.EmbodiedDie(FabCoal, units.Area(2.25), 0.98)
	if err != nil {
		t.Fatal(err)
	}
	want := (820*2.15 + 500 + 300) * 2.25 / 0.98
	near(t, "C_embodied", got.Grams(), want, 1e-12)
}

func TestEmbodiedDieValidation(t *testing.T) {
	p := Process7nm()
	if _, err := p.EmbodiedDie(FabCoal, 1, 0); err == nil {
		t.Error("yield 0 should error")
	}
	if _, err := p.EmbodiedDie(FabCoal, 1, 1.2); err == nil {
		t.Error("yield >1 should error")
	}
	if _, err := p.EmbodiedDie(FabCoal, -1, 0.9); err == nil {
		t.Error("negative area should error")
	}
}

func TestEmbodiedScalesWithFabCI(t *testing.T) {
	p := Process7nm()
	coal, _ := p.EmbodiedDie(FabCoal, 1, 1)
	ren, _ := p.EmbodiedDie(FabRenewable, 1, 1)
	if ren >= coal {
		t.Errorf("renewable fab (%v) should beat coal fab (%v)", ren, coal)
	}
	// Even a zero-carbon grid leaves the GPA+MPA floor.
	if ren.Grams() < (p.GPA + p.MPA).Grams() {
		t.Errorf("embodied %v below the materials+gases floor", ren)
	}
}

func TestOperational(t *testing.T) {
	// Table V: 332 J per task at 380 g/kWh.
	c := Operational(380, 332)
	near(t, "C_op", c.Grams(), 380*332/3.6e6, 1e-12)
}

// ---- yield models ----

func TestYieldModelsAtZeroDefects(t *testing.T) {
	for _, m := range YieldModels() {
		if y := m.Yield(1, 0); y != 1 {
			t.Errorf("%s: yield at zero defects = %v, want 1", m.Name(), y)
		}
		if m.Name() == "" {
			t.Error("empty model name")
		}
	}
}

func TestYieldModelsDecreasingInArea(t *testing.T) {
	for _, m := range YieldModels() {
		prev := 1.0
		for _, a := range []float64{0.1, 0.5, 1, 2, 5} {
			y := m.Yield(units.Area(a), 0.1)
			if y > prev {
				t.Errorf("%s: yield increased at area %v", m.Name(), a)
			}
			if y <= 0 || y > 1 {
				t.Errorf("%s: yield out of range: %v", m.Name(), y)
			}
			prev = y
		}
	}
}

// Known ordering at moderate AD: Poisson is most pessimistic, Seeds most
// optimistic, Murphy in between.
func TestYieldModelOrdering(t *testing.T) {
	a, d := units.Area(1.0), 0.5
	poisson := PoissonYield{}.Yield(a, d)
	murphy := MurphyYield{}.Yield(a, d)
	seeds := SeedsYield{}.Yield(a, d)
	if !(poisson < murphy && murphy < seeds) {
		t.Errorf("ordering violated: poisson=%v murphy=%v seeds=%v", poisson, murphy, seeds)
	}
}

func TestMurphyKnownValue(t *testing.T) {
	// AD=1: ((1-e^-1)/1)² = 0.39958.
	near(t, "murphy(AD=1)", MurphyYield{}.Yield(1, 1), 0.39958, 1e-4)
}

// Regression: (1−e^{−AD})/AD in plain float64 cancels catastrophically as
// AD→0 and could round above 1. The series path must keep the yield in
// (0, 1], strictly below 1 for any positive AD, and continuous across the
// series/expm1 switchover.
func TestMurphyTinyADNoCancellation(t *testing.T) {
	m := MurphyYield{}
	prev := 1.0
	for _, ad := range []float64{1e-18, 1e-15, 1e-12, 1e-9, 1e-6, 1e-4, 1.0000001e-4, 1e-3, 1e-2} {
		y := m.Yield(units.Area(ad), 1)
		if y > 1 || y <= 0 || math.IsNaN(y) {
			t.Fatalf("AD=%g: yield %v out of (0,1]", ad, y)
		}
		if y > prev {
			t.Errorf("AD=%g: yield %v increased from %v", ad, y, prev)
		}
		// First-order check: Y ≈ 1 − AD for small AD.
		if want := 1 - ad; math.Abs(y-want) > 1e-8*want+ad*ad {
			t.Errorf("AD=%g: yield %v, want ≈ %v", ad, y, want)
		}
		prev = y
	}
	// Continuity at the switchover: both branches agree to near rounding.
	lo, hi := m.Yield(units.Area(math.Nextafter(1e-4, 0)), 1), m.Yield(units.Area(1e-4), 1)
	if math.Abs(lo-hi) > 1e-12 {
		t.Errorf("discontinuity at series switchover: %v vs %v", lo, hi)
	}
}

// Regression: Pow(1+AD, −n) evaluates 1+AD first and returns exactly 1 for
// AD below the rounding threshold even with many critical layers; the
// Log1p path must stay strictly below 1.
func TestBoseEinsteinTinyAD(t *testing.T) {
	b := BoseEinsteinYield{CriticalLayers: 10}
	// 1+AD rounds to exactly 1 for AD ≤ 1e-16, so Pow(1+AD, −n) would
	// return 1 at the first value; n·AD is still representable below 1.
	for _, ad := range []float64{1e-16, 1e-14, 1e-10} {
		y := b.Yield(units.Area(ad), 1)
		if !(y < 1) || y <= 0 {
			t.Errorf("AD=%g: yield %v, want strictly inside (0,1)", ad, y)
		}
		// Y = e^{−n·log1p(AD)} ≈ 1 − n·AD for tiny AD.
		if want := 1 - 10*ad; math.Abs(y-want) > 1e-12 {
			t.Errorf("AD=%g: yield %v, want ≈ %v", ad, y, want)
		}
	}
}

func TestBoseEinsteinLayers(t *testing.T) {
	b1 := BoseEinsteinYield{CriticalLayers: 1}
	b5 := BoseEinsteinYield{CriticalLayers: 5}
	if b5.Yield(1, 0.5) >= b1.Yield(1, 0.5) {
		t.Error("more critical layers should reduce yield")
	}
	// n<1 clamps to 1 rather than inflating yield.
	b0 := BoseEinsteinYield{CriticalLayers: 0}
	near(t, "clamped n", b0.Yield(1, 0.5), b1.Yield(1, 0.5), 1e-12)
	// Seeds is the n=1 special case.
	near(t, "seeds equivalence", b1.Yield(2, 0.3), SeedsYield{}.Yield(2, 0.3), 1e-12)
}

// Property: all yields are within (0, 1] for any positive area and density.
func TestYieldRangeProperty(t *testing.T) {
	f := func(a, d uint16) bool {
		area := units.Area(0.01 + float64(a%500)/100)
		dd := float64(d%300) / 100
		for _, m := range YieldModels() {
			y := m.Yield(area, dd)
			if y <= 0 || y > 1 || math.IsNaN(y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// ---- wafer / die placement ----

func TestGrossDies(t *testing.T) {
	// 1 cm² dies on a 300 mm wafer: π·225/1 − π·30/√2 = 706.9 − 66.6 ≈ 640.
	g, err := Wafer300mm.GrossDies(1)
	if err != nil {
		t.Fatal(err)
	}
	near(t, "gross dies", g, 640, 1e-2)
	if g != math.Floor(g) {
		t.Error("gross dies should be an integer count")
	}
}

func TestGrossDiesErrors(t *testing.T) {
	if _, err := Wafer300mm.GrossDies(0); err == nil {
		t.Error("zero area should error")
	}
	// A die bigger than the wafer yields zero.
	g, err := Wafer300mm.GrossDies(1000)
	if err != nil || g != 0 {
		t.Errorf("huge die: g=%v err=%v", g, err)
	}
}

func TestGoodDiesAndPerDieEmbodied(t *testing.T) {
	p := Process7nm()
	good, err := Wafer300mm.GoodDies(1, MurphyYield{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	gross, _ := Wafer300mm.GrossDies(1)
	if good >= gross || good <= 0 {
		t.Errorf("good dies %v should be within (0, %v)", good, gross)
	}
	perDie, err := Wafer300mm.EmbodiedPerGoodDie(p, FabCoal, 1, MurphyYield{})
	if err != nil {
		t.Fatal(err)
	}
	// Per-die embodied must exceed the yield-free per-area cost because the
	// whole wafer (including edge waste and bad dies) is amortized.
	floor := p.CarbonPerArea(FabCoal)
	if perDie <= floor {
		t.Errorf("per-good-die %v should exceed per-area floor %v", perDie, floor)
	}
	if _, err := Wafer300mm.EmbodiedPerGoodDie(p, FabCoal, 1000, MurphyYield{}); err == nil {
		t.Error("un-manufacturable die should error")
	}
}

// Property: larger dies always cost more embodied carbon per good die.
func TestPerGoodDieMonotoneProperty(t *testing.T) {
	p := Process7nm()
	f := func(a, b uint8) bool {
		a1 := 0.2 + 3*float64(a)/255
		a2 := 0.2 + 3*float64(b)/255
		lo, hi := math.Min(a1, a2), math.Max(a1, a2)
		if hi-lo < 1e-6 {
			return true
		}
		cLo, err1 := Wafer300mm.EmbodiedPerGoodDie(p, FabCoal, units.Area(lo), MurphyYield{})
		cHi, err2 := Wafer300mm.EmbodiedPerGoodDie(p, FabCoal, units.Area(hi), MurphyYield{})
		return err1 == nil && err2 == nil && cLo < cHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// ---- memory & packaging ----

func TestEmbodiedMemory(t *testing.T) {
	d, err := EmbodiedMemory(DRAM, 16)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Error("DRAM footprint should be positive")
	}
	h, _ := EmbodiedMemory(HBM, 16)
	n, _ := EmbodiedMemory(NANDFlash, 16)
	hd, _ := EmbodiedMemory(HDD, 16)
	if !(h > d && d > n && n > hd) {
		t.Errorf("expected HBM > DRAM > NAND > HDD per GB: %v %v %v %v", h, d, n, hd)
	}
	if _, err := EmbodiedMemory(MemoryKind(99), 1); err == nil {
		t.Error("unknown kind should error")
	}
	if _, err := EmbodiedMemory(DRAM, -1); err == nil {
		t.Error("negative capacity should error")
	}
	if MemoryKind(99).String() != "MemoryKind(99)" {
		t.Error("unknown kind String")
	}
	for k := DRAM; k <= HDD; k++ {
		if k.String() == "" {
			t.Error("empty kind name")
		}
	}
}

func TestPackagingAssembly(t *testing.T) {
	pkg := Packaging{PerDie: 150, PerBond: 30}
	c1, err := pkg.Assembly(1)
	if err != nil {
		t.Fatal(err)
	}
	near(t, "single die", c1.Grams(), pkg.PerDie.Grams(), 1e-12)
	c5, _ := pkg.Assembly(5)
	want := pkg.PerDie + 4*pkg.PerBond
	near(t, "5-die stack", c5.Grams(), want.Grams(), 1e-12)
	if _, err := pkg.Assembly(0); err == nil {
		t.Error("0-die package should error")
	}
}
