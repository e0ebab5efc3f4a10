package uncertainty

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"cordoba/internal/accel"
	"cordoba/internal/carbon"
	"cordoba/internal/dse"
	"cordoba/internal/grid"
	"cordoba/internal/nn"
	"cordoba/internal/pareto"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

// evalDefault evaluates configs at the paper's anchor (7 nm, coal-heavy
// fab, CI_use = 380 g/kWh).
func evalDefault(task workload.Task, configs []accel.Config) (*dse.Space, error) {
	return dse.Evaluate(context.Background(), task, configs, carbon.Process7nm(), carbon.FabCoal, 380, nil, dse.StreamOptions{})
}

// fourDesigns is a hand-built space with a known envelope: d0 (min C_emb·D),
// d2 (min E·D), d1 on the envelope between them, d3 dominated.
func fourDesigns() []Design {
	return []Design{
		{Name: "d0", Energy: 10, Delay: 1, Embodied: 1},
		{Name: "d1", Energy: 4, Delay: 1, Embodied: 4},
		{Name: "d2", Energy: 1, Delay: 1, Embodied: 20},
		{Name: "d3", Energy: 8, Delay: 1, Embodied: 10},
	}
}

func TestDerivedQuantities(t *testing.T) {
	d := Design{Name: "d", Energy: 6, Delay: 2, Embodied: 5}
	if d.EDP() != 12 || d.EmbodiedDelay() != 10 {
		t.Fatalf("EDP=%v EmbD=%v", d.EDP(), d.EmbodiedDelay())
	}
	if d.Power() != 3 {
		t.Fatalf("power = %v", d.Power())
	}
}

func TestSurvivorsAndEliminated(t *testing.T) {
	ds := fourDesigns()
	surv := Survivors(ds)
	want := map[int]bool{0: true, 1: true, 2: true}
	if len(surv) != 3 {
		t.Fatalf("survivors = %v, want {0,1,2}", surv)
	}
	for _, i := range surv {
		if !want[i] {
			t.Errorf("unexpected survivor %d", i)
		}
	}
}

// betaSweep minimizes eq. IV.9, C_emb·D + β·E·D, at each β and returns the
// winning design indices: the brute-force oracle for the envelope Survivors
// computes.
func betaSweep(designs []Design, betas []float64) []int {
	pts := toPoints(designs)
	out := make([]int, len(betas))
	for i, b := range betas {
		out[i] = pareto.ArgminLinear(pts, b)
	}
	return out
}

// logBetas returns k multipliers log-spaced over [lo, hi], plus β = 0.
func logBetas(lo, hi float64, k int) []float64 {
	return append([]float64{0}, dse.LogSpace(lo, hi, k)...)
}

func TestBetaSweepEndpoints(t *testing.T) {
	ds := fourDesigns()
	res := betaSweep(ds, []float64{0, 1e9})
	if ds[res[0]].Name != "d0" {
		t.Errorf("β=0 winner = %s, want d0 (min C_emb·D)", ds[res[0]].Name)
	}
	if ds[res[1]].Name != "d2" {
		t.Errorf("β→∞ winner = %s, want d2 (min E·D)", ds[res[1]].Name)
	}
}

func TestBetaSweepCoversSurvivors(t *testing.T) {
	ds := fourDesigns()
	winners := map[int]bool{}
	for _, w := range betaSweep(ds, logBetas(1e-6, 1e6, 200)) {
		winners[w] = true
	}
	for _, s := range Survivors(ds) {
		if !winners[s] {
			t.Errorf("survivor %d never won the β sweep", s)
		}
	}
	if winners[3] {
		t.Error("eliminated design won the β sweep")
	}
}

func TestLogBetasIncludesZero(t *testing.T) {
	bs := logBetas(0.01, 100, 5)
	if bs[0] != 0 {
		t.Fatal("first β must be 0")
	}
	if len(bs) != 6 {
		t.Fatalf("len = %d", len(bs))
	}
}

// tcdpUnderTrace is TCDPUnderCumulative on a trace's prefix integral.
func tcdpUnderTrace(d Design, tr grid.Trace, life units.Time) (float64, error) {
	cum, err := grid.NewCumulative(tr, life)
	if err != nil {
		return 0, err
	}
	return TCDPUnderCumulative(d, cum, life)
}

func TestTCDPUnderConstantTraceMatchesClosedForm(t *testing.T) {
	d := Design{Name: "d", Energy: units.Energy(10), Delay: 2, Embodied: 100}
	// Constant CI: C_op = CI·P·life; P = 5 W.
	life := units.Hours(10)
	got, err := tcdpUnderTrace(d, grid.Constant{Intensity: 380}, life)
	if err != nil {
		t.Fatal(err)
	}
	op := units.CarbonIntensity(380).Of(units.Power(5).Over(life))
	want := (100 + op.Grams()) * 2
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("tCDP = %v, want %v", got, want)
	}
}

func TestTCDPUnderTraceErrors(t *testing.T) {
	bad := Design{Name: "bad", Energy: 1, Delay: 0, Embodied: 1}
	if _, err := tcdpUnderTrace(bad, grid.Constant{Intensity: 1}, 1); err == nil {
		t.Error("zero delay should error")
	}
	d := Design{Name: "d", Energy: 1, Delay: 1, Embodied: 1}
	if _, err := tcdpUnderTrace(d, grid.Constant{Intensity: 1}, -1); err == nil {
		t.Error("negative lifetime should propagate")
	}
	if _, err := OptimalUnderTrace(nil, grid.Constant{Intensity: 1}, 1, 10); err == nil {
		t.Error("empty design list should error")
	}
	if _, err := OptimalUnderTrace([]Design{bad}, grid.Constant{Intensity: 1}, 1, 10); err == nil {
		t.Error("bad design should propagate")
	}
}

// §IV-B theorem, validated empirically: under ANY CI_use(t) trace and any
// lifetime, the fixed-time tCDP-optimal design is a member of the
// fixed-time survivor set. The designs deliberately have distinct delays so
// that the fixed-time plane (E, C_emb·D) differs from the fixed-work plane.
func TestOptimalUnderAnyTraceIsSurvivor(t *testing.T) {
	ds := []Design{
		{Name: "d0", Energy: 10, Delay: 0.5, Embodied: 2},
		{Name: "d1", Energy: 4, Delay: 1, Embodied: 4},
		{Name: "d2", Energy: 1, Delay: 3, Embodied: 20},
		{Name: "d3", Energy: 8, Delay: 2, Embodied: 10},
		{Name: "d4", Energy: 2, Delay: 1.2, Embodied: 9},
	}
	surv := map[int]bool{}
	for _, i := range SurvivorsFixedTime(ds) {
		surv[i] = true
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		var tr grid.Trace
		switch trial % 4 {
		case 0:
			tr = grid.Constant{Intensity: units.CarbonIntensity(rng.Float64() * 900)}
		case 1:
			m := rng.Float64() * 500
			tr = grid.Diurnal{Mean: units.CarbonIntensity(m), Swing: units.CarbonIntensity(rng.Float64() * m)}
		case 2:
			tr = grid.Ramp{
				Start: units.CarbonIntensity(rng.Float64() * 900),
				End:   units.CarbonIntensity(rng.Float64() * 900),
				Span:  units.Years(1 + rng.Float64()*9),
			}
		default:
			s, _ := grid.NewStep(
				[]units.Time{units.Years(1), units.Years(3)},
				[]units.CarbonIntensity{
					units.CarbonIntensity(rng.Float64() * 900),
					units.CarbonIntensity(rng.Float64() * 900),
					units.CarbonIntensity(rng.Float64() * 900),
				})
			tr = s
		}
		life := units.Hours(1 + rng.Float64()*1e5)
		opt, err := OptimalUnderTrace(ds, tr, life, 400)
		if err != nil {
			t.Fatal(err)
		}
		if !surv[opt] {
			t.Fatalf("trial %d (%s): optimal design %s not a survivor", trial, tr.Name(), ds[opt].Name)
		}
	}
}

// Fig. 12: of the seven §VI-E configurations running SR 512×512, the
// baseline and most 3D variants can never be tCDP-optimal; the survivors
// are a small subset of 2K-MAC stacked designs.
func TestFig12StackedSurvivors(t *testing.T) {
	task := workload.Task{Name: "SR512", Calls: map[nn.KernelID]float64{nn.SR512: 1}}
	space, err := evalDefault(task, accel.Stacked3D())
	if err != nil {
		t.Fatal(err)
	}
	ds := FromDSE(space)
	surv := Survivors(ds)
	if len(surv) > 4 {
		t.Errorf("too many survivors: %d of 7", len(surv))
	}
	names := map[string]bool{}
	for _, i := range surv {
		names[ds[i].Name] = true
	}
	if names[accel.Baseline1K1M] {
		t.Error("the 2D baseline should be eliminated (paper Fig. 12)")
	}
	// The paper's survivors are {3D_2K_4M, 3D_2K_8M}; the calibrated model
	// yields {3D_1K_4M, 3D_1K_8M, 3D_2K_16M} (see EXPERIMENTS.md). The
	// shared qualitative result: every survivor is a 3D-stacked design with
	// ≥ 4 MB of stacked activation memory, and a majority of the seven
	// configurations is eliminated without knowing CI_use(t).
	if len(surv) < 2 {
		t.Errorf("expected at least two survivors, got %v", surv)
	}
	for _, i := range surv {
		d := ds[i]
		cfg := configByID(t, d.Name)
		if !cfg.Is3D {
			t.Errorf("survivor %s should be 3D-stacked", d.Name)
		}
		if cfg.SRAM.InMB() < 4 {
			t.Errorf("survivor %s should stack ≥ 4 MB, has %v MB", d.Name, cfg.SRAM.InMB())
		}
	}
	if len(ds)-len(surv) < 4 {
		t.Errorf("a majority should be eliminated: %d of %d survive", len(surv), len(ds))
	}
}

func configByID(t *testing.T, id string) accel.Config {
	t.Helper()
	for _, c := range accel.Stacked3D() {
		if c.ID == id {
			return c
		}
	}
	t.Fatalf("unknown stacked config %q", id)
	return accel.Config{}
}

func TestFromDSE(t *testing.T) {
	task, _ := workload.PaperTask(workload.TaskAI5)
	space, err := evalDefault(task, accel.Grid()[:5])
	if err != nil {
		t.Fatal(err)
	}
	ds := FromDSE(space)
	if len(ds) != 5 {
		t.Fatalf("len = %d", len(ds))
	}
	for i, d := range ds {
		p := space.Points[i]
		if d.Name != p.Config.ID || d.Energy != p.Energy || d.Delay != p.Delay || d.Embodied != p.Embodied {
			t.Errorf("design %d does not mirror point", i)
		}
	}
}

// §VI-C: Monte Carlo over opaque carbon-accounting parameters — a uniform
// CI_use and a multiplicative band on embodied carbon (unknown CI_fab, EPA,
// MPA, GPA). tCDP = (s·C_emb + CI·n·E)·D is s times eq. IV.9 at β = CI·n/s,
// so every sampled winner is a survivor and the dominated design never wins.
func TestMonteCarloBasics(t *testing.T) {
	ds := fourDesigns()
	surv := map[int]bool{}
	for _, i := range Survivors(ds) {
		surv[i] = true
	}
	const n = 1e3
	rng := rand.New(rand.NewSource(42))
	wins := make([]int, len(ds))
	for trial := 0; trial < 2000; trial++ {
		ci := units.CarbonIntensity(10 + rng.Float64()*790)
		scale := units.Carbon(0.7 + rng.Float64()*0.8)
		best, bestV := -1, math.Inf(1)
		for i, d := range ds {
			v := (scale*d.Embodied + ci.Of(d.Energy*n)).Grams() * d.Delay.Seconds()
			if v < bestV {
				best, bestV = i, v
			}
		}
		if !surv[best] {
			t.Fatalf("trial %d: winner %s is not a survivor", trial, ds[best].Name)
		}
		wins[best]++
	}
	if wins[3] != 0 {
		t.Errorf("dominated design won %d trials", wins[3])
	}
}
