package experiments

import (
	"fmt"
	"io"

	"cordoba/internal/accel"
	"cordoba/internal/lifecycle"
	"cordoba/internal/table"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

// AblationPoint is one setting of an ablated model constant and the DSE
// conclusions it produces on the "All kernels" task.
type AblationPoint struct {
	Setting            string
	EverOptimal        []string
	EliminatedFraction float64
	ShortTimeOptimal   string // optimal at 1e4 inferences
	LongTimeOptimal    string // optimal at 1e11 inferences
	OrderingHolds      bool   // long-time optimum embodies more than short-time
}

// Ablation sweeps one accelerator-model constant and reports how the §VI-B
// conclusions respond — the sensitivity analysis behind the calibration
// notes in DESIGN.md §5.
type Ablation struct {
	Name   string
	Points []AblationPoint
}

// ablate evaluates the All-kernels DSE under a modified parameter set.
func ablate(setting string, mutate func(*accel.Params)) (AblationPoint, error) {
	p := accel.DefaultParams()
	mutate(&p)
	grid := accel.Grid()
	for i := range grid {
		grid[i].Params = p
	}
	task, err := workload.PaperTask(workload.TaskAllKernels)
	if err != nil {
		return AblationPoint{}, err
	}
	s, err := explore(task, grid)
	if err != nil {
		return AblationPoint{}, err
	}
	short := s.Points[s.OptimalAt(1e4)]
	long := s.Points[s.OptimalAt(1e11)]
	return AblationPoint{
		Setting:            setting,
		EverOptimal:        s.IDs(s.EverOptimal()),
		EliminatedFraction: s.EliminatedFraction(),
		ShortTimeOptimal:   short.Config.ID,
		LongTimeOptimal:    long.Config.ID,
		OrderingHolds:      long.Embodied > short.Embodied,
	}, nil
}

// Ablations runs the standard sweeps: the array-saturation model, the
// spill/tiling penalty, the per-array area (embodied pricing of compute),
// and the DRAM access energy.
func Ablations() ([]Ablation, error) {
	var out []Ablation

	sat := Ablation{Name: "saturation cap (arrays)"}
	for _, cap := range []float64{8, 16, 32, 64} {
		cap := cap
		pt, err := ablate(fmt.Sprintf("cap=%g", cap), func(p *accel.Params) { p.SaturationCap = cap })
		if err != nil {
			return nil, err
		}
		sat.Points = append(sat.Points, pt)
	}
	out = append(out, sat)

	tp := Ablation{Name: "tiling penalty (spill re-read factor)"}
	for _, pen := range []float64{1, 2, 3, 5} {
		pen := pen
		pt, err := ablate(fmt.Sprintf("penalty=%g", pen), func(p *accel.Params) { p.TilingPenalty = pen })
		if err != nil {
			return nil, err
		}
		tp.Points = append(tp.Points, pt)
	}
	out = append(out, tp)

	apa := Ablation{Name: "area per MAC array (mm²)"}
	for _, a := range []float64{0.25, 0.5, 1.0, 2.0} {
		a := a
		pt, err := ablate(fmt.Sprintf("area=%gmm²", a), func(p *accel.Params) { p.AreaPerArray = units.MM2(a) })
		if err != nil {
			return nil, err
		}
		apa.Points = append(apa.Points, pt)
	}
	out = append(out, apa)

	de := Ablation{Name: "DRAM energy per byte (pJ)"}
	for _, e := range []float64{10, 30, 60} {
		e := e
		pt, err := ablate(fmt.Sprintf("dram=%gpJ/B", e), func(p *accel.Params) { p.DRAMEnergyPerByte = units.Energy(e * 1e-12) })
		if err != nil {
			return nil, err
		}
		de.Points = append(de.Points, pt)
	}
	out = append(out, de)
	return out, nil
}

// RenderAblations writes the ablation study.
func RenderAblations(w io.Writer) error {
	abl, err := Ablations()
	if err != nil {
		return err
	}
	for _, a := range abl {
		t := table.New(fmt.Sprintf("Ablation — %s (All kernels task)", a.Name),
			"setting", "eliminated", "short-time opt", "long-time opt", "ordering", "ever-optimal")
		for _, p := range a.Points {
			ord := "✓ small→large"
			if !p.OrderingHolds {
				ord = "✗ inverted"
			}
			t.AddRow(p.Setting, fmt.Sprintf("%.1f%%", 100*p.EliminatedFraction),
				p.ShortTimeOptimal, p.LongTimeOptimal, ord, fmt.Sprint(p.EverOptimal))
		}
		if err := t.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// LifetimeStudy is the §VII hardware-refresh experiment: tCDP versus refresh
// cadence for the default datacenter service.
type LifetimeStudy struct {
	Results []lifecycle.PolicyResult
	Optimal lifecycle.PolicyResult
}

// Lifetime runs the refresh-cadence study.
func Lifetime() (LifetimeStudy, error) {
	svc := lifecycle.DefaultService()
	res, err := svc.Sweep(lifecycle.DefaultPeriods())
	if err != nil {
		return LifetimeStudy{}, err
	}
	best, err := svc.Optimal(lifecycle.DefaultPeriods())
	if err != nil {
		return LifetimeStudy{}, err
	}
	return LifetimeStudy{Results: res, Optimal: best}, nil
}

// RenderLifetime writes the refresh-cadence study.
func RenderLifetime(w io.Writer) error {
	study, err := Lifetime()
	if err != nil {
		return err
	}
	t := table.New("Hardware lifetime study (§VII) — refresh cadence vs tCDP over a 10-year service",
		"refresh every", "chips", "energy", "C_embodied", "C_operational", "mean delay", "tCDP (gCO2e·s)")
	for _, r := range study.Results {
		mark := ""
		if r.Period == study.Optimal.Period {
			mark = " ★"
		}
		o := r.Outcome
		t.AddRow(fmt.Sprintf("%.0f y%s", r.Period.InYears(), mark),
			fmt.Sprint(o.Refreshes), o.Energy.String(), o.Embodied.String(),
			o.Operation.String(), o.MeanDelay.String(), table.F(o.TCDP()))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "tCDP-optimal refresh cadence: every %.0f years\n", study.Optimal.Period.InYears())
	return err
}
