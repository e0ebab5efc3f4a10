package experiments

import (
	"fmt"
	"io"
	"math"

	"cordoba/internal/accel"
	"cordoba/internal/carbon"
	"cordoba/internal/device"
	"cordoba/internal/table"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

// ---- Figure 6 ----

// DomainSpace is one of the Fig. 6 computing domains with its synthetic
// design space.
type DomainSpace struct {
	Name          string
	EmbodiedShare float64 // target mean embodied fraction of total carbon
	EDP           []float64
	TCDP          []float64
	// Correlation is Pearson correlation of log EDP vs log tCDP.
	Correlation float64
	// MaxSpreadAtEqualEDP is the largest tCDP ratio between two designs
	// whose EDPs differ by less than 10 %.
	MaxSpreadAtEqualEDP float64
}

// domainConfig parameterizes the synthetic generator for one domain. The
// embodied shares follow the paper's Fig. 6 caption: ~95 % for
// microcontrollers/wearables [3], 72 % for mobile [2], 50 % for servers [21].
type domainConfig struct {
	name       string
	gates      float64
	cycles     float64
	nodes      []string
	share      float64
	ciUse      units.CarbonIntensity
	vddScales  []float64
	widthScale []float64
	// overProvision is the dark-silicon dimension: the factor by which the
	// die is larger than the logic the task exercises. Wearables and MCUs
	// carry extreme dark silicon [9]; datacenter parts run hot and utilized.
	overProvision []float64
}

func fig6Domains() []domainConfig {
	return []domainConfig{
		{"wearable", 5e5, 1e7, []string{"28nm", "14nm", "7nm"}, 0.95, 380,
			[]float64{0.8, 0.9, 1.0, 1.15}, []float64{0.7, 1.0, 1.4},
			[]float64{1, 4, 16, 64, 128}},
		{"mobile", 5e7, 1e10, []string{"14nm", "10nm", "7nm", "5nm"}, 0.72, 380,
			[]float64{0.8, 0.9, 1.0, 1.15}, []float64{0.7, 1.0, 1.4},
			[]float64{1, 2, 4, 8}},
		{"datacenter", 1e9, 1e13, []string{"10nm", "7nm", "5nm", "3nm"}, 0.50, 380,
			[]float64{0.8, 0.9, 1.0, 1.15}, []float64{0.7, 1.0, 1.4},
			[]float64{1, 1.5, 2}},
	}
}

// Figure6 generates the three domain design spaces and their EDP–tCDP
// relationships.
func Figure6() ([]DomainSpace, error) {
	var out []DomainSpace
	for _, dc := range fig6Domains() {
		type pt struct {
			e, d float64
			emb  units.Carbon
		}
		var pts []pt
		for _, nodeName := range dc.nodes {
			node, err := device.NodeByName(nodeName)
			if err != nil {
				return nil, err
			}
			proc, err := carbon.ProcessByName(nodeName)
			if err != nil {
				return nil, err
			}
			for _, vs := range dc.vddScales {
				for _, ws := range dc.widthScale {
					for _, op := range dc.overProvision {
						d := device.NewDesign(node)
						d.Gates = dc.gates
						d.VDD = node.VDDNominal * vs
						d.WidthScale = ws
						if err := d.Validate(); err != nil {
							return nil, err
						}
						delay, energy := d.Run(dc.cycles)
						// Dark silicon: the die carries op× the logic but
						// the task only exercises the base gates; the idle
						// part still leaks.
						idleLeak := d.LeakagePower().Over(delay).Joules() * (op - 1)
						emb, err := proc.EmbodiedDie(carbon.FabCoal,
							d.Area()*units.Area(op), 0.95)
						if err != nil {
							return nil, err
						}
						pts = append(pts, pt{
							e:   energy.Joules() + idleLeak,
							d:   delay.Seconds(),
							emb: emb,
						})
					}
				}
			}
		}
		// Calibrate task count so the domain's mean embodied share matches
		// the target: N = (1-α)/α · ΣC_emb / (CI·ΣE).
		var sumEmb, sumE float64
		for _, p := range pts {
			sumEmb += p.emb.Grams()
			sumE += p.e
		}
		alpha := dc.share
		n := (1 - alpha) / alpha * sumEmb / (dc.ciUse.Of(units.Energy(sumE)).Grams())
		ds := DomainSpace{Name: dc.name, EmbodiedShare: alpha}
		for _, p := range pts {
			op := dc.ciUse.Of(units.Energy(p.e * n))
			tcdp := (p.emb.Grams() + op.Grams()) * p.d
			ds.EDP = append(ds.EDP, p.e*p.d)
			ds.TCDP = append(ds.TCDP, tcdp)
		}
		ds.Correlation = logPearson(ds.EDP, ds.TCDP)
		ds.MaxSpreadAtEqualEDP = maxSpreadAtEqualX(ds.EDP, ds.TCDP, 0.10)
		out = append(out, ds)
	}
	return out, nil
}

// logPearson returns the Pearson correlation of log10(x) and log10(y).
func logPearson(x, y []float64) float64 {
	n := float64(len(x))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, syy, sxy float64
	for i := range x {
		lx, ly := math.Log10(x[i]), math.Log10(y[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		syy += ly * ly
		sxy += lx * ly
	}
	cov := sxy/n - sx/n*sy/n
	vx := sxx/n - sx/n*sx/n
	vy := syy/n - sy/n*sy/n
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// maxSpreadAtEqualX returns the largest y ratio among pairs whose x values
// are within tol of each other (relative).
func maxSpreadAtEqualX(x, y []float64, tol float64) float64 {
	best := 1.0
	for i := range x {
		for j := i + 1; j < len(x); j++ {
			if math.Abs(x[i]-x[j]) > tol*math.Max(x[i], x[j]) {
				continue
			}
			r := y[i] / y[j]
			if r < 1 {
				r = 1 / r
			}
			if r > best {
				best = r
			}
		}
	}
	return best
}

// RenderFigure6 writes the Fig. 6 scatter and correlation summary.
func RenderFigure6(w io.Writer) error {
	domains, err := Figure6()
	if err != nil {
		return err
	}
	var series []table.Series
	for _, d := range domains {
		series = append(series, table.Series{Name: d.Name, X: d.EDP, Y: d.TCDP})
	}
	c := &table.Chart{
		Title:  "Fig. 6 — tCDP versus EDP across domains",
		XLabel: "EDP (J·s)", YLabel: "tCDP (gCO2e·s)", LogX: true, LogY: true,
		Series: series,
	}
	if err := c.Render(w); err != nil {
		return err
	}
	t := table.New("correlation of log EDP vs log tCDP",
		"domain", "embodied share", "correlation", "max tCDP spread at equal EDP")
	for _, d := range domains {
		t.AddRow(d.Name, table.F(d.EmbodiedShare), table.F(d.Correlation),
			table.F(d.MaxSpreadAtEqualEDP)+"×")
	}
	return t.Render(w)
}

// ---- Figure 7 ----

// Figure7Result relates die area to tCDP (per operational time) and EDP for
// the 121-configuration space on the "All kernels" task.
type Figure7Result struct {
	Areas []float64 // cm² per config
	EDP   []float64
	// TCDP[n] is each config's tCDP at OperationalTimes[n] inferences.
	OperationalTimes []float64
	TCDP             [][]float64
	// TCDPOptimal[n] is the optimal config index at each operational time;
	// EDPOptimal and MinArea are single indices.
	TCDPOptimal []int
	EDPOptimal  int
	MinArea     int
}

// Figure7 runs the area-relationship study.
func Figure7() (Figure7Result, error) {
	task, err := workload.PaperTask(workload.TaskAllKernels)
	if err != nil {
		return Figure7Result{}, err
	}
	s, err := explore(task, accel.Grid())
	if err != nil {
		return Figure7Result{}, err
	}
	res := Figure7Result{OperationalTimes: []float64{1e4, 1e7, 1e10}}
	for i, p := range s.Points {
		res.Areas = append(res.Areas, p.Area.CM2())
		res.EDP = append(res.EDP, p.EDP())
		if res.EDP[i] < res.EDP[res.EDPOptimal] {
			res.EDPOptimal = i
		}
		if res.Areas[i] < res.Areas[res.MinArea] {
			res.MinArea = i
		}
	}
	for _, n := range res.OperationalTimes {
		res.TCDP = append(res.TCDP, s.TCDPAt(n))
		res.TCDPOptimal = append(res.TCDPOptimal, s.OptimalAt(n))
	}
	return res, nil
}

// RenderFigure7 writes the Fig. 7 area study.
func RenderFigure7(w io.Writer) error {
	res, err := Figure7()
	if err != nil {
		return err
	}
	var series []table.Series
	for i, n := range res.OperationalTimes {
		series = append(series, table.Series{
			Name: fmt.Sprintf("N=%.0e", n), X: res.Areas, Y: res.TCDP[i],
		})
	}
	c1 := &table.Chart{
		Title:  "Fig. 7(a) — tCDP versus die area (121 configs, All kernels)",
		XLabel: "area (cm²)", YLabel: "tCDP (gCO2e·s)", LogX: true, LogY: true,
		Series: series,
	}
	if err := c1.Render(w); err != nil {
		return err
	}
	c2 := &table.Chart{
		Title:  "Fig. 7(b) — EDP versus die area",
		XLabel: "area (cm²)", YLabel: "EDP (J·s)", LogX: true, LogY: true,
		Series: []table.Series{{Name: "configs", X: res.Areas, Y: res.EDP}},
	}
	if err := c2.Render(w); err != nil {
		return err
	}
	grid := accel.Grid()
	fmt.Fprintf(w, "EDP-optimal config: %s (operational-time independent)\n", grid[res.EDPOptimal].ID)
	for i, n := range res.OperationalTimes {
		fmt.Fprintf(w, "tCDP-optimal at N=%.0e: %s (area %s)\n",
			n, grid[res.TCDPOptimal[i]].ID, units.Area(res.Areas[res.TCDPOptimal[i]]))
	}
	_, err = fmt.Fprintf(w, "minimum-area config: %s — not tCDP-optimal at any swept time\n", grid[res.MinArea].ID)
	return err
}

// ---- Table VI ----

// KnobRow is one row of Table VI, with measured movement directions.
type KnobRow struct {
	Knob          string
	EnergyRatio   float64 // after/before
	DelayRatio    float64
	EmbodiedRatio float64
}

// TableVI measures the Table VI knob directions with the device and carbon
// models. Circuit knobs are measured at 7 nm; "Tech. node ↓" compares
// iso-area dies at 7 nm versus 5 nm (designers spend the shrink on features,
// so embodied follows fab intensity); "Lifetime ↓" compares keeping one
// 7 nm chip for two periods against refreshing to a 5 nm chip halfway.
func TableVI() ([]KnobRow, error) {
	d := device.NewDesign(device.Node7nm())
	const cycles = 1e9
	var rows []KnobRow
	for _, e := range device.Sweep(d, cycles) {
		if e.Knob == device.KnobNodeAdvance {
			continue // replaced by the iso-area comparison below
		}
		rows = append(rows, KnobRow{
			Knob:          e.Knob.String(),
			EnergyRatio:   e.EnergyRatio,
			DelayRatio:    e.DelayRatio,
			EmbodiedRatio: e.AreaRatio, // same node: embodied ∝ area
		})
	}

	// Lifetime ↓ (refresh): two periods on one 7 nm chip versus one period
	// each on 7 nm and 5 nm chips of the same die area.
	p7, err := carbon.ProcessByName("7nm")
	if err != nil {
		return nil, err
	}
	p5, err := carbon.ProcessByName("5nm")
	if err != nil {
		return nil, err
	}
	n5, err := device.NodeByName("5nm")
	if err != nil {
		return nil, err
	}
	d5 := device.NewDesign(n5)
	_, e7 := d.Run(cycles)
	_, e5 := d5.Run(cycles)
	keepEnergy := 2 * e7.Joules()
	refreshEnergy := e7.Joules() + e5.Joules()
	area := d.Area()
	keepEmb := p7.CarbonPerArea(carbon.FabCoal).Grams() * area.CM2()
	refreshEmb := keepEmb + p5.CarbonPerArea(carbon.FabCoal).Grams()*area.CM2()
	rows = append(rows, KnobRow{
		Knob:          "Lifetime ↓",
		EnergyRatio:   refreshEnergy / keepEnergy,
		DelayRatio:    e5div(d5, d, cycles),
		EmbodiedRatio: refreshEmb / keepEmb,
	})

	// Tech. node ↓ at iso-area.
	d7Delay, d7Energy := d.Run(cycles)
	d5Delay, d5Energy := d5.Run(cycles)
	rows = append(rows, KnobRow{
		Knob:          "Tech. node ↓",
		EnergyRatio:   d5Energy.Joules() / d7Energy.Joules(),
		DelayRatio:    d5Delay.Seconds() / d7Delay.Seconds(),
		EmbodiedRatio: p5.CarbonPerArea(carbon.FabCoal).Grams() / p7.CarbonPerArea(carbon.FabCoal).Grams(),
	})
	return rows, nil
}

// e5div returns the delay ratio of the refreshed system's second period to
// the kept system (the refresh runs faster on the newer node).
func e5div(newer, older device.Design, cycles float64) float64 {
	dn, _ := newer.Run(cycles)
	do, _ := older.Run(cycles)
	return dn.Seconds() / do.Seconds()
}

// RenderTableVI writes Table VI.
func RenderTableVI(w io.Writer) error {
	rows, err := TableVI()
	if err != nil {
		return err
	}
	dir := func(r float64) string {
		switch {
		case r < 0.999:
			return "↓ " + table.F(r) + "×"
		case r > 1.001:
			return "↑ " + table.F(r) + "×"
		default:
			return "≈ 1"
		}
	}
	t := table.New("Table VI — design-knob directions (measured with the device/carbon models)",
		"design knob", "effect on E", "effect on D", "effect on C_emb")
	for _, r := range rows {
		t.AddRow(r.Knob, dir(r.EnergyRatio), dir(r.DelayRatio), dir(r.EmbodiedRatio))
	}
	return t.Render(w)
}
