package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"

	"cordoba/internal/accel"
	"cordoba/internal/carbon"
	"cordoba/internal/dse"
	"cordoba/internal/nn"
	"cordoba/internal/table"
	"cordoba/internal/uncertainty"
	"cordoba/internal/workload"
)

// explore evaluates configurations on a task at the paper's anchor: 7 nm,
// coal-heavy fab, CI_use = 380 g/kWh.
func explore(task workload.Task, configs []accel.Config) (*dse.Space, error) {
	return dse.Evaluate(context.Background(), task, configs, carbon.Process7nm(), carbon.FabCoal, 380, nil, dse.StreamOptions{})
}

// taskSpaces lazily evaluates the 121-configuration grid on the five paper
// tasks — the shared substrate of Figs. 7–9.
var (
	spacesOnce sync.Once
	spacesVal  map[string]*dse.Space
	spacesErr  error
)

func taskSpaces() (map[string]*dse.Space, error) {
	spacesOnce.Do(func() {
		grid := accel.Grid()
		spacesVal = map[string]*dse.Space{}
		for _, task := range workload.PaperTasks() {
			s, err := explore(task, grid)
			if err != nil {
				spacesErr = err
				return
			}
			spacesVal[task.Name] = s
		}
	})
	return spacesVal, spacesErr
}

// ---- Figure 8(a–e) ----

// TaskDSE summarizes the Fig. 8 exploration of one task.
type TaskDSE struct {
	Task               string
	EverOptimal        []string // config IDs, long-operational-time end first
	EliminatedFraction float64
	// OptimalByTime maps swept inference counts to the optimal config ID.
	Inferences []float64
	OptimalID  []string
}

// Fig8Sweep is the default operational-time sweep (10³–10¹² inferences).
func Fig8Sweep() []float64 { return dse.LogSpace(1e3, 1e12, 19) }

// Figure8 runs the Fig. 8(a–e) exploration for all five tasks.
func Figure8() ([]TaskDSE, error) {
	spaces, err := taskSpaces()
	if err != nil {
		return nil, err
	}
	var out []TaskDSE
	for _, task := range workload.PaperTasks() {
		s := spaces[task.Name]
		td := TaskDSE{
			Task:               task.Name,
			EverOptimal:        s.IDs(s.EverOptimal()),
			EliminatedFraction: s.EliminatedFraction(),
			Inferences:         Fig8Sweep(),
		}
		for _, i := range s.SweepOptimal(td.Inferences) {
			td.OptimalID = append(td.OptimalID, s.Points[i].Config.ID)
		}
		out = append(out, td)
	}
	return out, nil
}

// RenderFigure8 writes the Fig. 8(a–e) summary: per-task efficiency curves
// of the ever-optimal designs plus the elimination statistics.
func RenderFigure8(w io.Writer) error {
	results, err := Figure8()
	if err != nil {
		return err
	}
	spaces, err := taskSpaces()
	if err != nil {
		return err
	}
	summary := table.New("Fig. 8(a-e) — ever-optimal designs across operational time (121-config space)",
		"task", "ever-optimal configs", "eliminated")
	for _, r := range results {
		summary.AddRow(r.Task, fmt.Sprint(r.EverOptimal),
			fmt.Sprintf("%.1f%%", 100*r.EliminatedFraction))
	}
	if err := summary.Render(w); err != nil {
		return err
	}
	for _, r := range results {
		s := spaces[r.Task]
		var series []table.Series
		for _, id := range r.EverOptimal {
			p, err := s.ByID(id)
			if err != nil {
				return err
			}
			var ys []float64
			for _, n := range r.Inferences {
				ys = append(ys, 1/p.TCDP(s.CIUse, n))
			}
			series = append(series, table.Series{Name: id, X: r.Inferences, Y: ys})
		}
		c := &table.Chart{
			Title:  fmt.Sprintf("Fig. 8 — %s: carbon efficiency (tCDP⁻¹) vs operational time", r.Task),
			XLabel: "inferences", YLabel: "tCDP⁻¹", LogX: true, LogY: true,
			Series: series, Height: 12,
		}
		if err := c.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// ---- Figure 8(f) ----

// SpecializationCell is one bar of Fig. 8(f).
type SpecializationCell struct {
	Task       string
	Inferences float64
	Optimal    float64 // tCDP of the optimal design
	Mean       float64 // average tCDP across the space (red diamonds)
	OptimalID  string
}

// Figure8FTimes is the set of operational times shown in Fig. 8(f).
var Figure8FTimes = []float64{1e4, 1e6, 1e8, 1e10}

// Figure8F computes optimal and average tCDP per task and operational time.
func Figure8F() ([]SpecializationCell, error) {
	spaces, err := taskSpaces()
	if err != nil {
		return nil, err
	}
	var out []SpecializationCell
	for _, task := range workload.PaperTasks() {
		s := spaces[task.Name]
		for _, n := range Figure8FTimes {
			opt := s.OptimalAt(n)
			out = append(out, SpecializationCell{
				Task:       task.Name,
				Inferences: n,
				Optimal:    s.Points[opt].TCDP(s.CIUse, n),
				Mean:       s.MeanTCDPAt(n),
				OptimalID:  s.Points[opt].Config.ID,
			})
		}
	}
	return out, nil
}

// SpecializationGain returns how much more carbon-efficient the specialized
// task's optimum is than the general task's optimum at the same operational
// time: tCDP_general / tCDP_specialized.
func SpecializationGain(cells []SpecializationCell, general, specialized string, n float64) (float64, error) {
	var g, s float64
	for _, c := range cells {
		if c.Inferences != n {
			continue
		}
		switch c.Task {
		case general:
			g = c.Optimal
		case specialized:
			s = c.Optimal
		}
	}
	if g == 0 || s == 0 {
		return 0, fmt.Errorf("experiments: missing cells for %q/%q at N=%g", general, specialized, n)
	}
	return g / s, nil
}

// RenderFigure8F writes Fig. 8(f).
func RenderFigure8F(w io.Writer) error {
	cells, err := Figure8F()
	if err != nil {
		return err
	}
	t := table.New("Fig. 8(f) — optimal vs average tCDP (gCO2e·s) per task and operational time",
		"task", "inferences", "optimal config", "optimal tCDP", "average tCDP", "avg/opt")
	for _, c := range cells {
		t.AddRow(c.Task, fmt.Sprintf("%.0e", c.Inferences), c.OptimalID,
			table.F(c.Optimal), table.F(c.Mean), table.F(c.Mean/c.Optimal)+"×")
	}
	if err := t.Render(w); err != nil {
		return err
	}
	for _, n := range []float64{1e6, 1e10} {
		gAI, err := SpecializationGain(cells, workload.TaskAllKernels, workload.TaskAI5, n)
		if err != nil {
			return err
		}
		gXR, err := SpecializationGain(cells, workload.TaskAllKernels, workload.TaskXR5, n)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "at N=%.0e: specializing for AI-5 is %s× and for XR-5 is %s× more carbon-efficient than the general task\n",
			n, table.F(gAI), table.F(gXR))
	}
	return nil
}

// ---- Figure 9 ----

// RobustnessCurve is one line of Fig. 9: a design's tCDP normalized to the
// per-operational-time optimum.
type RobustnessCurve struct {
	Config     string
	Inferences []float64
	Normalized []float64 // 1.0 = optimal at that operational time
}

// Figure9Result carries the Fig. 9 analysis of one task.
type Figure9Result struct {
	Task        string
	Curves      []RobustnessCurve
	RobustID    string  // design with the best average normalized tCDP
	WorstOfBest float64 // the robust design's worst normalized value
}

// Figure9 computes the robustness curves of every ever-optimal design for
// each task, plus the §VI-C robust (best-average) choice.
func Figure9() ([]Figure9Result, error) {
	spaces, err := taskSpaces()
	if err != nil {
		return nil, err
	}
	sweep := Fig8Sweep()
	var out []Figure9Result
	for _, task := range workload.PaperTasks() {
		s := spaces[task.Name]
		res := Figure9Result{Task: task.Name}
		normByTime := make([][]float64, len(sweep))
		for i, n := range sweep {
			normByTime[i] = s.NormalizedAt(n)
		}
		for _, idx := range s.EverOptimal() {
			c := RobustnessCurve{Config: s.Points[idx].Config.ID, Inferences: sweep}
			for i := range sweep {
				c.Normalized = append(c.Normalized, normByTime[i][idx])
			}
			res.Curves = append(res.Curves, c)
		}
		robust := s.BestAverage(sweep)
		res.RobustID = s.Points[robust].Config.ID
		res.WorstOfBest = 1.0
		for i := range sweep {
			if v := normByTime[i][robust]; v < res.WorstOfBest {
				res.WorstOfBest = v
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// RenderFigure9 writes Fig. 9.
func RenderFigure9(w io.Writer) error {
	results, err := Figure9()
	if err != nil {
		return err
	}
	for _, r := range results {
		var series []table.Series
		for _, c := range r.Curves {
			series = append(series, table.Series{Name: c.Config, X: c.Inferences, Y: c.Normalized})
		}
		ch := &table.Chart{
			Title:  fmt.Sprintf("Fig. 9 — %s: tCDP normalized to the per-time optimum", r.Task),
			XLabel: "inferences", YLabel: "normalized (1.0 = optimal)", LogX: true,
			Series: series, Height: 10,
		}
		if err := ch.Render(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "robust choice: %s (never below %s of optimal)\n\n", r.RobustID, table.F(r.WorstOfBest))
	}
	return nil
}

// ---- Figure 11 ----

// StackedCase is one half of Fig. 11(b).
type StackedCase struct {
	Name          string
	Inferences    float64
	EmbodiedShare float64 // average embodied fraction across the 7 configs
	// TCDP and Gain (vs the 2D baseline) per configuration, in
	// accel.Stacked3D order.
	TCDP      []float64
	Gain      []float64
	OptimalID string
	BestGain  float64
}

// Figure11Result carries the §VI-E study.
type Figure11Result struct {
	Configs []string
	Cases   []StackedCase // embodied-dominant, operational-dominant
}

// SR512Task is the single-kernel task of the §VI-E study.
func SR512Task() workload.Task {
	return workload.Task{Name: "SR 512x512", Calls: map[nn.KernelID]float64{nn.SR512: 1}}
}

// stackedSpace evaluates the seven §VI-E configurations on SR 512².
func stackedSpace() (*dse.Space, error) {
	return explore(SR512Task(), accel.Stacked3D())
}

// embodiedShareAt returns the average embodied fraction of total carbon
// across the space after n inferences.
func embodiedShareAt(s *dse.Space, n float64) float64 {
	var sum float64
	for _, p := range s.Points {
		r := p.Report(s.CIUse, n)
		sum += p.Embodied.Grams() / r.TotalCarbon().Grams()
	}
	return sum / float64(len(s.Points))
}

// solveShare finds the inference count at which the average embodied share
// equals the target, by bisection (share is monotone decreasing in n).
func solveShare(s *dse.Space, target float64) float64 {
	lo, hi := 1.0, 1e16
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if embodiedShareAt(s, mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Figure11 runs the 3D-stacking study: the paper's embodied-dominant case
// (80 % embodied on average) and operational-dominant case (8 % embodied).
func Figure11() (Figure11Result, error) {
	s, err := stackedSpace()
	if err != nil {
		return Figure11Result{}, err
	}
	var res Figure11Result
	for _, p := range s.Points {
		res.Configs = append(res.Configs, p.Config.ID)
	}
	base, err := s.ByID(accel.Baseline1K1M)
	if err != nil {
		return Figure11Result{}, err
	}
	for _, c := range []struct {
		name  string
		share float64
	}{
		{"embodied-dominant (80% embodied)", 0.80},
		{"operational-dominant (8% embodied)", 0.08},
	} {
		n := solveShare(s, c.share)
		sc := StackedCase{Name: c.name, Inferences: n, EmbodiedShare: embodiedShareAt(s, n)}
		baseTCDP := base.TCDP(s.CIUse, n)
		bestGain := 0.0
		for _, p := range s.Points {
			v := p.TCDP(s.CIUse, n)
			g := baseTCDP / v
			sc.TCDP = append(sc.TCDP, v)
			sc.Gain = append(sc.Gain, g)
			if g > bestGain {
				bestGain = g
				sc.OptimalID = p.Config.ID
			}
		}
		sc.BestGain = bestGain
		res.Cases = append(res.Cases, sc)
	}
	return res, nil
}

// RenderFigure11 writes Fig. 11(b).
func RenderFigure11(w io.Writer) error {
	res, err := Figure11()
	if err != nil {
		return err
	}
	for _, c := range res.Cases {
		bc := &table.BarChart{
			Title: fmt.Sprintf("Fig. 11(b) — %s (N = %.3g inferences): tCDP gain vs %s",
				c.Name, c.Inferences, accel.Baseline1K1M),
			Unit: "×",
		}
		for i, id := range res.Configs {
			note := ""
			if id == c.OptimalID {
				note = "optimal"
			}
			bc.Bars = append(bc.Bars, table.Bar{Label: id, Value: c.Gain[i], Note: note})
		}
		if err := bc.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// ---- Figure 12 ----

// Figure12Result carries the Lagrange-plane analysis of the seven §VI-E
// configurations.
type Figure12Result struct {
	Configs    []string
	EDP        []float64 // E·D per config
	EmbD       []float64 // C_emb·D per config
	Survivors  []string  // configs that can be tCDP-optimal for some CI_use(t)
	Eliminated []string
}

// Figure12 computes the E·D vs C_emb·D plane and the unknown-CI survivor set.
func Figure12() (Figure12Result, error) {
	s, err := stackedSpace()
	if err != nil {
		return Figure12Result{}, err
	}
	designs := uncertainty.FromDSE(s)
	var res Figure12Result
	for _, d := range designs {
		res.Configs = append(res.Configs, d.Name)
		res.EDP = append(res.EDP, d.EDP())
		res.EmbD = append(res.EmbD, d.EmbodiedDelay())
	}
	surv := map[int]bool{}
	for _, i := range uncertainty.Survivors(designs) {
		surv[i] = true
		res.Survivors = append(res.Survivors, designs[i].Name)
	}
	for i, d := range designs {
		if !surv[i] {
			res.Eliminated = append(res.Eliminated, d.Name)
		}
	}
	return res, nil
}

// RenderFigure12 writes Fig. 12.
func RenderFigure12(w io.Writer) error {
	res, err := Figure12()
	if err != nil {
		return err
	}
	c := &table.Chart{
		Title:  "Fig. 12 — E·D versus C_emb·D for the seven §VI-E configurations",
		XLabel: "E·D (J·s)", YLabel: "C_emb·D (gCO2e·s)",
		Series: []table.Series{{Name: "configs", X: res.EDP, Y: res.EmbD}},
		Height: 14,
	}
	if err := c.Render(w); err != nil {
		return err
	}
	t := table.New("", "config", "E·D (J·s)", "C_emb·D (gCO2e·s)", "verdict")
	surv := map[string]bool{}
	for _, n := range res.Survivors {
		surv[n] = true
	}
	for i, name := range res.Configs {
		verdict := "eliminated for every CI_use(t)"
		if surv[name] {
			verdict = "tCDP-optimal for some CI_use(t)"
		}
		t.AddRow(name, table.F(res.EDP[i]), table.F(res.EmbD[i]), verdict)
	}
	return t.Render(w)
}
