package cordoba_test

import (
	"strings"
	"testing"

	"cordoba"
	"cordoba/internal/nn"
)

// The facade exposes a coherent end-to-end workflow: accounting → workload →
// exploration → elimination.
func TestFacadeEndToEnd(t *testing.T) {
	die, err := cordoba.EmbodiedDie(cordoba.Process7nm(), cordoba.FabCoal, 1.0, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if die <= 0 {
		t.Fatal("embodied must be positive")
	}
	op := cordoba.Operational(380, cordoba.Power(5).Over(cordoba.Hours(100)))
	if op <= 0 {
		t.Fatal("operational must be positive")
	}

	task, err := cordoba.PaperTask(cordoba.TaskAI5)
	if err != nil {
		t.Fatal(err)
	}
	space, err := cordoba.Explore(task, cordoba.Grid())
	if err != nil {
		t.Fatal(err)
	}
	if len(space.Points) != 121 {
		t.Fatalf("grid size = %d", len(space.Points))
	}
	if frac := space.EliminatedFraction(); frac < 0.9 {
		t.Errorf("elimination = %v", frac)
	}
	designs := cordoba.DesignsFromSpace(space)
	if len(cordoba.Survivors(designs)) == 0 {
		t.Error("no survivors")
	}
	if len(cordoba.SurvivorsFixedTime(designs)) == 0 {
		t.Error("no fixed-time survivors")
	}
}

func TestFacadeKernelsAndTasks(t *testing.T) {
	if got := len(nn.AllKernels()); got != 15 {
		t.Fatalf("kernels = %d", got)
	}
	if got := len(cordoba.PaperTasks()); got != 5 {
		t.Fatalf("tasks = %d", got)
	}
	ids := map[cordoba.KernelID]bool{}
	for _, k := range nn.AllKernels() {
		ids[k] = true
	}
	for _, k := range []cordoba.KernelID{
		cordoba.KernelRN18, cordoba.KernelRN50, cordoba.KernelRN152,
		cordoba.KernelGN, cordoba.KernelMN2, cordoba.KernelET,
		cordoba.Kernel3DAgg, cordoba.KernelHRN, cordoba.KernelEFAN,
		cordoba.KernelJLP, cordoba.KernelUNet, cordoba.KernelDN,
		cordoba.KernelSR256, cordoba.KernelSR512, cordoba.KernelSR1024,
	} {
		if !ids[k] {
			t.Errorf("exported kernel constant %q is not a Table IV kernel", k)
		}
	}
}

func TestFacadeAccelerators(t *testing.T) {
	if got := len(cordoba.Grid()); got != 121 {
		t.Fatalf("grid = %d", got)
	}
	if got := len(cordoba.Stacked3D()); got != 7 {
		t.Fatalf("stacked = %d", got)
	}
	c, err := cordoba.AcceleratorByID("a48")
	if err != nil || c.MACArrays != 16 {
		t.Fatalf("a48: %+v, %v", c, err)
	}
	custom := cordoba.NewAccelerator("mine", 8, cordoba.MB(4))
	if err := custom.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeVRPlatform(t *testing.T) {
	platform := cordoba.Quest2()
	tasks := cordoba.PaperVRTasks()
	if len(tasks) != 5 {
		t.Fatalf("VR tasks = %d", len(tasks))
	}
	n, err := platform.OptimalCores(tasks[1]) // M-1
	if err != nil || n != 4 {
		t.Fatalf("M-1 optimal cores = %d, %v", n, err)
	}
}

func TestFacadeTraces(t *testing.T) {
	designs := []cordoba.UncertainDesign{
		{Name: "x", Energy: 2, Delay: 1, Embodied: 10},
		{Name: "y", Energy: 1, Delay: 2, Embodied: 30},
	}
	for _, tr := range []cordoba.CITrace{
		cordoba.ConstantCI(380),
		cordoba.DiurnalCI(400, 100),
		cordoba.DecarbonizationRamp(500, 50, cordoba.Years(5)),
	} {
		if _, err := cordoba.OptimalUnderTrace(designs, tr, cordoba.Years(1)); err != nil {
			t.Errorf("%s: %v", tr.Name(), err)
		}
	}
}

func TestFacadeExperiments(t *testing.T) {
	if got := len(cordoba.Experiments()); got != 19 {
		t.Fatalf("experiments = %d", got)
	}
	var b strings.Builder
	if err := cordoba.RunExperiment("table2", &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "tCDP-optimal: IC \"E\"") {
		t.Errorf("table2 output missing the headline:\n%s", b.String())
	}
	if err := cordoba.RunExperiment("nope", &b); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestFacadeUnits(t *testing.T) {
	if cordoba.MB(8).InMB() != 8 {
		t.Error("MB broken")
	}
	if cordoba.Hours(2).Seconds() != 7200 {
		t.Error("Hours broken")
	}
	if mid := cordoba.LogSpace(1, 100, 3)[1]; mid < 10-1e-9 || mid > 10+1e-9 {
		t.Errorf("LogSpace midpoint = %v", mid)
	}
}

func TestFacadeLifecycle(t *testing.T) {
	svc := cordoba.DefaultRefreshService()
	best, err := svc.Optimal(cordoba.RefreshPeriods())
	if err != nil {
		t.Fatal(err)
	}
	if best.Outcome.TCDP() <= 0 {
		t.Fatal("degenerate refresh optimum")
	}
	if y := best.Period.InYears(); y < 1 || y > 10 {
		t.Errorf("optimal period %v out of range", best.Period)
	}
}

// End-to-end on a weighted task: the §IV-A motivating XR session runs
// through the whole pipeline — accounting, simulation, exploration and
// elimination — via the public facade with a custom task.
func TestFacadeWeightedSessionTask(t *testing.T) {
	session := cordoba.Task{
		Name: "custom XR session",
		Calls: map[cordoba.KernelID]float64{
			cordoba.KernelET:    90,
			cordoba.KernelJLP:   60,
			cordoba.KernelSR512: 72,
		},
	}
	space, err := cordoba.Explore(session, cordoba.Grid())
	if err != nil {
		t.Fatal(err)
	}
	if frac := space.EliminatedFraction(); frac < 0.8 {
		t.Errorf("elimination = %v", frac)
	}
	// Per-second sessions, two hours a day for three years.
	n := 2.0 * 3600 * 365 * 3
	best := space.Points[space.OptimalAt(n)]
	r := best.Report(space.CIUse, n)
	if r.TotalCarbon() <= 0 || r.TCDP() <= 0 {
		t.Fatalf("degenerate report %+v", r)
	}
	if _, err := r.CCI(); err != nil {
		t.Fatalf("CCI: %v", err)
	}
}
