package workload

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cordoba/internal/nn"
	"cordoba/internal/units"
)

// fakePlatform prices every kernel identically except where overridden.
type fakePlatform struct {
	delay  units.Time
	energy units.Energy
	leak   units.Power
	fail   map[nn.KernelID]bool
}

func (f fakePlatform) KernelCost(id nn.KernelID) (KernelCost, error) {
	if f.fail[id] {
		return KernelCost{}, fmt.Errorf("no profile for %s", id)
	}
	return KernelCost{Delay: f.delay, DynamicEnergy: f.energy}, nil
}

func (f fakePlatform) LeakagePower() units.Power { return f.leak }

func TestPaperTasksMatchTableIV(t *testing.T) {
	tasks := PaperTasks()
	if len(tasks) != 5 {
		t.Fatalf("expected 5 tasks, got %d", len(tasks))
	}
	wantCount := map[string]int{
		TaskAllKernels: 15,
		TaskXR10:       10,
		TaskAI10:       10,
		TaskXR5:        5,
		TaskAI5:        5,
	}
	for _, task := range tasks {
		if got := len(task.Kernels()); got != wantCount[task.Name] {
			t.Errorf("%s: %d kernels, want %d", task.Name, got, wantCount[task.Name])
		}
	}
	// Spot-check Table IV membership.
	xr5, err := PaperTask(TaskXR5)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []nn.KernelID{nn.Agg3D, nn.HRN, nn.DN, nn.SR512, nn.SR1024} {
		if xr5.Calls[id] != 1 {
			t.Errorf("XR5 should include %s", id)
		}
	}
	if xr5.Calls[nn.RN18] != 0 {
		t.Error("XR5 should not include RN-18")
	}
	ai5, _ := PaperTask(TaskAI5)
	for _, id := range []nn.KernelID{nn.RN18, nn.RN50, nn.RN152, nn.GN, nn.MN2} {
		if ai5.Calls[id] != 1 {
			t.Errorf("AI5 should include %s", id)
		}
	}
	if _, err := PaperTask("bogus"); err == nil {
		t.Error("unknown task should error")
	}
}

func TestEvaluateSumsKernels(t *testing.T) {
	p := fakePlatform{delay: 2, energy: 3, leak: 0.5}
	task := uniform("t", nn.RN18, nn.RN50, nn.MN2)
	c, err := Evaluate(task, p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Delay != 6 {
		t.Errorf("delay = %v, want 6", c.Delay)
	}
	// Energy: 3 kernels × 3 J dynamic + 0.5 W × 6 s leakage = 12 J.
	if c.Energy != 12 {
		t.Errorf("energy = %v, want 12", c.Energy)
	}
}

func TestEvaluateRespectsCallCounts(t *testing.T) {
	p := fakePlatform{delay: 1, energy: 1}
	task := Task{Name: "t", Calls: map[nn.KernelID]float64{nn.RN18: 3, nn.MN2: 0}}
	c, err := Evaluate(task, p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Delay != 3 || c.Energy != 3 {
		t.Errorf("cost = %+v, want 3/3", c)
	}
}

func TestEvaluateErrors(t *testing.T) {
	p := fakePlatform{delay: 1, energy: 1, fail: map[nn.KernelID]bool{nn.RN50: true}}
	if _, err := Evaluate(uniform("t", nn.RN50), p); err == nil {
		t.Error("failing kernel should propagate")
	}
	bad := Task{Name: "neg", Calls: map[nn.KernelID]float64{nn.RN18: -1}}
	if _, err := Evaluate(bad, fakePlatform{}); err == nil {
		t.Error("negative call count should error")
	}
}

// matrix is the explicit N_{T,K} matrix of eq. IV.2: rows are tasks, columns
// kernels. It is the literal form of the equations that Task.Terms and Fold
// compute, kept as their oracle.
type matrix struct {
	Tasks   []string
	Kernels []nn.KernelID
	N       [][]float64 // N[task][kernel]
}

// newMatrix builds the call matrix for a set of tasks over a kernel basis.
func newMatrix(tasks []Task, kernels []nn.KernelID) matrix {
	m := matrix{Kernels: kernels}
	for _, t := range tasks {
		m.Tasks = append(m.Tasks, t.Name)
		row := make([]float64, len(kernels))
		for j, k := range kernels {
			row[j] = t.Calls[k]
		}
		m.N = append(m.N, row)
	}
	return m
}

// Delays computes eq. IV.2: the task-delay vector D = N·D_K.
func (m matrix) Delays(kernelDelays []units.Time) ([]units.Time, error) {
	if len(kernelDelays) != len(m.Kernels) {
		return nil, fmt.Errorf("workload: got %d kernel delays for %d kernels", len(kernelDelays), len(m.Kernels))
	}
	out := make([]units.Time, len(m.N))
	for i, row := range m.N {
		for j, n := range row {
			out[i] += units.Time(n) * kernelDelays[j]
		}
	}
	return out, nil
}

// Energies computes eq. IV.4: E = N·(P_dyn,K·D_K) + P_leak·D.
func (m matrix) Energies(kernelDelays []units.Time, dynPower []units.Power, leak units.Power) ([]units.Energy, error) {
	if len(dynPower) != len(m.Kernels) {
		return nil, fmt.Errorf("workload: got %d dynamic powers for %d kernels", len(dynPower), len(m.Kernels))
	}
	delays, err := m.Delays(kernelDelays)
	if err != nil {
		return nil, err
	}
	out := make([]units.Energy, len(m.N))
	for i, row := range m.N {
		for j, n := range row {
			out[i] += units.Energy(n) * dynPower[j].Over(kernelDelays[j])
		}
		out[i] += leak.Over(delays[i])
	}
	return out, nil
}

func TestMatrixDelaysEquationIV2(t *testing.T) {
	tasks := []Task{
		{Name: "t1", Calls: map[nn.KernelID]float64{nn.RN18: 2, nn.MN2: 1}},
		{Name: "t2", Calls: map[nn.KernelID]float64{nn.MN2: 4}},
	}
	m := newMatrix(tasks, []nn.KernelID{nn.RN18, nn.MN2})
	d, err := m.Delays([]units.Time{10, 1})
	if err != nil {
		t.Fatal(err)
	}
	if d[0] != 21 || d[1] != 4 {
		t.Errorf("delays = %v, want [21 4]", d)
	}
	if _, err := m.Delays([]units.Time{1}); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestMatrixEnergiesEquationIV4(t *testing.T) {
	tasks := []Task{{Name: "t", Calls: map[nn.KernelID]float64{nn.RN18: 2, nn.MN2: 3}}}
	m := newMatrix(tasks, []nn.KernelID{nn.RN18, nn.MN2})
	delays := []units.Time{4, 1}
	powers := []units.Power{2, 5}
	e, err := m.Energies(delays, powers, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Dynamic: 2·(2·4) + 3·(5·1) = 31; leakage: 0.5·(2·4+3·1) = 5.5.
	want := 36.5
	if math.Abs(e[0].Joules()-want) > 1e-12 {
		t.Errorf("energy = %v, want %v", e[0], want)
	}
	if _, err := m.Energies(delays, []units.Power{1}, 0); err == nil {
		t.Error("dimension mismatch should error")
	}
	if _, err := m.Energies([]units.Time{1}, powers, 0); err == nil {
		t.Error("delay mismatch should error")
	}
}

// Consistency: Evaluate must agree with the explicit matrix formulation.
func TestEvaluateMatchesMatrix(t *testing.T) {
	p := fakePlatform{delay: 0.25, energy: 1.5, leak: 2}
	task, _ := PaperTask(TaskAI5)
	c, err := Evaluate(task, p)
	if err != nil {
		t.Fatal(err)
	}
	kernels := task.Kernels()
	m := newMatrix([]Task{task}, kernels)
	delays := make([]units.Time, len(kernels))
	powers := make([]units.Power, len(kernels))
	for i := range kernels {
		delays[i] = p.delay
		powers[i] = units.Power(p.energy.Joules() / p.delay.Seconds())
	}
	d, _ := m.Delays(delays)
	e, _ := m.Energies(delays, powers, p.leak)
	if math.Abs(d[0].Seconds()-c.Delay.Seconds()) > 1e-12 {
		t.Errorf("matrix delay %v vs evaluate %v", d[0], c.Delay)
	}
	if math.Abs(e[0].Joules()-c.Energy.Joules()) > 1e-9 {
		t.Errorf("matrix energy %v vs evaluate %v", e[0], c.Energy)
	}
}

func TestXRGamingSessionWeights(t *testing.T) {
	session := XRGamingSession()
	if session.TotalCalls() <= 15 {
		t.Fatalf("session should make many calls, got %v", session.TotalCalls())
	}
	// Weighted evaluation scales linearly with call counts.
	p := fakePlatform{delay: 0.001, energy: 0.01}
	c, err := Evaluate(session, p)
	if err != nil {
		t.Fatal(err)
	}
	wantDelay := session.TotalCalls() * 0.001
	if math.Abs(c.Delay.Seconds()-wantDelay) > 1e-9 {
		t.Errorf("delay = %v, want %v", c.Delay, wantDelay)
	}
	// Doubling every call count doubles delay and dynamic energy.
	double := Task{Name: "2x", Calls: map[nn.KernelID]float64{}}
	for k, n := range session.Calls {
		double.Calls[k] = 2 * n
	}
	c2, err := Evaluate(double, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c2.Delay.Seconds()-2*c.Delay.Seconds()) > 1e-9 {
		t.Error("delay should scale linearly with call counts")
	}
	if math.Abs(c2.Energy.Joules()-2*c.Energy.Joules()) > 1e-9 {
		t.Error("energy should scale linearly with call counts")
	}
}

func TestTotalCallsEmpty(t *testing.T) {
	if (Task{}).TotalCalls() != 0 {
		t.Error("empty task should have zero calls")
	}
}

func TestEvaluateRejectsUnknownKernels(t *testing.T) {
	task := Task{Name: "alien", Calls: map[nn.KernelID]float64{"not-a-kernel": 1}}
	if _, err := Evaluate(task, fakePlatform{delay: 1, energy: 1}); err == nil {
		t.Error("unknown kernel should error")
	}
}

// Determinism: repeated evaluation of the same task gives bit-identical
// results (canonical iteration order, not map order).
func TestEvaluateDeterministic(t *testing.T) {
	p := fakePlatform{delay: 0.1234567, energy: 0.7654321, leak: 0.111}
	task, _ := PaperTask(TaskAllKernels)
	first, err := Evaluate(task, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := Evaluate(task, p)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatal("evaluation is nondeterministic")
		}
	}
}

// indexedPlatform prices each kernel differently, by canonical index, so a
// fold that mixes up kernels or their order shows up bit-wise.
type indexedPlatform struct{ leak units.Power }

func (p indexedPlatform) KernelCost(id nn.KernelID) (KernelCost, error) {
	i := slices.Index(nn.AllKernels(), id)
	if i < 0 {
		return KernelCost{}, fmt.Errorf("unknown kernel %s", id)
	}
	return KernelCost{Delay: units.Time(0.001 * math.Pi * float64(i+1)), DynamicEnergy: units.Energy(0.37 / float64(i+3))}, nil
}

func (p indexedPlatform) LeakagePower() units.Power { return p.leak }

// TestFoldMatchesEvaluate: Terms resolved against a basis, then Fold over
// the basis-ordered costs, is bit-identical to Evaluate for every paper
// task and the weighted XR session — with the basis in reverse canonical
// order, so Slot really is looked up, not assumed.
func TestFoldMatchesEvaluate(t *testing.T) {
	basis := nn.AllKernels()
	for i, j := 0, len(basis)-1; i < j; i, j = i+1, j-1 {
		basis[i], basis[j] = basis[j], basis[i]
	}
	p := indexedPlatform{leak: 0.0123}
	costs := make([]KernelCost, len(basis))
	for i, id := range basis {
		costs[i], _ = p.KernelCost(id)
	}
	tasks := append(PaperTasks(), XRGamingSession(),
		Task{Name: "with zero", Calls: map[nn.KernelID]float64{nn.RN18: 2, nn.MN2: 0}})
	for _, task := range tasks {
		terms, err := task.Terms(basis)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Evaluate(task, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := Fold(terms, costs, p.leak); got != want {
			t.Fatalf("%s: Fold %+v != Evaluate %+v", task.Name, got, want)
		}
	}
}

// TestTermsErrors: Terms rejects what Evaluate rejects, plus kernels the
// basis does not price.
func TestTermsErrors(t *testing.T) {
	basis := []nn.KernelID{nn.RN18}
	for _, task := range []Task{
		{Name: "neg", Calls: map[nn.KernelID]float64{nn.RN18: -1}},
		{Name: "alien", Calls: map[nn.KernelID]float64{"not-a-kernel": 1}},
		{Name: "outside", Calls: map[nn.KernelID]float64{nn.RN50: 1}},
	} {
		if _, err := task.Terms(basis); err == nil {
			t.Errorf("%s: Terms accepted it", task.Name)
		}
	}
}
