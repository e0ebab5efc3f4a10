// Package workload implements the paper's task/kernel formulation
// (§IV-A, eq. IV.2 and IV.4): a task T is a set of kernels K with call
// counts N_{T,K}; task delay is the matrix product of call counts and kernel
// delays, and task energy adds per-kernel dynamic energy plus leakage over
// the whole task.
package workload

import (
	"fmt"
	"slices"

	"cordoba/internal/nn"
	"cordoba/internal/units"
)

// Task is one computing task: a named set of kernels with call counts.
type Task struct {
	Name string
	// Calls maps kernel → N_{T,K}. Absent kernels have N_{T,K} = 0.
	Calls map[nn.KernelID]float64
}

// Kernels returns the kernels with non-zero call counts, in AllKernels order.
func (t Task) Kernels() []nn.KernelID {
	var ids []nn.KernelID
	for _, id := range nn.AllKernels() {
		if t.Calls[id] > 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// uniform builds a task calling each listed kernel once.
func uniform(name string, ids ...nn.KernelID) Task {
	calls := make(map[nn.KernelID]float64, len(ids))
	for _, id := range ids {
		calls[id] = 1
	}
	return Task{Name: name, Calls: calls}
}

// Paper task names (Table IV).
const (
	TaskAllKernels = "All kernels"
	TaskXR10       = "XR (10 kernels)"
	TaskAI10       = "AI (10 kernels)"
	TaskXR5        = "XR (5 kernels)"
	TaskAI5        = "AI (5 kernels)"
)

// PaperTasks returns the five tasks of Table IV in paper order.
func PaperTasks() []Task {
	return []Task{
		uniform(TaskAllKernels, nn.AllKernels()...),
		uniform(TaskXR10, nn.Agg3D, nn.ET, nn.JLP, nn.HRN, nn.UNet,
			nn.EFAN, nn.DN, nn.SR256, nn.SR512, nn.SR1024),
		uniform(TaskAI10, nn.RN18, nn.RN50, nn.RN152, nn.GN, nn.MN2,
			nn.Agg3D, nn.ET, nn.UNet, nn.JLP, nn.HRN),
		uniform(TaskXR5, nn.Agg3D, nn.HRN, nn.DN, nn.SR512, nn.SR1024),
		uniform(TaskAI5, nn.RN18, nn.RN50, nn.RN152, nn.GN, nn.MN2),
	}
}

// PaperTask returns the Table IV task with the given name.
func PaperTask(name string) (Task, error) {
	for _, t := range PaperTasks() {
		if t.Name == name {
			return t, nil
		}
	}
	return Task{}, fmt.Errorf("workload: unknown paper task %q", name)
}

// XRGamingSession models one second of the §IV-A motivating example — "an
// Extended Reality gaming task can include eye-tracking, motion-tracking,
// and gaming kernels" — with per-kernel call rates rather than uniform
// counts: tracking kernels run at camera rate, rendering-adjacent kernels at
// display rate, and super-resolution upscales every displayed frame.
func XRGamingSession() Task {
	return Task{
		Name: "XR gaming session (1 s)",
		Calls: map[nn.KernelID]float64{
			nn.ET:    90, // eye tracking at camera rate
			nn.JLP:   60, // hand tracking per frame
			nn.Agg3D: 30, // depth at half frame rate
			nn.EFAN:  10, // emotion sampling
			nn.SR512: 72, // super-resolve every displayed frame
		},
	}
}

// TotalCalls returns Σ_K N_{T,K}, the 1ᵀN row sum.
func (t Task) TotalCalls() float64 {
	var sum float64
	for _, n := range t.Calls {
		sum += n
	}
	return sum
}

// KernelCost is a hardware platform's per-call cost for one kernel: the
// kernel delay D_K and the dynamic energy P_dyn,K·D_K of eq. IV.4.
type KernelCost struct {
	Delay         units.Time
	DynamicEnergy units.Energy
}

// Platform abstracts the hardware target x: it prices individual kernels and
// exposes its leakage power. The accelerator simulator and the VR SoC model
// both implement it.
type Platform interface {
	// KernelCost returns the per-call delay and dynamic energy of kernel id.
	KernelCost(id nn.KernelID) (KernelCost, error)
	// LeakagePower is P_leak, burned for the whole task duration.
	LeakagePower() units.Power
}

// Cost is a task's evaluated delay and energy on a platform.
type Cost struct {
	Delay  units.Time   // D_T  (eq. IV.2)
	Energy units.Energy // E_T  (eq. IV.4), dynamic + leakage
}

// canonicalKernels caches the canonical kernel order once: Evaluate runs for
// every cell of every DSE grid, and re-materializing the order per call was
// one heap allocation per evaluated point. The slice is read-only.
var canonicalKernels = nn.AllKernels()

// Evaluate computes eq. IV.2 and IV.4 for one task:
//
//	D_T = Σ_K N_{T,K}·D_K
//	E_T = Σ_K N_{T,K}·P_dyn,K·D_K + P_leak·D_T
func Evaluate(t Task, p Platform) (Cost, error) {
	var c Cost
	// Iterate kernels in the canonical order (not map order) so that
	// floating-point accumulation — and therefore every downstream result —
	// is deterministic across runs.
	visited := 0
	for _, id := range canonicalKernels {
		n, ok := t.Calls[id]
		if !ok {
			continue
		}
		visited++
		if n == 0 {
			continue
		}
		if n < 0 {
			return Cost{}, fmt.Errorf("workload: task %q has negative call count for %s", t.Name, id)
		}
		kc, err := p.KernelCost(id)
		if err != nil {
			return Cost{}, fmt.Errorf("workload: task %q: %w", t.Name, err)
		}
		c.add(n, kc)
	}
	if visited != len(t.Calls) {
		return Cost{}, fmt.Errorf("workload: task %q references %d kernels outside the known set", t.Name, len(t.Calls)-visited)
	}
	c.Energy += p.LeakagePower().Over(c.Delay)
	return c, nil
}

// add accumulates one kernel's N_{T,K}-weighted delay and dynamic energy —
// the one place the sums of eq. IV.2 and IV.4 are written.
func (c *Cost) add(n float64, kc KernelCost) {
	c.Delay += units.Time(n) * kc.Delay
	c.Energy += units.Energy(n) * kc.DynamicEnergy
}

// Term is one non-zero entry of a task's N_{T,K} row, resolved for a hot
// loop: Slot indexes the caller's kernel-cost slice.
type Term struct {
	Slot int
	N    float64
}

// Terms resolves the task's non-zero call counts once, in canonical kernel
// order, with Slot set to each kernel's position in basis. It rejects
// exactly what Evaluate rejects, plus kernels absent from basis. Fold over
// the terms then repeats Evaluate's accumulation without a map lookup per
// kernel.
func (t Task) Terms(basis []nn.KernelID) ([]Term, error) {
	var terms []Term
	visited := 0
	for _, id := range canonicalKernels {
		n, ok := t.Calls[id]
		if !ok {
			continue
		}
		visited++
		if n == 0 {
			continue
		}
		if n < 0 {
			return nil, fmt.Errorf("workload: task %q has negative call count for %s", t.Name, id)
		}
		slot := slices.Index(basis, id)
		if slot < 0 {
			return nil, fmt.Errorf("workload: task %q: kernel %s is outside the evaluated basis", t.Name, id)
		}
		terms = append(terms, Term{Slot: slot, N: n})
	}
	if visited != len(t.Calls) {
		return nil, fmt.Errorf("workload: task %q references %d kernels outside the known set", t.Name, len(t.Calls)-visited)
	}
	return terms, nil
}

// Fold is Evaluate over resolved terms: costs[term.Slot] is the kernel cost
// the term weights, and leak the platform's leakage power. For terms from
// t.Terms it is bit-identical to Evaluate(t, p) on a platform pricing the
// same kernel costs.
func Fold(terms []Term, costs []KernelCost, leak units.Power) Cost {
	var c Cost
	for _, tm := range terms {
		c.add(tm.N, costs[tm.Slot])
	}
	c.Energy += leak.Over(c.Delay)
	return c
}
