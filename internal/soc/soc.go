// Package soc models the hardware-provisioning case study of §VI-D: a Meta
// Quest 2-class VR system-on-chip (Snapdragon XR2: a 7 nm octa-core CPU with
// four "gold" performance cores — one of them a prime core — and four
// "silver" efficiency cores), the thread-level-parallelism profiles of its
// top production tasks, and the tCDP effect of removing cores (eq. VI.10–12).
//
// The paper profiles deployed headsets with Simpleperf and Perfetto; this
// package substitutes synthetic TLP occupancy histograms calibrated to the
// paper's published measurements — TLP between 3.52 and 4.15, and a media
// task (M-1) that keeps 0.98× of its frame rate on 4 cores (Table V). See
// DESIGN.md §2.
package soc

import (
	"fmt"
	"math"

	"cordoba/internal/metrics"
	"cordoba/internal/units"
)

// MaxCores is the XR2's CPU core count.
const MaxCores = 8

// TLPProfile is a thread-occupancy histogram: Fraction[k-1] is the share of
// busy time during which exactly k threads are runnable.
type TLPProfile struct {
	Fraction [MaxCores]float64
}

// Validate checks the histogram sums to one.
func (p TLPProfile) Validate() error {
	sum := 0.0
	for k, f := range p.Fraction {
		if f < 0 {
			return fmt.Errorf("soc: negative occupancy fraction at %d threads", k+1)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("soc: occupancy fractions sum to %v, want 1", sum)
	}
	return nil
}

// TLP returns the mean thread-level parallelism: Σ k·t_k, the metric of
// [6], [15], [17] that §VI-D uses to quantify over-provisioning.
func (p TLPProfile) TLP() float64 {
	tlp := 0.0
	for k, f := range p.Fraction {
		tlp += float64(k+1) * f
	}
	return tlp
}

// Slowdown returns the execution-time multiplier of running the profile on n
// cores instead of MaxCores, assuming work-conserving scheduling: phases
// with k ≤ n runnable threads are unaffected; phases with k > n stretch by
// k/n.
func (p TLPProfile) Slowdown(n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	s := 0.0
	for k, f := range p.Fraction {
		threads := k + 1
		if threads > n {
			s += f * float64(threads) / float64(n)
		} else {
			s += f
		}
	}
	return s
}

// RelativeFPS returns the frame rate on n cores relative to MaxCores
// (the Fig. 10 / Table V "normalized FPS").
func (p TLPProfile) RelativeFPS(n int) float64 {
	return 1 / p.Slowdown(n)
}

// VRTask is one of the profiled production tasks.
type VRTask struct {
	Name     string // paper label, e.g. "M-1"
	Category string // general gaming, social gaming, browser, media
	Profile  TLPProfile
}

// Paper task labels (§VI-D).
const (
	TaskG2  = "G-2"
	TaskM1  = "M-1"
	TaskB1  = "B-1"
	TaskSG1 = "SG-1"
	TaskAll = "All Tasks"
)

// PaperVRTasks returns the four §VI-D tasks plus the "All Tasks" aggregate
// (the uniform mixture of the four). Histograms are calibrated so that TLP
// falls in the paper's measured 3.52–4.15 range and M-1 reproduces Table V.
func PaperVRTasks() []VRTask {
	g2 := VRTask{TaskG2, "general gaming", TLPProfile{
		[MaxCores]float64{0.05, 0.10, 0.20, 0.45, 0.12, 0.05, 0.02, 0.01}}}
	m1 := VRTask{TaskM1, "media", TLPProfile{
		[MaxCores]float64{0.05, 0.10, 0.17, 0.64, 0.03, 0.01, 0, 0}}}
	b1 := VRTask{TaskB1, "browser & virtual desktop", TLPProfile{
		[MaxCores]float64{0.06, 0.10, 0.16, 0.30, 0.20, 0.13, 0.03, 0.02}}}
	sg1 := VRTask{TaskSG1, "social gaming", TLPProfile{
		[MaxCores]float64{0.06, 0.10, 0.16, 0.30, 0.18, 0.12, 0.05, 0.03}}}

	var all TLPProfile
	for _, t := range []VRTask{g2, m1, b1, sg1} {
		for k := range all.Fraction {
			all.Fraction[k] += t.Profile.Fraction[k] / 4
		}
	}
	return []VRTask{g2, m1, b1, sg1, {TaskAll, "aggregate", all}}
}

// PaperVRTask returns a task by label.
func PaperVRTask(name string) (VRTask, error) {
	for _, t := range PaperVRTasks() {
		if t.Name == name {
			return t, nil
		}
	}
	return VRTask{}, fmt.Errorf("soc: unknown VR task %q", name)
}

// Provision is a core configuration: how many silver and gold cores are
// powered and counted (eq. VI.12's inclusion mask).
type Provision struct {
	Silver, Gold int // gold includes the prime core
}

// Cores returns the total core count.
func (p Provision) Cores() int { return p.Silver + p.Gold }

// Mask returns the eq. VI.12 inclusion vector over the XR2's physical cores,
// ordered [silver 1-4, gold 1-3, prime gold].
func (p Provision) Mask() [MaxCores]bool {
	var m [MaxCores]bool
	for i := 0; i < p.Silver && i < 4; i++ {
		m[i] = true
	}
	for i := 0; i < p.Gold && i < 4; i++ {
		m[4+i] = true
	}
	return m
}

// ProvisionFor returns the §VI-D core-removal schedule for n total cores:
// cores are removed in gold/silver pairs (8 = 4+4, 7 = 4s+3g, 6 = 3+3,
// 5 = 3s+2g, 4 = 2+2, matching Table V's "2 gold + 2 silver" endpoint).
func ProvisionFor(n int) (Provision, error) {
	schedule := map[int]Provision{
		4: {2, 2}, 5: {3, 2}, 6: {3, 3}, 7: {4, 3}, 8: {4, 4},
	}
	p, ok := schedule[n]
	if !ok {
		return Provision{}, fmt.Errorf("soc: provisioning supports 4–8 cores, got %d", n)
	}
	return p, nil
}

// PowerModel selects how SoC power responds to provisioning.
type PowerModel int

const (
	// FixedPower is Table V's assumption: the same work runs on fewer
	// cores at unchanged total power (P 8.3 W before and after).
	FixedPower PowerModel = iota
	// ScaledPower lets power shrink with the active core count:
	// P(n) = P·(uncoreFraction + (1−uncoreFraction)·n/MaxCores). It is the
	// ablation of the fixed-power assumption.
	ScaledPower
)

// SoC holds the Quest 2-class platform constants.
type SoC struct {
	// Per-core embodied footprints (eq. VI.12 vector entries). Table V:
	// a gold core is 895.89 gCO2e; a silver core is half of that.
	GoldEmbodied, SilverEmbodied units.Carbon

	// Die-area model: uncore plus per-core slices (Table V's area row).
	UncoreArea, GoldArea, SilverArea units.Area

	// Power is the total SoC power while active (Table V holds it fixed
	// across provisioning: the same work runs on fewer cores).
	Power units.Power

	// TaskDelay is the baseline (8-core) execution time of one task run
	// (Table III: D = 40 s for M-1).
	TaskDelay units.Time

	// CIUse is the use-phase carbon intensity.
	CIUse units.CarbonIntensity

	// OperationalTime is the active use over the device lifetime at the
	// 8-core baseline; provisioning that slows tasks down stretches it.
	OperationalTime units.Time

	// PowerModel selects fixed (Table V) or core-scaled power;
	// UncorePowerFraction is the share of Power that does not scale with
	// cores (GPU, memory, display pipeline) under ScaledPower.
	PowerModel          PowerModel
	UncorePowerFraction float64
}

// power returns the SoC power draw with n cores active.
func (s SoC) power(n int) units.Power {
	if s.PowerModel != ScaledPower {
		return s.Power
	}
	frac := s.UncorePowerFraction
	if frac < 0 || frac > 1 {
		frac = 0.4
	}
	return units.Power(s.Power.Watts() * (frac + (1-frac)*float64(n)/MaxCores))
}

// Quest2 returns the platform calibrated to Table V: 8.3 W, 40 s per M-1
// task run (332 J), CI_use = 380 g/kWh, and an operational time chosen so
// that the 8-core total carbon matches the published 12 273 gCO2e.
func Quest2() SoC {
	return SoC{
		GoldEmbodied:    895.89,
		SilverEmbodied:  447.945,
		UncoreArea:      0.45,
		GoldArea:        0.30,
		SilverArea:      0.15,
		Power:           8.3,
		TaskDelay:       40,
		CIUse:           380,
		OperationalTime: units.Hours(2187.3),
	}
}

// Embodied returns the summed per-core embodied carbon of a provision —
// the eq. VI.12 dot product.
func (s SoC) Embodied(p Provision) units.Carbon {
	return units.Carbon(p.Gold)*s.GoldEmbodied + units.Carbon(p.Silver)*s.SilverEmbodied
}

// Area returns the die area of a provision (uncore plus core slices).
func (s SoC) Area(p Provision) units.Area {
	return s.UncoreArea + units.Area(p.Gold)*s.GoldArea + units.Area(p.Silver)*s.SilverArea
}

// Evaluate returns the lifetime metrics report of running task t with n
// cores: delay stretches by the TLP slowdown, energy follows (fixed power),
// operational carbon follows energy, and embodied carbon follows the
// provision.
func (s SoC) Evaluate(t VRTask, n int) (metrics.Report, error) {
	p, err := ProvisionFor(n)
	if err != nil {
		return metrics.Report{}, err
	}
	if err := t.Profile.Validate(); err != nil {
		return metrics.Report{}, err
	}
	slow := t.Profile.Slowdown(n)
	power := s.power(n)
	delay := units.Time(s.TaskDelay.Seconds() * slow)
	energy := power.Over(delay)
	opTime := units.Time(s.OperationalTime.Seconds() * slow)
	return metrics.Report{
		Name:              fmt.Sprintf("%s/%d-core", t.Name, n),
		Delay:             delay,
		Energy:            energy,
		EmbodiedCarbon:    s.Embodied(p),
		OperationalCarbon: s.CIUse.Of(power.Over(opTime)),
		Tasks:             opTime.Seconds() / delay.Seconds(),
	}, nil
}

// CoreResult is one bar of Fig. 10.
type CoreResult struct {
	Cores       int
	Report      metrics.Report
	RelativeFPS float64
	TCDPGain    float64 // tCDP(8 cores) / tCDP(n cores); > 1 is an improvement
}

// Sweep evaluates the task across 4–8 cores (Fig. 10).
func (s SoC) Sweep(t VRTask) ([]CoreResult, error) {
	base, err := s.Evaluate(t, MaxCores)
	if err != nil {
		return nil, err
	}
	var out []CoreResult
	for n := 4; n <= MaxCores; n++ {
		r, err := s.Evaluate(t, n)
		if err != nil {
			return nil, err
		}
		out = append(out, CoreResult{
			Cores:       n,
			Report:      r,
			RelativeFPS: t.Profile.RelativeFPS(n),
			TCDPGain:    base.TCDP() / r.TCDP(),
		})
	}
	return out, nil
}

// OptimalCores returns the core count minimizing tCDP for the task (the
// starred configurations of Fig. 10).
func (s SoC) OptimalCores(t VRTask) (int, error) {
	res, err := s.Sweep(t)
	if err != nil {
		return 0, err
	}
	best, bestV := 0, math.Inf(1)
	for _, r := range res {
		if v := r.Report.TCDP(); v < bestV {
			best, bestV = r.Cores, v
		}
	}
	return best, nil
}
