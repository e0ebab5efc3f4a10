// Package device implements the circuit-level energy/delay model that §III
// and §VII of the paper reason about: an alpha-power-law MOSFET [42] whose
// design knobs are supply voltage (V_DD), threshold voltage (V_T), transistor
// width, and process technology node.
//
// The model is deliberately first-order — CORDOBA consumes only the *trade-off
// directions* between energy, delay and area that these knobs induce
// (Table VI), plus the historical observation that ED² is V_DD-independent
// only under the antiquated square-law assumptions (§III-A).
//
// Physics implemented:
//
//	I_on    ∝ W·(V_DD − V_T)^α              (alpha-power law; α≈1.3 today, 2 for square law)
//	delay   ∝ C_load·V_DD / I_on            (gate delay)
//	E_dyn   ∝ C_load·V_DD² per switching op (C_load ∝ W)
//	P_leak  ∝ W·V_DD·exp(−V_T / (n·v_T))    (subthreshold leakage)
package device

import (
	"fmt"
	"math"

	"cordoba/internal/units"
)

// ThermalVoltage is kT/q at room temperature, in volts.
const ThermalVoltage = 0.026

// Node describes a process technology node's first-order electrical scaling.
// Values are normalized to the 7 nm node (factor 1.0) and follow the
// diminishing-returns trends reported by imec's PPACE analysis [18], [39]:
// each successive node improves capacitance (hence dynamic energy) and delay,
// shrinks area, but the improvements shrink as nodes advance.
type Node struct {
	Name string
	Nm   int // drawn feature size in nanometres

	CapScale   float64 // load capacitance per unit width, normalized to 7 nm
	SpeedScale float64 // intrinsic speed multiplier, normalized to 7 nm
	AreaScale  float64 // area per gate, normalized to 7 nm
	VDDNominal float64 // nominal supply voltage, volts
	VTNominal  float64 // nominal threshold voltage, volts
	LeakScale  float64 // leakage per unit width, normalized to 7 nm
}

// nodes is the technology-node table from 28 nm down to 3 nm, oldest first.
// Nodes hands out copies; lookups read it in place.
var nodes = [...]Node{
	{"28nm", 28, 2.9, 0.42, 7.0, 0.90, 0.38, 0.45},
	{"20nm", 20, 2.3, 0.52, 4.7, 0.85, 0.36, 0.55},
	{"14nm", 14, 1.8, 0.65, 2.9, 0.80, 0.34, 0.70},
	{"10nm", 10, 1.35, 0.82, 1.7, 0.75, 0.32, 0.85},
	{"7nm", 7, 1.0, 1.0, 1.0, 0.70, 0.30, 1.0},
	{"5nm", 5, 0.82, 1.12, 0.65, 0.65, 0.28, 1.25},
	{"3nm", 3, 0.70, 1.22, 0.45, 0.60, 0.26, 1.55},
}

// Nodes returns the supported technology nodes from 28 nm down to 3 nm,
// ordered from oldest to newest.
func Nodes() []Node { return append([]Node(nil), nodes[:]...) }

// NodeByName returns the node with the given name.
func NodeByName(name string) (Node, error) {
	for i := range nodes {
		if nodes[i].Name == name {
			return nodes[i], nil
		}
	}
	return Node{}, fmt.Errorf("device: unknown technology node %q", name)
}

// Node7nm returns the 7 nm node, the anchor of the paper's case studies
// (Snapdragon XR2, the Fig. 5 accelerator, the 3D-stacked PDK of [54]).
func Node7nm() Node {
	n, err := NodeByName("7nm")
	if err != nil {
		panic(err)
	}
	return n
}

// Design is a digital circuit design point: a technology node plus the three
// circuit knobs of Table VI. The zero value is not usable; construct with
// NewDesign and adjust knobs from there.
type Design struct {
	Node Node

	VDD        float64 // supply voltage, volts
	VT         float64 // threshold voltage, volts
	WidthScale float64 // transistor width multiplier (∝ area), 1.0 nominal

	// Alpha is the alpha-power-law velocity-saturation exponent. Modern
	// short-channel devices have α≈1.3; the ideal Shockley square law is
	// α=2 (see §III-A's ED² discussion).
	Alpha float64

	// Gates is the logic size (number of gate-equivalents); LogicDepth is
	// the number of gate delays per clock cycle; ActivityFactor is the
	// fraction of gates switching per cycle.
	Gates          float64
	LogicDepth     float64
	ActivityFactor float64

	// SubthresholdN is the subthreshold slope ideality factor (1.0–1.5).
	SubthresholdN float64
}

// NewDesign returns a nominal design on node n: nominal voltages, unit width,
// modern α=1.3, one million gates of depth 20 with 10 % activity.
func NewDesign(n Node) Design {
	return Design{
		Node:           n,
		VDD:            n.VDDNominal,
		VT:             n.VTNominal,
		WidthScale:     1.0,
		Alpha:          1.3,
		Gates:          1e6,
		LogicDepth:     20,
		ActivityFactor: 0.1,
		SubthresholdN:  1.3,
	}
}

// Validate reports whether the design point is physically meaningful.
func (d Design) Validate() error {
	switch {
	case d.VDD <= 0:
		return fmt.Errorf("device: V_DD must be positive, got %v", d.VDD)
	case d.VT < 0:
		return fmt.Errorf("device: V_T must be non-negative, got %v", d.VT)
	case d.VDD <= d.VT:
		return fmt.Errorf("device: V_DD (%v) must exceed V_T (%v) for the gate to switch", d.VDD, d.VT)
	case d.WidthScale <= 0:
		return fmt.Errorf("device: width scale must be positive, got %v", d.WidthScale)
	case d.Alpha < 1 || d.Alpha > 2:
		return fmt.Errorf("device: alpha must be in [1,2], got %v", d.Alpha)
	case d.Gates <= 0 || d.LogicDepth <= 0:
		return fmt.Errorf("device: gates and logic depth must be positive")
	}
	return nil
}

// gateCap returns the load capacitance of one gate in farads. The constant
// fixes a 7 nm unit-width gate at 0.1 fF.
func (d Design) gateCap() float64 {
	const baseCap = 0.1e-15
	return baseCap * d.Node.CapScale * d.WidthScale
}

// onCurrent returns the drive current of one gate in amperes, per the
// alpha-power law. The constant fixes a 7 nm unit-width gate at nominal
// voltages to roughly 10 µA.
func (d Design) onCurrent() float64 {
	overdrive := d.VDD - d.VT
	if overdrive <= 0 {
		return 0
	}
	nominal := math.Pow(d.Node.VDDNominal-d.Node.VTNominal, d.Alpha)
	const baseCurrent = 10e-6
	return baseCurrent * d.Node.SpeedScale * d.WidthScale * math.Pow(overdrive, d.Alpha) / nominal
}

// GateDelay returns the switching delay of one gate.
func (d Design) GateDelay() units.Time {
	i := d.onCurrent()
	if i == 0 {
		return units.Time(math.Inf(1))
	}
	return units.Time(d.gateCap() * d.VDD / i)
}

// MaxClock returns the highest clock frequency the design can sustain:
// one critical path of LogicDepth gate delays per cycle.
func (d Design) MaxClock() units.Frequency {
	return units.Frequency(1 / (d.GateDelay().Seconds() * d.LogicDepth))
}

// DynamicEnergyPerCycle returns the switching energy of one clock cycle:
// activity·gates·C·V_DD².
func (d Design) DynamicEnergyPerCycle() units.Energy {
	return units.Energy(d.ActivityFactor * d.Gates * d.gateCap() * d.VDD * d.VDD)
}

// LeakagePower returns the static power of the whole design. The constant
// fixes a 7 nm unit-width gate at nominal V_T to 1 nW of leakage.
func (d Design) LeakagePower() units.Power {
	const baseLeak = 1e-9
	nominalExp := math.Exp(-d.Node.VTNominal / (d.SubthresholdN * ThermalVoltage))
	perGate := baseLeak * d.Node.LeakScale * d.WidthScale *
		(d.VDD / d.Node.VDDNominal) *
		math.Exp(-d.VT/(d.SubthresholdN*ThermalVoltage)) / nominalExp
	return units.Power(perGate * d.Gates)
}

// Area returns the silicon area of the design. The constant fixes a 7 nm
// gate-equivalent at 0.2 µm².
func (d Design) Area() units.Area {
	const baseAreaCM2 = 0.2e-8 // 0.2 µm² in cm²
	return units.Area(baseAreaCM2 * d.Node.AreaScale * d.WidthScale * d.Gates)
}

// TaskProfile evaluates the design running a task of the given cycle count at
// clock frequency f (capped at MaxClock): it returns the task delay and the
// total (dynamic + leakage) energy.
func (d Design) TaskProfile(cycles float64, f units.Frequency) (units.Time, units.Energy) {
	if max := d.MaxClock(); f > max {
		f = max
	}
	delay := units.Time(cycles / f.Hertz())
	dyn := units.Energy(cycles) * d.DynamicEnergyPerCycle()
	leak := d.LeakagePower().Over(delay)
	return delay, dyn + leak
}

// Run evaluates the task at the design's maximum clock.
func (d Design) Run(cycles float64) (units.Time, units.Energy) {
	return d.TaskProfile(cycles, d.MaxClock())
}

// EDPPerCycle returns the energy-delay product of one cycle at max clock,
// ignoring leakage — the classic Gonzalez–Horowitz figure of merit [19].
func (d Design) EDPPerCycle() float64 {
	return d.DynamicEnergyPerCycle().Joules() * d.GateDelay().Seconds() * d.LogicDepth
}

// ED2PPerCycle returns the energy-delay² product of one cycle at max clock,
// ignoring leakage.
func (d Design) ED2PPerCycle() float64 {
	cyc := d.GateDelay().Seconds() * d.LogicDepth
	return d.DynamicEnergyPerCycle().Joules() * cyc * cyc
}
