// Package accel is the analytical ML-accelerator simulator of paper Fig. 5:
// a MAC-array + activation-SRAM + LPDDR DRAM architecture in the style of
// the CICC'22 AR/VR accelerator [48] and Simba [44]. Given a neural-network
// kernel (internal/nn) and an accelerator configuration, it reports latency
// and energy per inference — the inputs to CORDOBA's eq. IV.2–IV.6 — plus
// die area and embodied carbon.
//
// The model is a roofline with an activation-spill term: each layer takes
// max(compute time, DRAM time), where DRAM traffic is the streamed weights
// plus the part of the activation working set that does not fit in on-chip
// SRAM (re-read with a tiling penalty). The paper's own simulator is
// cycle-validated against an FPGA; this analytical stand-in preserves the
// properties CORDOBA consumes — latency and energy as monotone, saturating
// functions of MAC count, SRAM capacity and kernel memory footprint
// (see DESIGN.md §2 for the substitution rationale).
package accel

import (
	"fmt"
	"math"

	"cordoba/internal/nn"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

// MACsPerArray is the number of multipliers in one MAC array; the paper's
// "16 MACs" (Fig. 8) and "1K MACs" (Fig. 11) notations both refer to arrays
// of 64: 16 arrays ≈ 1K multipliers, 32 arrays ≈ 2K.
const MACsPerArray = 64

// Params collects the technology constants of the simulator (7 nm values).
// They are exposed so that studies can recalibrate; Fig. 8/11 reproduction
// uses DefaultParams.
type Params struct {
	Clock  units.Frequency // accelerator clock
	DRAMBW units.Bandwidth // processor–memory bandwidth (LPDDR4: 16 GB/s, §V)

	MACEnergy units.Energy // energy per 8-bit MAC operation

	// SRAMEnergyBase/Slope give the per-byte SRAM access energy:
	// base + slope·√(capacity in MB) — bigger arrays have longer wires.
	SRAMEnergyBase  units.Energy
	SRAMEnergySlope units.Energy

	DRAMEnergyPerByte units.Energy // LPDDR access energy per byte

	// Utilization of the MAC arrays by op kind.
	ConvUtil, DWConvUtil, FCUtil float64

	// SaturationScale scales the per-layer array-count saturation. Each MAC
	// array tiles output pixels (or output channels, whichever is larger),
	// so a layer exposes s = scale·max(OutH·OutW, OutC)/MACsPerArray
	// arrays' worth of parallelism; n arrays then deliver the throughput of
	// n·s/(s+n) fully-utilized arrays. Low-resolution late layers therefore
	// cannot fill large arrays — the over-provisioning effect the DSE
	// explores (and the reason classification backbones favour small
	// accelerators while full-resolution XR kernels keep scaling).
	SaturationScale float64

	// SaturationCap bounds the per-layer saturation (in arrays): even
	// full-resolution layers eventually hit NoC/dataflow limits.
	SaturationCap float64

	// TilingPenalty multiplies spilled activation bytes. The effective
	// re-read factor grows with the capacity deficit —
	// TilingPenalty·(1 + log₂(workingSet/SRAM)) — because smaller tiles
	// force proportionally more halo/weight re-fetches.
	TilingPenalty float64

	// LayerOverhead is the fixed per-layer sequencing cost.
	LayerOverhead units.Time

	// Area model: base die overhead plus per-array and per-MB terms.
	BaseArea     units.Area
	AreaPerArray units.Area
	AreaPerMB    units.Area

	// Leakage model.
	BaseLeakage     units.Power
	LeakagePerArray units.Power
	LeakagePerMB    units.Power

	// PackagingPerDie/PerBond price assembly (see carbon.Packaging).
	PackagingPerDie  units.Carbon
	PackagingPerBond units.Carbon

	// 3D stacking adjustments (§VI-E, [54]): stacked activation memory is
	// reached through hybrid-bonded TSVs — cheaper per byte than long 2D
	// wires — and each die pays an area overhead for the TSV field.
	SRAM3DEnergyScale float64
	TSVAreaOverhead   float64
	DRAM3DBWScale     float64 // processor–memory bandwidth gain of stacking

	// D2D interconnect penalty for partitioned configurations (CarbonPATH /
	// ECO-CHIP style): activation traffic that crosses the die-to-die cut
	// pays link energy per byte, shares the link bandwidth, and each layer
	// pays a hop latency. 3D hybrid bonding is a much shorter wire: it
	// scales the energy and hop latency by D2D3DScale and multiplies the
	// bandwidth by 1/D2D3DScale. Each die also grows by D2DAreaOverhead for
	// the link PHY and redistribution.
	D2DEnergyPerByte   units.Energy
	D2DBandwidth       units.Bandwidth
	D2DLatencyPerLayer units.Time
	D2D3DScale         float64
	D2DAreaOverhead    float64
}

// DefaultParams returns the calibrated 7 nm constants used throughout the
// paper reproduction.
func DefaultParams() Params {
	return Params{
		Clock:  units.MHz(800),
		DRAMBW: units.GBps(16),

		MACEnergy:         0.2e-12,
		SRAMEnergyBase:    0.04e-12,
		SRAMEnergySlope:   0.12e-12,
		DRAMEnergyPerByte: 30e-12,

		ConvUtil:        0.85,
		DWConvUtil:      0.30,
		FCUtil:          0.60,
		SaturationScale: 0.1,
		SaturationCap:   32,

		TilingPenalty: 3.0,
		LayerOverhead: units.Time(2e-6),

		BaseArea:     units.MM2(0.15),
		AreaPerArray: units.MM2(1.0),
		AreaPerMB:    units.MM2(0.25),

		BaseLeakage:     0.005,
		LeakagePerArray: 0.012,
		LeakagePerMB:    0.004,

		PackagingPerDie:  10,
		PackagingPerBond: 10,

		SRAM3DEnergyScale: 0.7,
		TSVAreaOverhead:   0.08,
		DRAM3DBWScale:     4.0,

		// 2.5D organic/RDL links run ≈0.25 pJ/bit over a few hundred GB/s;
		// hybrid bonding cuts the wire an order of magnitude.
		D2DEnergyPerByte:   2e-12,
		D2DBandwidth:       units.GBps(256),
		D2DLatencyPerLayer: units.Time(50e-9),
		D2D3DScale:         0.1,
		D2DAreaOverhead:    0.05,
	}
}

// Integration styles a Partition can request. Monolithic (the zero value)
// keeps everything on one die — the exact legacy cost and carbon path.
const (
	IntegrationMonolithic = "monolithic"
	Integration25D        = "2.5d"
	Integration3D         = "3d"
)

// Partition describes how a configuration is cut into dies before packaging
// — the chiplet-pathfinding axis the DSE sweeps. The zero value means
// monolithic: single die, no interconnect penalty, bit-identical to the
// pre-partition pipeline.
type Partition struct {
	// Chiplets is the compute-chiplet count for 2.5d integration (the MAC
	// logic is split into equal chiplets beside one memory chiplet), or the
	// memory-tier count for 3d integration. 0 and 1 mean one compute die /
	// one memory tier.
	Chiplets int

	// Integration selects the assembly: "" or "monolithic" (single die),
	// "2.5d" (chiplets side by side on a carrier), "3d" (stacked tiers).
	Integration string

	// ChipletNode names the technology node the memory chiplet is
	// fabricated on — the mixed-node reuse lever: SRAM barely shrinks past
	// 14 nm, so an older, lower-footprint node often prices better. Empty
	// keeps the logic node.
	ChipletNode string

	// Carrier names the 2.5d carrier technology ("rdl-fanout",
	// "silicon-interposer", "emib"); empty keeps the carbon backend's
	// default. Ignored for monolithic and 3d integration.
	Carrier string

	// MemAreaScale rescales the memory chiplet's silicon area to
	// ChipletNode (the area-per-gate ratio between the memory node and the
	// logic node); 0 keeps the logic node's density. The DSE grid sets it
	// from internal/device's node table; direct users who leave it zero get
	// a same-density approximation.
	MemAreaScale float64
}

// Active reports whether the partition actually cuts the die.
func (p Partition) Active() bool {
	return p.Integration == Integration25D || p.Integration == Integration3D
}

func (p Partition) is3D() bool { return p.Integration == Integration3D }

// count returns the compute-chiplet (2.5d) or memory-tier (3d) count,
// defaulting to 1.
func (p Partition) count() int {
	if p.Chiplets > 1 {
		return p.Chiplets
	}
	return 1
}

// memScale returns the memory-node area ratio, defaulting to 1.
func (p Partition) memScale() float64 {
	if p.MemAreaScale > 0 {
		return p.MemAreaScale
	}
	return 1
}

// validate checks the partition spec in isolation.
func (p Partition) validate() error {
	switch p.Integration {
	case "", IntegrationMonolithic, Integration25D, Integration3D:
	default:
		return fmt.Errorf("unknown integration style %q (want monolithic, 2.5d or 3d)", p.Integration)
	}
	if p.Chiplets < 0 {
		return fmt.Errorf("chiplet count must be non-negative, got %d", p.Chiplets)
	}
	if p.MemAreaScale < 0 {
		return fmt.Errorf("memory area scale must be non-negative, got %v", p.MemAreaScale)
	}
	return nil
}

// Config is one accelerator design point: the (MAC arrays, SRAM capacity)
// pair swept in Fig. 8, optionally 3D-stacked (Fig. 11).
type Config struct {
	ID        string
	MACArrays int
	SRAM      units.Bytes

	// Is3D marks a 3D-stacked configuration: the activation memory lives on
	// MemDies separately fabricated dies hybrid-bonded on top of the logic
	// die [54]. It predates Partition and stays supported for the legacy
	// Fig. 11 path; it cannot be combined with an active Partition.
	Is3D    bool
	MemDies int

	// Partition cuts the design into chiplets or tiers; the zero value is
	// monolithic (see Partition).
	Partition Partition

	Params Params
}

// New returns a 2D configuration with default parameters.
func New(id string, arrays int, sram units.Bytes) Config {
	return Config{ID: id, MACArrays: arrays, SRAM: sram, Params: DefaultParams()}
}

// Validate reports whether the configuration is well-formed.
func (c Config) Validate() error {
	switch {
	case c.MACArrays <= 0:
		return fmt.Errorf("accel: %s: MAC arrays must be positive, got %d", c.ID, c.MACArrays)
	case c.SRAM <= 0:
		return fmt.Errorf("accel: %s: SRAM must be positive, got %v", c.ID, c.SRAM)
	case c.Is3D && c.MemDies < 1:
		return fmt.Errorf("accel: %s: 3D config needs at least one memory die", c.ID)
	case c.Params.Clock <= 0 || c.Params.DRAMBW <= 0:
		return fmt.Errorf("accel: %s: params not initialized (use New or set Params)", c.ID)
	case c.Is3D && c.Partition.Active():
		return fmt.Errorf("accel: %s: legacy Is3D and an active Partition are mutually exclusive", c.ID)
	}
	// The pricing kernel (price in shape.go) multiplies these without a
	// guard, which equals the direct path only for finite, non-negative
	// values: an infinite MAC energy times a memory-only layer's zero MACs
	// would be NaN where the direct path prices 0. Signbit rejects -0 too.
	for _, f := range [...]struct {
		name string
		v    units.Energy
	}{
		{"MACEnergy", c.Params.MACEnergy},
		{"SRAMEnergyBase", c.Params.SRAMEnergyBase},
		{"SRAMEnergySlope", c.Params.SRAMEnergySlope},
		{"DRAMEnergyPerByte", c.Params.DRAMEnergyPerByte},
	} {
		if v := float64(f.v); math.Signbit(v) || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("accel: %s: %s must be finite and non-negative, got %g J", c.ID, f.name, v)
		}
	}
	if err := c.Partition.validate(); err != nil {
		return fmt.Errorf("accel: %s: partition: %v", c.ID, err)
	}
	return nil
}

// TotalMACs returns the number of multipliers.
func (c Config) TotalMACs() int { return c.MACArrays * MACsPerArray }

// sramEnergyPerByte returns the per-byte access energy of the activation
// memory, accounting for capacity and 3D stacking.
func (c *Config) sramEnergyPerByte() units.Energy {
	mb := c.SRAM.InMB()
	e := c.Params.SRAMEnergyBase + c.Params.SRAMEnergySlope*units.Energy(math.Sqrt(mb))
	if c.Is3D || c.Partition.is3D() {
		e *= units.Energy(c.Params.SRAM3DEnergyScale)
	}
	return e
}

// dramBandwidth returns the effective processor–memory bandwidth.
func (c *Config) dramBandwidth() units.Bandwidth {
	if c.Is3D || c.Partition.is3D() {
		return c.Params.DRAMBW * units.Bandwidth(c.Params.DRAM3DBWScale)
	}
	return c.Params.DRAMBW
}

// d2dCost is a partition's resolved interconnect pricing, hoisted out of the
// per-layer loop so the memoized shape replay (ShapeProfile.Cost) and the
// direct path share it without drift.
type d2dCost struct {
	energyPB units.Energy
	bw       float64 // bytes per second across the cut
	hop      units.Time
}

// d2d resolves the partition's interconnect pricing; ok is false for
// monolithic configurations, which keep the exact legacy cost path.
func (c *Config) d2d() (d2dCost, bool) {
	if !c.Partition.Active() {
		return d2dCost{}, false
	}
	d := d2dCost{
		energyPB: c.Params.D2DEnergyPerByte,
		bw:       c.Params.D2DBandwidth.BytesPerSecond(),
		hop:      c.Params.D2DLatencyPerLayer,
	}
	if c.Partition.is3D() {
		s := c.Params.D2D3DScale
		d.energyPB *= units.Energy(s)
		d.bw /= s
		d.hop *= units.Time(s)
	}
	return d, true
}

// LayerCost breaks down the simulation of one layer.
type LayerCost struct {
	ComputeTime units.Time
	MemoryTime  units.Time
	D2DTime     units.Time // die-to-die link transfer (partitioned configs)
	Time        units.Time // max(compute, memory, d2d) + overhead (+ hop)

	MACEnergy  units.Energy
	SRAMEnergy units.Energy
	DRAMEnergy units.Energy
	D2DEnergy  units.Energy // link energy of activation bytes crossing the cut

	DRAMTraffic units.Bytes // weights + spilled activations
}

// Energy returns the layer's total dynamic energy.
func (lc LayerCost) Energy() units.Energy {
	return lc.MACEnergy + lc.SRAMEnergy + lc.DRAMEnergy + lc.D2DEnergy
}

// utilization returns the MAC-array utilization for a layer kind.
func (c *Config) utilization(kind nn.OpKind) float64 {
	switch kind {
	case nn.OpConv:
		return c.Params.ConvUtil
	case nn.OpDepthwiseConv:
		return c.Params.DWConvUtil
	case nn.OpFC:
		return c.Params.FCUtil
	default:
		return 1
	}
}

// layerShape holds the knob-invariant quantities of one layer on one
// configuration shape: MAC work, saturated effective throughput (before the
// clock is applied), and the byte counts that move through each level of the
// memory hierarchy. Everything the DVFS/energy knobs can rescale (clock,
// per-op energies) is deliberately absent, so a ShapeProfile built from
// these replays under different knob settings (see shape.go).
type layerShape struct {
	layerCompute
	layerMem
}

// layerCompute is the SRAM-independent half of a layer shape.
type layerCompute struct {
	macs    float64 // MAC count; 0 for memory-only layers
	effBase float64 // saturated arrays × MACsPerArray × utilization, clock excluded
}

// layerMem is the SRAM-dependent half of a layer shape.
type layerMem struct {
	sram units.Bytes // bytes traversing the activation memory, incl. spill re-reads
	dram units.Bytes // weights + spilled activations
}

// layerShape computes the knob-invariant part of one layer's simulation.
func (c *Config) layerShape(l *nn.Layer) layerShape {
	return layerShape{c.layerCompute(l), c.layerMem(l)}
}

// layerCompute computes the compute roofline with per-layer saturation:
// the layer's exposed parallelism bounds how many arrays it can keep busy.
func (c *Config) layerCompute(l *nn.Layer) layerCompute {
	lc := layerCompute{macs: l.MACs()}
	if lc.macs > 0 {
		n := float64(c.MACArrays)
		par := float64(l.OutH * l.OutW)
		if ch := float64(l.OutC); ch > par {
			par = ch
		}
		s := c.Params.SaturationScale * par / MACsPerArray
		if cap := c.Params.SaturationCap; cap > 0 && s > cap {
			s = cap
		}
		if s > 0 {
			n = n * s / (s + n)
		}
		lc.effBase = n * MACsPerArray * c.utilization(l.Kind)
	}
	return lc
}

// layerMem computes the activation traffic: the whole working set moves
// through the on-chip memory hierarchy; the part that does not fit spills
// to DRAM and is re-fetched with a tiling penalty.
func (c *Config) layerMem(l *nn.Layer) layerMem {
	ws := l.WorkingSet()
	lm := layerMem{sram: ws}
	var spill units.Bytes
	if ws > c.SRAM {
		penalty := c.Params.TilingPenalty * (1 + math.Log2(float64(ws/c.SRAM)))
		spill = (ws - c.SRAM) * units.Bytes(penalty)
		lm.sram = c.SRAM + spill // spilled tiles still pass through SRAM
	}
	lm.dram = spill + l.WeightBytes()
	return lm
}

// layerCostOf prices a layer shape under the configuration's clock and
// energy parameters. LayerCost and ShapeProfile.Cost both go through this
// helper so the direct and memoized paths cannot drift — their results are
// bit-identical by construction.
func (c *Config) layerCostOf(ls layerShape) LayerCost {
	var lc LayerCost
	if ls.macs > 0 {
		eff := ls.effBase * c.Params.Clock.Hertz()
		lc.ComputeTime = units.Time(ls.macs / eff)
		lc.MACEnergy = c.Params.MACEnergy * units.Energy(ls.macs)
	}
	lc.DRAMTraffic = ls.dram
	lc.SRAMEnergy = c.sramEnergyPerByte() * units.Energy(ls.sram)
	lc.DRAMEnergy = c.Params.DRAMEnergyPerByte * units.Energy(ls.dram)
	lc.MemoryTime = units.Time(float64(ls.dram) / c.dramBandwidth().BytesPerSecond())

	// Partitioned configurations pay for the cut: every activation byte
	// crosses the die-to-die link. Monolithic configs take none of these
	// branches and stay bit-identical to the legacy path.
	d2, cut := c.d2d()
	if cut {
		lc.D2DEnergy = d2.energyPB * units.Energy(ls.sram)
		lc.D2DTime = units.Time(float64(ls.sram) / d2.bw)
	}

	lc.Time = lc.ComputeTime
	if lc.MemoryTime > lc.Time {
		lc.Time = lc.MemoryTime
	}
	if lc.D2DTime > lc.Time {
		lc.Time = lc.D2DTime
	}
	lc.Time += c.Params.LayerOverhead
	if cut {
		lc.Time += d2.hop
	}
	return lc
}

// LayerCost simulates one layer on the configuration.
func (c Config) LayerCost(l nn.Layer) LayerCost {
	return c.layerCostOf(c.layerShape(&l))
}

// KernelProfile aggregates a whole network's simulation.
type KernelProfile struct {
	Kernel      nn.KernelID
	Delay       units.Time
	Energy      units.Energy // dynamic only; leakage is added at task level
	DRAMTraffic units.Bytes

	// Breakdown of time and dynamic energy.
	ComputeTime units.Time
	MemoryTime  units.Time
	MACEnergy   units.Energy
	SRAMEnergy  units.Energy
	DRAMEnergy  units.Energy
	D2DEnergy   units.Energy // zero for monolithic configurations
}

// Profile simulates a kernel end-to-end.
func (c Config) Profile(id nn.KernelID) (KernelProfile, error) {
	if err := c.Validate(); err != nil {
		return KernelProfile{}, err
	}
	net, err := nn.Kernel(id)
	if err != nil {
		return KernelProfile{}, err
	}
	p := KernelProfile{Kernel: id}
	for _, l := range net.Layers {
		lc := c.LayerCost(l)
		p.Delay += lc.Time
		p.Energy += lc.Energy()
		p.DRAMTraffic += lc.DRAMTraffic
		p.ComputeTime += lc.ComputeTime
		p.MemoryTime += lc.MemoryTime
		p.MACEnergy += lc.MACEnergy
		p.SRAMEnergy += lc.SRAMEnergy
		p.DRAMEnergy += lc.DRAMEnergy
		p.D2DEnergy += lc.D2DEnergy
	}
	return p, nil
}

// KernelCost implements workload.Platform.
func (c Config) KernelCost(id nn.KernelID) (workload.KernelCost, error) {
	p, err := c.Profile(id)
	if err != nil {
		return workload.KernelCost{}, err
	}
	return workload.KernelCost{Delay: p.Delay, DynamicEnergy: p.Energy}, nil
}

// LeakagePower implements workload.Platform: static power of logic + SRAM.
func (c Config) LeakagePower() units.Power {
	return c.Params.BaseLeakage +
		c.Params.LeakagePerArray*units.Power(c.MACArrays) +
		c.Params.LeakagePerMB*units.Power(c.SRAM.InMB())
}

// LogicArea returns the logic-die area: control plus MAC arrays, plus — for
// 2D designs — the activation SRAM on the same die.
func (c Config) LogicArea() units.Area {
	a := c.coreLogicArea()
	if !c.Is3D {
		a += c.SRAMArea()
	}
	if c.Is3D {
		a *= units.Area(1 + c.Params.TSVAreaOverhead)
	}
	return a
}

// coreLogicArea is the MAC + control logic area, excluding the activation
// SRAM — the part a partition splits across compute chiplets.
func (c Config) coreLogicArea() units.Area {
	return c.Params.BaseArea + c.Params.AreaPerArray*units.Area(c.MACArrays)
}

// SRAMArea returns the silicon area of the activation memory.
func (c Config) SRAMArea() units.Area {
	return c.Params.AreaPerMB * units.Area(c.SRAM.InMB())
}

// MemDieArea returns the area of one stacked memory die (3D configs only):
// an equal share of the SRAM plus the TSV field overhead.
func (c Config) MemDieArea() units.Area {
	if !c.Is3D || c.MemDies == 0 {
		return 0
	}
	per := c.SRAMArea() / units.Area(c.MemDies)
	return per * units.Area(1+c.Params.TSVAreaOverhead)
}

// TotalArea returns the total silicon area across all dies.
func (c Config) TotalArea() units.Area {
	switch {
	case c.Partition.Active():
		return c.partitionArea()
	case c.Is3D:
		return c.LogicArea() + c.MemDieArea()*units.Area(c.MemDies)
	}
	return c.LogicArea()
}

// partitionArea sums the silicon across the dies of a partitioned
// configuration: the compute logic plus the memory chiplet rescaled to its
// node, each inflated by the integration's per-die overhead (TSV field for
// 3d, link PHY for 2.5d). The compute split cancels out of the sum — n
// chiplets of core/n·overhead total core·overhead.
func (c Config) partitionArea() units.Area {
	mem := c.SRAMArea() * units.Area(c.Partition.memScale())
	oh := units.Area(1 + c.Params.D2DAreaOverhead)
	if c.Partition.is3D() {
		oh = units.Area(1 + c.Params.TSVAreaOverhead)
	}
	return (c.coreLogicArea() + mem) * oh
}
