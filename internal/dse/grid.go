package dse

import (
	"fmt"
	"math"
	"strconv"

	"cordoba/internal/accel"
	"cordoba/internal/carbon"
	"cordoba/internal/device"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

// Grid is a lazy cartesian design-space generator: the v2 request form of
// POST /v1/dse. Instead of materializing a []accel.Config, callers describe
// knob ranges — MAC-array count, activation-SRAM capacity, DVFS supply
// scaling and technology node — and the engine enumerates the product space
// on demand, one configuration at a time. A 10⁶-point grid therefore costs
// four small slices, not a million Config values.
//
// The circuit knobs go through internal/device: each (node, V_DD scale)
// cell is priced by the alpha-power-law model relative to the nominal 7 nm
// design that calibrated accel.DefaultParams, and the resulting clock,
// dynamic-energy, leakage and area ratios rescale the simulator parameters.
// Embodied carbon uses each node's own carbon.Process, so advancing the
// node trades operational energy against fab footprint exactly as §VII's
// Table VI describes.
//
// Enumeration order is shape-major: all (V_DD, node) cells of one
// (MAC arrays, SRAM) pair are contiguous. The streaming engine leans on
// this — a shape's kernel layer profiles (accel.ShapeProfile) are computed
// once and replayed across every cell in the run.
type Grid struct {
	MACArrays []int     // MAC-array axis; required
	SRAMMB    []float64 // activation-SRAM axis in MB; required
	VDDScales []float64 // V_DD as a fraction of nominal; default {1.0}
	Nodes     []string  // technology nodes by name; default {"7nm"}
	// Models lists embodied-carbon backends by carbon.ModelByName name
	// ("act", "chiplet", "stacked-3d"), turning the accounting model itself
	// into a sweep axis. Empty keeps the default ACT pipeline and leaves
	// Point.Model blank, exactly as before the knob existed.
	Models []string

	// Partition axes (chiplet pathfinding). All default to absent, which
	// keeps every point monolithic and the enumeration bit-identical to the
	// pre-partition grid. The new axes carry `omitempty` JSON tags so
	// checkpoint fingerprints of partition-free grids also stay identical.
	//
	// Integrations sweeps the integration style ("monolithic", "2.5d",
	// "3d"). When Models is empty each style is priced by its natural
	// backend (monolithic → ACT, 2.5d → chiplet, 3d → stacked-3d); an
	// explicit Models axis is crossed with Integrations and every
	// combination must be priceable (carbon.ModelSupportsIntegration).
	Integrations []string `json:",omitempty"`
	// Chiplets sweeps the compute-chiplet count (2.5d) / memory-tier count
	// (3d); values 0 and 1 mean a single compute die or memory tier.
	// Ignored by monolithic cells.
	Chiplets []int `json:",omitempty"`
	// ChipletNodes sweeps the memory chiplet's technology node (mixed-node
	// reuse); "" keeps the logic node. Ignored by monolithic cells.
	ChipletNodes []string `json:",omitempty"`
	// Carrier names the 2.5d carrier technology for every partitioned cell
	// ("rdl-fanout", "silicon-interposer", "emib"); "" keeps the chiplet
	// backend's default.
	Carrier string `json:",omitempty"`
}

// maxGridBits bounds Size() so index arithmetic cannot overflow; real grids
// are far smaller (the server applies its own request-size cap on top).
const maxGridBits = 40

// normalized returns the grid with defaults applied.
func (g Grid) normalized() Grid {
	if len(g.VDDScales) == 0 {
		g.VDDScales = []float64{1.0}
	}
	if len(g.Nodes) == 0 {
		g.Nodes = []string{"7nm"}
	}
	return g
}

// axisLen treats an absent axis as one default slot.
func axisLen(n int) int64 {
	if n == 0 {
		return 1
	}
	return int64(n)
}

// Size returns the number of configurations the grid enumerates, after
// defaults are applied.
func (g Grid) Size() int64 {
	g = g.normalized()
	return int64(len(g.MACArrays)) * int64(len(g.SRAMMB)) *
		int64(len(g.VDDScales)) * int64(len(g.Nodes)) *
		axisLen(len(g.Models)) * axisLen(len(g.Integrations)) *
		axisLen(len(g.Chiplets)) * axisLen(len(g.ChipletNodes))
}

// gridCell is one compiled (V_DD scale, node, model) combination: the
// parameter ratios relative to the nominal 7 nm calibration point, the node's
// embodied-carbon process, and the accounting backend pricing the cell.
type gridCell struct {
	vddScale float64
	node     string
	process  carbon.Process

	// model prices the cell's embodied carbon; nil means the default ACT
	// pipeline (no Models axis requested) and keeps Point.Model blank.
	model     carbon.Model
	modelName string

	clockR  float64 // max-clock ratio vs nominal 7 nm
	energyR float64 // dynamic energy per cycle ratio
	leakR   float64 // leakage power ratio
	areaR   float64 // area per gate ratio

	// partition is the cell's resolved partition spec (zero for monolithic
	// cells — the legacy path, cut for cut). applyCell copies it onto the
	// configuration; MemAreaScale is pre-resolved from the device model's
	// node area ratios.
	partition accel.Partition

	// embClass indexes the cell's embodied-carbon equivalence class: cells
	// sharing (node process, accounting model, area ratio, partition) price
	// any given shape to bit-identical embodied carbon, so the streaming
	// engine computes it once per (shape, class) instead of once per cell —
	// V_DD only rescales clock/energy/leakage, never the fab footprint.
	embClass int

	// costClass indexes the cell's kernel-cost class: cells sharing (clock
	// ratio, energy ratio, integration style) resolve to the same
	// accel.Pricing on every shape, so the engine replays each kernel once
	// per (shape, class). The D2D cost ignores chiplet count and chiplet
	// node, and the Models axis never enters the roofline.
	costClass int
}

// compiledGrid is a validated grid with its cells priced by the device
// model, ready for O(1) random access.
type compiledGrid struct {
	g          Grid
	cells      []gridCell
	embClasses int   // distinct embodied-carbon classes across cells
	costReps   []int // one representative cell index per kernel-cost class
}

// firstDup returns the first value that repeats in xs.
func firstDup[T comparable](xs []T) (T, bool) {
	seen := make(map[T]struct{}, len(xs))
	for _, x := range xs {
		if _, ok := seen[x]; ok {
			return x, true
		}
		seen[x] = struct{}{}
	}
	var zero T
	return zero, false
}

// checkAxisDups rejects repeated values on every axis — a repeated knob
// value silently doubles part of the grid and skews streamed/pruned
// statistics, so it is always a spec mistake.
func (g Grid) checkAxisDups() error {
	if v, ok := firstDup(g.MACArrays); ok {
		return fmt.Errorf("dse: grid mac_arrays axis repeats %d", v)
	}
	if v, ok := firstDup(g.SRAMMB); ok {
		return fmt.Errorf("dse: grid sram_mb axis repeats %v", v)
	}
	if v, ok := firstDup(g.VDDScales); ok {
		return fmt.Errorf("dse: grid vdd_scales axis repeats %v", v)
	}
	if v, ok := firstDup(g.Nodes); ok {
		return fmt.Errorf("dse: grid nodes axis repeats %q", v)
	}
	if v, ok := firstDup(g.Models); ok {
		return fmt.Errorf("dse: grid models axis repeats %q", v)
	}
	if v, ok := firstDup(g.Integrations); ok {
		return fmt.Errorf("dse: grid integrations axis repeats %q", v)
	}
	if v, ok := firstDup(g.Chiplets); ok {
		return fmt.Errorf("dse: grid chiplets axis repeats %d", v)
	}
	if v, ok := firstDup(g.ChipletNodes); ok {
		return fmt.Errorf("dse: grid chiplet_nodes axis repeats %q", v)
	}
	return nil
}

// Validate compiles the grid and reports the first spec error — unknown
// node, model, integration or carrier names, empty or duplicated axis
// values, incompatible model×integration combinations — without evaluating
// anything. The server runs it up front so /v1/dse can answer 400 before a
// stream starts.
func (g Grid) Validate() error {
	_, err := g.compile()
	return err
}

// maxChiplets bounds the chiplets axis; past a handful of compute chiplets
// the D2D model (one cut, one memory die) stops being meaningful.
const maxChiplets = 64

// compile validates the grid and prices every (V_DD, node) cell.
func (g Grid) compile() (*compiledGrid, error) {
	g = g.normalized()
	if len(g.MACArrays) == 0 {
		return nil, fmt.Errorf("dse: grid needs at least one MAC-array option")
	}
	if len(g.SRAMMB) == 0 {
		return nil, fmt.Errorf("dse: grid needs at least one SRAM option")
	}
	if s := g.Size(); s >= 1<<maxGridBits {
		return nil, fmt.Errorf("dse: grid enumerates %d points, beyond the 2^%d indexing limit", s, maxGridBits)
	}
	if err := g.checkAxisDups(); err != nil {
		return nil, err
	}
	for _, a := range g.MACArrays {
		if a <= 0 {
			return nil, fmt.Errorf("dse: grid MAC arrays must be positive, got %d", a)
		}
	}
	for _, mb := range g.SRAMMB {
		if mb <= 0 {
			return nil, fmt.Errorf("dse: grid SRAM must be positive, got %v MB", mb)
		}
	}

	ref := device.NewDesign(device.Node7nm())
	refClock := ref.MaxClock().Hertz()
	refEnergy := ref.DynamicEnergyPerCycle().Joules()
	refLeak := ref.LeakagePower().Watts()
	refArea := ref.Area().CM2()

	// An empty Models axis compiles to one unlabeled cell slot per
	// (V_DD, node) with a nil model — the pre-knob enumeration, cell for
	// cell. Named models are validated here and attached after the node so
	// all backends of one (V_DD, node) pair stay contiguous.
	type modelSlot struct {
		m    carbon.Model
		name string
	}
	slots := []modelSlot{{}}
	if len(g.Models) > 0 {
		slots = slots[:0]
		for _, name := range g.Models {
			m, err := carbon.ModelByName(name)
			if err != nil {
				return nil, fmt.Errorf("dse: grid: %w", err)
			}
			slots = append(slots, modelSlot{m: m, name: m.Name()})
		}
	}

	// Partition axes: validate names up front, normalize "monolithic" to
	// the empty style (the legacy zero-value Partition), and pre-resolve the
	// memory chiplet nodes' area ratios. Absent axes compile to one
	// monolithic slot each, so the cell enumeration — and therefore every
	// grid index and point ID — is unchanged when no partition axis is
	// requested.
	integrations := []string{""}
	partitioned := false
	if len(g.Integrations) > 0 {
		norm := make([]string, len(g.Integrations))
		for i, s := range g.Integrations {
			switch s {
			case "", "monolithic":
				norm[i] = ""
			case accel.Integration25D, accel.Integration3D:
				norm[i] = s
				partitioned = true
			default:
				return nil, fmt.Errorf("dse: grid: unknown integration style %q (want monolithic, 2.5d or 3d)", s)
			}
		}
		if v, ok := firstDup(norm); ok && v == "" {
			return nil, fmt.Errorf("dse: grid integrations axis repeats %q", "monolithic")
		}
		integrations = norm
	}
	if !partitioned && (len(g.Chiplets) > 0 || len(g.ChipletNodes) > 0 || g.Carrier != "") {
		return nil, fmt.Errorf("dse: grid: chiplets/chiplet_nodes/carrier need an integrations axis with a 2.5d or 3d entry")
	}
	chiplets := g.Chiplets
	if len(chiplets) == 0 {
		chiplets = []int{0}
	}
	for _, n := range chiplets {
		if n < 0 || n > maxChiplets {
			return nil, fmt.Errorf("dse: grid chiplet count must be in [0,%d], got %d", maxChiplets, n)
		}
	}
	chipletNodes := g.ChipletNodes
	if len(chipletNodes) == 0 {
		chipletNodes = []string{""}
	}
	memAreaR := make(map[string]float64, len(chipletNodes))
	for _, name := range chipletNodes {
		if name == "" {
			continue // keep the logic node
		}
		node, err := device.NodeByName(name)
		if err != nil {
			return nil, fmt.Errorf("dse: grid chiplet node: %w", err)
		}
		if _, err := carbon.ProcessByName(name); err != nil {
			return nil, fmt.Errorf("dse: grid chiplet node: %w", err)
		}
		// Area is a node property — V_DD scaling moves clock, energy and
		// leakage but not silicon area — so one ratio per node suffices.
		memAreaR[name] = device.NewDesign(node).Area().CM2() / refArea
	}
	if _, err := carbon.CarrierByName(g.Carrier); err != nil {
		return nil, fmt.Errorf("dse: grid: %w", err)
	}
	// Every (model, integration) combination must be priceable. Validated
	// once here so a bad pairing rejects the request instead of erroring
	// mid-stream.
	for _, slot := range slots {
		if slot.m == nil {
			continue // models derived per integration below
		}
		for _, integ := range integrations {
			if !carbon.ModelSupportsIntegration(slot.name, integ) {
				return nil, fmt.Errorf("dse: grid: model %q cannot price %q integration (supported: %v)",
					slot.name, integ, carbon.ModelIntegrations(slot.name))
			}
		}
	}

	perNode := len(slots) * len(integrations) * len(chiplets) * len(chipletNodes)
	cg := &compiledGrid{g: g, cells: make([]gridCell, 0, len(g.VDDScales)*len(g.Nodes)*perNode)}
	for _, vs := range g.VDDScales {
		if vs <= 0 {
			return nil, fmt.Errorf("dse: grid V_DD scale must be positive, got %v", vs)
		}
		for _, name := range g.Nodes {
			node, err := device.NodeByName(name)
			if err != nil {
				return nil, fmt.Errorf("dse: grid: %w", err)
			}
			proc, err := carbon.ProcessByName(name)
			if err != nil {
				return nil, fmt.Errorf("dse: grid: %w", err)
			}
			d := device.DVFSPoint(device.NewDesign(node), vs)
			if err := d.Validate(); err != nil {
				return nil, fmt.Errorf("dse: grid: node %s at %.2f·V_DD: %w", name, vs, err)
			}
			clockR := d.MaxClock().Hertz() / refClock
			energyR := d.DynamicEnergyPerCycle().Joules() / refEnergy
			leakR := d.LeakagePower().Watts() / refLeak
			areaR := d.Area().CM2() / refArea
			for _, slot := range slots {
				for _, integ := range integrations {
					m, mname := slot.m, slot.name
					if slot.m == nil && integ != "" {
						derived, err := carbon.ModelForIntegration(integ)
						if err != nil {
							return nil, fmt.Errorf("dse: grid: %w", err)
						}
						dm, err := carbon.ModelByName(derived)
						if err != nil {
							return nil, fmt.Errorf("dse: grid: %w", err)
						}
						m, mname = dm, derived
					}
					for _, chip := range chiplets {
						for _, cnode := range chipletNodes {
							var part accel.Partition
							if integ != "" {
								part = accel.Partition{
									Chiplets:    chip,
									Integration: integ,
									ChipletNode: cnode,
									Carrier:     g.Carrier,
								}
								if cnode != "" {
									part.MemAreaScale = memAreaR[cnode] / areaR
								}
							}
							cg.cells = append(cg.cells, gridCell{
								vddScale:  vs,
								node:      name,
								process:   proc,
								model:     m,
								modelName: mname,
								clockR:    clockR,
								energyR:   energyR,
								leakR:     leakR,
								areaR:     areaR,
								partition: part,
							})
						}
					}
				}
			}
		}
	}

	// Partition the cells into embodied-carbon equivalence classes. The
	// footprint of a cell depends only on the shape's area (scaled by areaR),
	// the node's process, the accounting model and the partition spec —
	// identical inputs give bit-identical results, so the class
	// representative's value stands for every member. Monolithic cells all
	// share the zero partKey, keeping the class count unchanged when the
	// partition axes are absent.
	type partKey struct {
		integ   string
		chip    int
		cnode   string
		carrier string
		memR    uint64
	}
	type embKey struct {
		node  string
		model string
		areaR uint64
		part  partKey
	}
	classes := make(map[embKey]int)
	for i := range cg.cells {
		c := &cg.cells[i]
		var pk partKey
		if c.partition.Active() {
			pk = partKey{
				integ:   c.partition.Integration,
				chip:    c.partition.Chiplets,
				cnode:   c.partition.ChipletNode,
				carrier: c.partition.Carrier,
				memR:    math.Float64bits(c.partition.MemAreaScale),
			}
		}
		k := embKey{node: c.node, model: c.modelName, areaR: math.Float64bits(c.areaR), part: pk}
		id, ok := classes[k]
		if !ok {
			id = len(classes)
			classes[k] = id
		}
		c.embClass = id
	}
	cg.embClasses = len(classes)

	type costKey struct {
		clockR, energyR uint64
		integ           string
	}
	costClasses := make(map[costKey]int)
	for i := range cg.cells {
		c := &cg.cells[i]
		k := costKey{math.Float64bits(c.clockR), math.Float64bits(c.energyR), c.partition.Integration}
		id, ok := costClasses[k]
		if !ok {
			id = len(cg.costReps)
			costClasses[k] = id
			cg.costReps = append(cg.costReps, i)
		}
		c.costClass = id
	}
	return cg, nil
}

// shapes returns the number of (MAC arrays, SRAM) pairs.
func (cg *compiledGrid) shapes() int { return len(cg.g.MACArrays) * len(cg.g.SRAMMB) }

// size returns the total configuration count.
func (cg *compiledGrid) size() int64 { return int64(cg.shapes()) * int64(len(cg.cells)) }

// shapeConfig returns the configuration of shape index si priced at the
// nominal 7 nm cell — the representative used to compute shape profiles
// (the ShapeKey fields are cell-independent, so any cell would do).
func (cg *compiledGrid) shapeConfig(si int) accel.Config {
	ai, mi := si/len(cg.g.SRAMMB), si%len(cg.g.SRAMMB)
	return accel.New("", cg.g.MACArrays[ai], units.MB(cg.g.SRAMMB[mi]))
}

// at returns configuration i (shape-major: i = shape·cells + cell) with its
// compiled cell — the node's embodied process plus the accounting model.
// IDs are "k1" … "kN" in enumeration order.
func (cg *compiledGrid) at(i int64) (accel.Config, *gridCell) {
	cells := int64(len(cg.cells))
	si, ci := int(i/cells), int(i%cells)
	cell := &cg.cells[ci]
	c := cg.shapeConfig(si)
	applyCell(&c, cell)
	c.ID = gridPointID(i)
	return c, cell
}

// gridPointID renders the global grid index as the public point ID.
func gridPointID(i int64) string { return "k" + strconv.FormatInt(i+1, 10) }

// applyCell rescales the simulator parameters to a grid cell. Clock and
// per-op dynamic energies follow the device model's DVFS/node ratios; so do
// leakage and area (area feeds both embodied carbon and, at a fixed node,
// nothing else). DRAM energy and bandwidth stay fixed — LPDDR lives
// off-package and does not scale with the logic node. The cell's partition
// spec is copied onto the configuration (zero for monolithic cells).
func applyCell(c *accel.Config, cell *gridCell) {
	c.Partition = cell.partition
	c.Params.Clock *= units.Frequency(cell.clockR)
	c.Params.MACEnergy *= units.Energy(cell.energyR)
	c.Params.SRAMEnergyBase *= units.Energy(cell.energyR)
	c.Params.SRAMEnergySlope *= units.Energy(cell.energyR)
	c.Params.BaseLeakage *= units.Power(cell.leakR)
	c.Params.LeakagePerArray *= units.Power(cell.leakR)
	c.Params.LeakagePerMB *= units.Power(cell.leakR)
	c.Params.BaseArea *= units.Area(cell.areaR)
	c.Params.AreaPerArray *= units.Area(cell.areaR)
	c.Params.AreaPerMB *= units.Area(cell.areaR)
}

// Materialize allocates every configuration in the grid, paired with its
// node's embodied-carbon process — the full-allocation path the streaming
// engine is benchmarked and property-tested against.
func (g Grid) Materialize() ([]accel.Config, []carbon.Process, error) {
	cg, err := g.compile()
	if err != nil {
		return nil, nil, err
	}
	n := cg.size()
	configs := make([]accel.Config, n)
	procs := make([]carbon.Process, n)
	for i := int64(0); i < n; i++ {
		c, cell := cg.at(i)
		configs[i], procs[i] = c, cell.process
	}
	return configs, procs, nil
}

// EvaluateGrid is the naive baseline: materialize the whole grid, then
// evaluate every configuration through the direct per-layer path
// (evalPointAcct) — re-deriving each kernel's cost per configuration,
// holding all points in memory. It exists as the reference implementation
// for every engine's equivalence tests and benchmarks.
func EvaluateGrid(task workload.Task, g Grid, fab carbon.Fab, ci units.CarbonIntensity) (*Space, error) {
	if ci < 0 {
		return nil, fmt.Errorf("dse: negative CI_use %v", ci)
	}
	cg, err := g.compile()
	if err != nil {
		return nil, err
	}
	n := cg.size()
	s := &Space{Task: task, CIUse: ci, Points: make([]Point, 0, n)}
	for i := int64(0); i < n; i++ {
		c, cell := cg.at(i)
		pt, err := evalPointAcct(task, c, cell.process, fab, cell.model, nil)
		if err != nil {
			return nil, err
		}
		s.Points = append(s.Points, pt)
	}
	return s, nil
}

// evalPointAcct prices one configuration through the direct per-layer path
// (workload.Evaluate over Config.KernelCost) under an embodied-carbon model
// and yield model (nil selects ACT and Murphy). It is the oracle every
// engine is held bit-identical to; production paths price through the memo
// (pricePoint).
func evalPointAcct(task workload.Task, c accel.Config, p carbon.Process, fab carbon.Fab, model carbon.Model, yield carbon.YieldModel) (Point, error) {
	cost, err := workload.Evaluate(task, c)
	if err != nil {
		return Point{}, err
	}
	emb, err := c.EmbodiedWith(model, yield, p, fab)
	if err != nil {
		return Point{}, err
	}
	pt := Point{
		Config:   c,
		Delay:    cost.Delay,
		Energy:   cost.Energy,
		Embodied: emb,
		Area:     c.TotalArea(),
	}
	if model != nil {
		pt.Model = model.Name()
	}
	return pt, nil
}
