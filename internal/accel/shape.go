package accel

import (
	"slices"

	"cordoba/internal/nn"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

// ShapeKey identifies the inputs of layerShape: the fields of a Config that
// determine a kernel's layer shapes. Two configurations with equal ShapeKeys
// produce identical layerShape sequences for every kernel — only clocks,
// per-op energies, bandwidth and 3D wiring may differ between them — so a
// ShapeProfile computed under one can be replayed under the other. The DSE
// memo cache (internal/dse.MemoCache) keys a slot of kernel profiles on the
// ShapeKey, which is what lets a knob grid sweeping DVFS points and
// technology nodes re-derive each kernel's layer shapes once per (MAC
// arrays, SRAM) pair instead of once per grid cell.
type ShapeKey struct {
	MACArrays int
	SRAM      units.Bytes

	ConvUtil, DWConvUtil, FCUtil float64
	SaturationScale              float64
	SaturationCap                float64
	TilingPenalty                float64
}

// ShapeKey returns the configuration's shape signature.
func (c Config) ShapeKey() ShapeKey {
	return ShapeKey{
		MACArrays:       c.MACArrays,
		SRAM:            c.SRAM,
		ConvUtil:        c.Params.ConvUtil,
		DWConvUtil:      c.Params.DWConvUtil,
		FCUtil:          c.Params.FCUtil,
		SaturationScale: c.Params.SaturationScale,
		SaturationCap:   c.Params.SaturationCap,
		TilingPenalty:   c.Params.TilingPenalty,
	}
}

// ShapeProfile is a kernel's pre-computed layer shapes for one ShapeKey: the
// knob-invariant half of the simulation, cached once and re-priced under any
// configuration that shares the key: one configuration at a time through
// Cost, or many at once through a Replay. Both keep layerCostOf's operand
// grouping, so for a Config c with c.ShapeKey() == sp.Key, sp.Cost(c) is
// bit-identical to c.KernelCost(sp.Kernel).
type ShapeProfile struct {
	Kernel nn.KernelID
	Key    ShapeKey

	// compute holds each layer's SRAM-independent half. Profiles of one
	// kernel whose keys differ only in SRAM can share it (ShapeProfileFrom),
	// so a memo holding every SRAM size of a MAC count stores it once.
	compute []layerCompute
	// mem holds each layer's SRAM-dependent half, which reads only SRAM and
	// TilingPenalty: profiles of one kernel agreeing on those two share it,
	// so a memo stores it once per SRAM size, not once per shape.
	mem []layerMem
}

// ShapeProfile pre-computes a kernel's layer shapes on this configuration.
func (c Config) ShapeProfile(id nn.KernelID) (*ShapeProfile, error) {
	return c.ShapeProfileFrom(id, nil)
}

// ShapeProfileFrom is ShapeProfile sharing halves with siblings profiling
// the same kernel: the SRAM-independent half (each layer's MAC count and
// clock-free throughput) with one whose key differs from this
// configuration's at most in SRAM, and the SRAM-dependent half (each
// layer's activation and DRAM traffic) with one whose key agrees on SRAM
// and TilingPenalty. Other siblings, and nils, are ignored.
func (c Config) ShapeProfileFrom(id nn.KernelID, siblings ...*ShapeProfile) (*ShapeProfile, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	net, err := nn.Kernel(id)
	if err != nil {
		return nil, err
	}
	key := c.ShapeKey()
	sp := &ShapeProfile{Kernel: id, Key: key}
	for _, s := range siblings {
		if s == nil || s.Kernel != id {
			continue
		}
		if sp.compute == nil && s.Key.ComputeKey() == key.ComputeKey() {
			sp.compute = s.compute
		}
		if sp.mem == nil && s.Key.MemKey() == key.MemKey() {
			sp.mem = s.mem
		}
	}
	if sp.compute == nil {
		sp.compute = make([]layerCompute, len(net.Layers))
		for i := range net.Layers {
			sp.compute[i] = c.layerCompute(&net.Layers[i])
		}
	}
	if sp.mem == nil {
		sp.mem = make([]layerMem, len(net.Layers))
		for i := range net.Layers {
			sp.mem[i] = c.layerMem(&net.Layers[i])
		}
	}
	return sp, nil
}

// ComputeKey clears SRAM: the key of a profile's SRAM-independent half.
func (k ShapeKey) ComputeKey() ShapeKey {
	k.SRAM = 0
	return k
}

// MemKey keeps only the fields layerMem reads: the key of a profile's
// SRAM-dependent half.
func (k ShapeKey) MemKey() ShapeKey {
	return ShapeKey{SRAM: k.SRAM, TilingPenalty: k.TilingPenalty}
}

// Pricing is the cell-dependent half of layerCostOf's inputs: a
// configuration's clock, per-op energies and memory-side pricing, resolved
// once instead of per layer. A ShapeProfile replayed under c.Pricing() is
// bit-identical to c.KernelCost, so two configurations sharing a ShapeKey
// and a Pricing price every kernel identically — the DSE grid prices each
// such cost class once per shape instead of once per cell.
type Pricing struct {
	clk    float64      // clock, Hz
	macE   units.Energy // per MAC
	sramPB units.Energy // per activation-memory byte
	mem    memPricing

	// Positions of clk and mem among a Replay's distinct clocks and memory
	// classes, set by Replay.Load.
	clkIdx, memIdx int
}

// memPricing is a memory class: the layer-invariant DRAM and D2D pricing.
// A monolithic grid has one; each integration style adds its own.
type memPricing struct {
	dramPB units.Energy
	bw     float64 // DRAM bytes per second
	oh     units.Time
	d2     d2dCost
	cut    bool
}

// Pricing resolves the configuration's pricing inputs. It takes a pointer,
// as do the unexported helpers it calls: a Config is several hundred bytes.
func (c *Config) Pricing() Pricing {
	d2, cut := c.d2d()
	return Pricing{
		clk:    c.Params.Clock.Hertz(),
		macE:   c.Params.MACEnergy,
		sramPB: c.sramEnergyPerByte(),
		mem: memPricing{
			dramPB: c.Params.DRAMEnergyPerByte,
			bw:     c.dramBandwidth().BytesPerSecond(),
			oh:     c.Params.LayerOverhead,
			d2:     d2,
			cut:    cut,
		},
	}
}

// computeTime is layerCostOf's compute roofline term at clock clk (Hz). It
// depends only on the MAC-array count, the utilization/saturation
// parameters and the clock — never on SRAM.
func (lc *layerCompute) computeTime(clk float64) units.Time {
	if lc.macs <= 0 {
		return 0
	}
	eff := lc.effBase * clk
	return units.Time(lc.macs / eff)
}

// terms returns layerCostOf's cell-invariant memory terms for one layer
// under a memory class: max(DRAM time, D2D time), DRAM energy, D2D energy.
func (m *memPricing) terms(lm *layerMem) (mdt units.Time, dramE, d2dE units.Energy) {
	dramE = m.dramPB * units.Energy(lm.dram)
	mdt = units.Time(float64(lm.dram) / m.bw)
	if m.cut {
		d2dE = m.d2.energyPB * units.Energy(lm.sram)
		mdt = max(mdt, units.Time(float64(lm.sram)/m.d2.bw))
	}
	return mdt, dramE, d2dE
}

// layerConsts are a pricing's per-layer constants: the per-op energies,
// the fixed per-layer time, and the D2D hop — zero for configurations
// without a die cut, whose D2D energy terms are zero too. Adding +0 leaves
// every non-negative sum bit-identical, so price needs no cut branch.
type layerConsts struct {
	macE, sramPB units.Energy
	oh, hop      units.Time
}

func (p *Pricing) consts() layerConsts {
	k := layerConsts{macE: p.macE, sramPB: p.sramPB, oh: p.mem.oh}
	if p.mem.cut {
		k.hop = p.mem.d2.hop
	}
	return k
}

// price is layerCostOf's per-(layer, cell) arithmetic over the resolved
// terms: the layer's time and dynamic energy under k. It is the innermost
// loop of every grid evaluation, so it has no data-dependent branch the
// values here could make hard to predict.
//
// Every expression keeps layerCostOf's operand grouping — time is
// max(compute, DRAM, D2D) + overhead (+ hop), energy ((MAC + SRAM) + DRAM)
// + D2D, as Profile sums LayerCost.Energy() — so a kernel accumulated
// layer by layer through price is bit-identical to KernelCost. Two
// shortcuts rest on the inputs being non-negative and not NaN, which
// Config.Validate guarantees for the per-op energies (finite too) and the
// layer shapes guarantee for MAC counts, byte counts and times:
//   - the MAC energy is computed unconditionally: for a memory-only layer
//     (macs = 0) a finite, non-negative macE times 0 is +0, exactly the zero
//     layerCostOf's macs > 0 branch leaves;
//   - the roofline is a compare-and-assign, not the builtin max, whose
//     NaN and ±0 handling costs a longer instruction sequence: on
//     non-negative, non-NaN times both pick the same value, and when the
//     two are equal either operand is that value.
//
// TestShapeProfileCostBitwise holds the paths equal.
func price(macs float64, sram units.Bytes, ct, mdt units.Time, dramE, d2dE units.Energy, k layerConsts) (units.Time, units.Energy) {
	macEnergy := k.macE * units.Energy(macs)
	sramEnergy := k.sramPB * units.Energy(sram)
	if mdt > ct {
		ct = mdt
	}
	t := ct + k.oh + k.hop
	e := macEnergy + sramEnergy + dramE + d2dE
	return t, e
}

// Cost prices the profiled kernel under a configuration's clock, energy and
// bandwidth parameters. The caller must ensure c.ShapeKey() equals sp.Key.
// It is the one-cell case of Replay.Cost: the same three per-layer steps
// (computeTime, memPricing.terms, price), fused into one pass because a
// single cell has nothing to share between pricings.
func (sp *ShapeProfile) Cost(c Config) workload.KernelCost {
	p := c.Pricing()
	return sp.CostUnder(&p)
}

// CostUnder is Cost under an already resolved Pricing, for per-point paths
// that price every kernel of a task under one configuration: they resolve
// its Pricing once instead of once per kernel.
func (sp *ShapeProfile) CostUnder(p *Pricing) workload.KernelCost {
	k, clk := p.consts(), p.clk
	var kc workload.KernelCost
	mem := sp.mem[:len(sp.compute)]
	for i := range sp.compute {
		lc, lm := &sp.compute[i], &mem[i]
		mdt, dramE, d2dE := p.mem.terms(lm)
		t, e := price(lc.macs, lm.sram, lc.computeTime(clk), mdt, dramE, d2dE, k)
		kc.Delay += t
		kc.DynamicEnergy += e
	}
	return kc
}

// replayBlock is the layer block the batched replay works through: small
// enough that a block's memory-class terms stay in L1.
const replayBlock = 64

// maxRowClocks bounds the compute-time rows a Replay caches: a kernel's row
// holds one entry per (layer, distinct clock), so the kernel union's rows
// cost 8 B × layers × clocks — about 680 KiB for every kernel at this
// bound. Pricings with more distinct clocks than this compute each block's
// compute times as they go, as Cost does.
const maxRowClocks = 128

// memClass is a memory class together with one layer block's terms under
// it (see memPricing.terms).
type memClass struct {
	memPricing
	mdt         [replayBlock]units.Time
	dramE, d2dE [replayBlock]units.Energy
}

// accumulate adds one block of layers, priced under p, to kc: the block's
// compute times start at ct[0], its memory terms at mc's block arrays.
func (p *Pricing) accumulate(kc *workload.KernelCost, cblk []layerCompute, mblk []layerMem, ct []units.Time, mc *memClass) {
	mblk, ct = mblk[:len(cblk)], ct[:len(cblk)]
	mdt, dramE, d2dE := mc.mdt[:len(cblk)], mc.dramE[:len(cblk)], mc.d2dE[:len(cblk)]
	k := p.consts()
	delay, energy := kc.Delay, kc.DynamicEnergy
	for i := range cblk {
		t, e := price(cblk[i].macs, mblk[i].sram, ct[i], mdt[i], dramE[i], d2dE[i], k)
		delay += t
		energy += e
	}
	kc.Delay, kc.DynamicEnergy = delay, energy
}

// Replay is a reusable batch-pricing workspace: Load a set of pricings (one
// per cost class of a shape), then Cost each of the shape's kernel profiles
// under all of them in one pass. The compute-time rows depend only on the
// kernel, the MAC-array count, the utilization/saturation parameters and the
// clocks — never on SRAM — so a Replay walking shapes with SRAM as the inner
// axis reuses each kernel's row across consecutive shapes with the same MAC
// count (up to maxRowClocks distinct clocks). After warm-up it allocates
// nothing. Not safe for concurrent use.
type Replay struct {
	pr          []Pricing
	clks, spare []float64
	clkIdx      map[float64]int // position of each clock in clks, rebuilt by Load
	mems        []memClass
	gen         uint64 // advances whenever the distinct clocks change
	rows        []ctRow
	ct          [replayBlock]units.Time // one block's compute times when rows are off
}

// ctRow caches one kernel's compute times [clock][layer] for a ShapeKey
// with SRAM cleared, valid while gen matches the Replay's.
type ctRow struct {
	kernel nn.KernelID
	key    ShapeKey
	gen    uint64
	ct     []units.Time
}

// Load sets the pricings Cost prices under, resolving their distinct
// clocks and memory classes. The Replay keeps pr and records each
// pricing's positions in it, so pr must not change until the next Load.
func (r *Replay) Load(pr []Pricing) {
	r.pr = pr
	old := r.clks
	r.clks, r.spare = r.spare[:0], old
	r.mems = r.mems[:0]
	if r.clkIdx == nil {
		r.clkIdx = make(map[float64]int)
	}
	clear(r.clkIdx)
	for k := range r.pr {
		p := &r.pr[k]
		var seen bool
		if p.clkIdx, seen = r.clkIdx[p.clk]; !seen {
			p.clkIdx = len(r.clks)
			r.clkIdx[p.clk] = p.clkIdx
			r.clks = append(r.clks, p.clk)
		}
		p.memIdx = len(r.mems)
		for m := range r.mems {
			if r.mems[m].memPricing == p.mem {
				p.memIdx = m
				break
			}
		}
		if p.memIdx == len(r.mems) {
			r.mems = append(r.mems, memClass{memPricing: p.mem})
		}
	}
	if !slices.Equal(r.clks, old) {
		r.gen++
	}
}

// row returns sp's compute-time row and whether it must be (re)filled, or
// nil when the loaded clocks are too many to cache.
func (r *Replay) row(sp *ShapeProfile) (row *ctRow, fill bool) {
	if len(r.clks) > maxRowClocks {
		return nil, false
	}
	key := sp.Key.ComputeKey()
	for i := range r.rows {
		if r.rows[i].kernel == sp.Kernel {
			row = &r.rows[i]
			break
		}
	}
	if row == nil {
		r.rows = append(r.rows, ctRow{kernel: sp.Kernel})
		row = &r.rows[len(r.rows)-1]
	}
	if row.gen == r.gen && row.key == key {
		return row, false
	}
	n := len(sp.compute) * len(r.clks)
	if cap(row.ct) < n {
		row.ct = make([]units.Time, n)
	}
	row.ct = row.ct[:n]
	row.key, row.gen = key, r.gen
	return row, true
}

// Cost prices sp under every loaded pricing: out[k] receives the kernel's
// cost under the k-th pricing passed to Load, bit-identical to
// sp.Cost on the configuration it was resolved from. The caller must ensure
// every pricing was resolved from a configuration whose ShapeKey equals
// sp.Key.
//
// The pass walks the layers in blocks. Per block it first computes the
// cell-invariant terms — the memory terms once per memory class and, when
// the kernel's row is stale, the compute times once per distinct clock —
// then accumulates each pricing over the block's layers in order.
func (r *Replay) Cost(sp *ShapeProfile, out []workload.KernelCost) {
	row, fill := r.row(sp)
	n := len(sp.compute)
	out = out[:len(r.pr)]
	for k := range out {
		out[k] = workload.KernelCost{}
	}
	for b0 := 0; b0 < n; b0 += replayBlock {
		b1 := min(b0+replayBlock, n)
		cblk, mblk := sp.compute[b0:b1], sp.mem[b0:b1]
		if fill {
			for j, clk := range r.clks {
				ct := row.ct[j*n+b0:][:len(cblk)]
				for i := range cblk {
					ct[i] = cblk[i].computeTime(clk)
				}
			}
		}
		for m := range r.mems {
			mc := &r.mems[m]
			for i := range mblk {
				mc.mdt[i], mc.dramE[i], mc.d2dE[i] = mc.terms(&mblk[i])
			}
		}
		for k := range r.pr {
			p := &r.pr[k]
			ct := r.ct[:]
			if row != nil {
				ct = row.ct[p.clkIdx*n+b0:]
			} else {
				for i := range cblk {
					ct[i] = cblk[i].computeTime(p.clk)
				}
			}
			p.accumulate(&out[k], cblk, mblk, ct, &r.mems[p.memIdx])
		}
	}
}
