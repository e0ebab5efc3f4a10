package accel

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"cordoba/internal/carbon"
	"cordoba/internal/nn"
	"cordoba/internal/units"
)

func TestGridShape(t *testing.T) {
	grid := Grid()
	if len(grid) != GridSize {
		t.Fatalf("grid size = %d, want %d", len(grid), GridSize)
	}
	macs, srams := gridMACOptions, gridSRAMOptions
	if len(macs) != 11 || len(srams) != 11 {
		t.Fatalf("axes = %d × %d, want 11 × 11", len(macs), len(srams))
	}
	for _, c := range grid {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.ID, err)
		}
	}
	// No duplicate IDs.
	seen := map[string]bool{}
	for _, c := range grid {
		if seen[c.ID] {
			t.Errorf("duplicate ID %s", c.ID)
		}
		seen[c.ID] = true
	}
}

// The paper names specific configurations; the indexing must reproduce them.
func TestNamedGridConfigs(t *testing.T) {
	want := map[string]struct {
		arrays int
		sramMB float64
	}{
		"a1":  {1, 1},
		"a12": {2, 1},
		"a23": {4, 1},
		"a37": {8, 8},
		"a38": {8, 16},
		"a48": {16, 8},
		"a58": {32, 4},
	}
	for id, w := range want {
		c, err := ByID(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if c.MACArrays != w.arrays || c.SRAM.InMB() != w.sramMB {
			t.Errorf("%s = (%d arrays, %v MB), want (%d, %v)", id, c.MACArrays, c.SRAM.InMB(), w.arrays, w.sramMB)
		}
	}
	if _, err := ByID("a0"); err == nil {
		t.Error("a0 should not exist")
	}
	if _, err := ByID("a122"); err == nil {
		t.Error("a122 should not exist")
	}
}

// Fig. 11(a): 16 arrays ≈ 1K MACs, 32 arrays ≈ 2K MACs.
func TestMACNotation(t *testing.T) {
	c, _ := ByID("a48")
	if got := c.TotalMACs(); got != 1024 {
		t.Errorf("a48 MACs = %d, want 1024 (\"1K\")", got)
	}
	c, _ = ByID("a58")
	if got := c.TotalMACs(); got != 2048 {
		t.Errorf("a58 MACs = %d, want 2048 (\"2K\")", got)
	}
}

func TestValidate(t *testing.T) {
	cases := []Config{
		{ID: "no-arrays", MACArrays: 0, SRAM: units.MB(1), Params: DefaultParams()},
		{ID: "no-sram", MACArrays: 1, SRAM: 0, Params: DefaultParams()},
		{ID: "bad-3d", MACArrays: 1, SRAM: units.MB(1), Is3D: true, Params: DefaultParams()},
		{ID: "no-params", MACArrays: 1, SRAM: units.MB(1)},
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("%s should be invalid", c.ID)
		}
	}
}

// TestValidateEnergies: the per-op energies the pricing kernel multiplies
// unguarded must be finite and non-negative; an infinite MAC energy would
// price a memory-only layer as NaN instead of 0.
func TestValidateEnergies(t *testing.T) {
	bad := []float64{-1e-12, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	fields := map[string]func(*Params) *units.Energy{
		"MACEnergy":         func(p *Params) *units.Energy { return &p.MACEnergy },
		"SRAMEnergyBase":    func(p *Params) *units.Energy { return &p.SRAMEnergyBase },
		"SRAMEnergySlope":   func(p *Params) *units.Energy { return &p.SRAMEnergySlope },
		"DRAMEnergyPerByte": func(p *Params) *units.Energy { return &p.DRAMEnergyPerByte },
	}
	for name, field := range fields {
		for _, v := range bad {
			c := New("e", 16, units.MB(2))
			*field(&c.Params) = units.Energy(v)
			err := c.Validate()
			if err == nil {
				t.Errorf("%s = %g accepted", name, v)
				continue
			}
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%s = %g: error %q does not name the field", name, v, err)
			}
		}
		c := New("e", 16, units.MB(2))
		*field(&c.Params) = 0
		if err := c.Validate(); err != nil {
			t.Errorf("%s = 0 rejected: %v", name, err)
		}
	}
}

func TestMoreArraysNeverSlower(t *testing.T) {
	small := New("s", 2, units.MB(4))
	big := New("b", 32, units.MB(4))
	for _, id := range nn.AllKernels() {
		ps, err := small.Profile(id)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := big.Profile(id)
		if err != nil {
			t.Fatal(err)
		}
		if pb.Delay > ps.Delay {
			t.Errorf("%s: 32 arrays slower than 2 (%v > %v)", id, pb.Delay, ps.Delay)
		}
	}
}

func TestArraysSaturate(t *testing.T) {
	// §VI-B: provisioning beyond the saturation point stops paying. The
	// speedup from 1→16 arrays must far exceed the speedup from 16→256.
	c1 := New("c1", 1, units.MB(8))
	c16 := New("c16", 16, units.MB(8))
	c256 := New("c256", 256, units.MB(8))
	p1, _ := c1.Profile(nn.RN50)
	p16, _ := c16.Profile(nn.RN50)
	p256, _ := c256.Profile(nn.RN50)
	gainLow := p1.Delay.Seconds() / p16.Delay.Seconds()
	gainHigh := p16.Delay.Seconds() / p256.Delay.Seconds()
	if gainLow < 1.5 {
		t.Errorf("1→16 arrays should speed RN-50 up meaningfully, got %.2f×", gainLow)
	}
	if gainHigh > 1.15 {
		t.Errorf("16→256 arrays should be nearly flat for RN-50, got %.2f×", gainHigh)
	}
}

func TestMoreSRAMNeverMoreDRAMTraffic(t *testing.T) {
	small := New("s", 16, units.MB(1))
	big := New("b", 16, units.MB(32))
	for _, id := range nn.AllKernels() {
		ps, _ := small.Profile(id)
		pb, _ := big.Profile(id)
		if pb.DRAMTraffic > ps.DRAMTraffic {
			t.Errorf("%s: more SRAM increased DRAM traffic", id)
		}
	}
}

// §V: "increasing the activation SRAM from 2 MB to 32 MB decreases the
// bandwidth requirements" dramatically for high-resolution super-resolution.
func TestSRAMKillsSpillForSR(t *testing.T) {
	c2 := New("c2", 16, units.MB(2))
	c32 := New("c32", 16, units.MB(32))
	p2, _ := c2.Profile(nn.SR512)
	p32, _ := c32.Profile(nn.SR512)
	ratio := float64(p2.DRAMTraffic) / float64(p32.DRAMTraffic)
	if ratio < 10 {
		t.Errorf("SR-512 DRAM traffic ratio 2MB/32MB = %.1f, want ≥ 10", ratio)
	}
}

func TestLeakageGrowsWithProvisioning(t *testing.T) {
	a := New("a", 1, units.MB(1))
	b := New("b", 64, units.MB(64))
	if b.LeakagePower() <= a.LeakagePower() {
		t.Error("leakage should grow with arrays and SRAM")
	}
}

func TestAreaModel(t *testing.T) {
	a1 := New("a1", 1, units.MB(1))
	a48 := New("a48", 16, units.MB(8))
	if a48.TotalArea() <= a1.TotalArea() {
		t.Error("bigger config should have bigger area")
	}
	// 2D: total area equals logic area (SRAM is on-die).
	if a1.TotalArea() != a1.LogicArea() {
		t.Error("2D total area should equal logic area")
	}
	if a1.MemDieArea() != 0 {
		t.Error("2D config has no memory die")
	}
}

func TestLayerCostBreakdown(t *testing.T) {
	c := New("c", 16, units.MB(8))
	net := mustKernel(nn.RN18)
	var total units.Energy
	for _, l := range net.Layers {
		lc := c.LayerCost(l)
		if lc.Time < lc.ComputeTime || lc.Time < lc.MemoryTime {
			t.Fatalf("layer %s: time %v below roofline max(%v, %v)", l.Name, lc.Time, lc.ComputeTime, lc.MemoryTime)
		}
		if lc.Energy() != lc.MACEnergy+lc.SRAMEnergy+lc.DRAMEnergy {
			t.Fatalf("layer %s: energy breakdown inconsistent", l.Name)
		}
		total += lc.Energy()
	}
	p, _ := c.Profile(nn.RN18)
	if math.Abs(total.Joules()-p.Energy.Joules()) > 1e-12*total.Joules() {
		t.Error("profile energy disagrees with layer sum")
	}
}

func TestProfileErrors(t *testing.T) {
	c := New("c", 16, units.MB(8))
	if _, err := c.Profile("bogus"); err == nil {
		t.Error("unknown kernel should error")
	}
	bad := Config{ID: "bad"}
	if _, err := bad.Profile(nn.RN18); err == nil {
		t.Error("invalid config should error")
	}
	if _, err := bad.KernelCost(nn.RN18); err == nil {
		t.Error("invalid config should error through KernelCost")
	}
}

func TestKernelCostMatchesProfile(t *testing.T) {
	c := New("c", 8, units.MB(4))
	p, _ := c.Profile(nn.MN2)
	kc, err := c.KernelCost(nn.MN2)
	if err != nil {
		t.Fatal(err)
	}
	if kc.Delay != p.Delay || kc.DynamicEnergy != p.Energy {
		t.Error("KernelCost should mirror Profile")
	}
}

// ---- 3D stacking ----

func TestStacked3DConfigs(t *testing.T) {
	cfgs := Stacked3D()
	if len(cfgs) != 7 {
		t.Fatalf("expected 7 configs, got %d", len(cfgs))
	}
	byID := map[string]Config{}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		byID[c.ID] = c
	}
	base := byID[Baseline1K1M]
	if base.Is3D || base.TotalMACs() != 1024 || base.SRAM.InMB() != 1 {
		t.Errorf("baseline misconfigured: %+v", base)
	}
	// Fig. 11(a): memory per die is 2 MB for 1K configs, 4 MB for 2K.
	if c := byID[Stacked1K8M]; c.MemDies != 4 {
		t.Errorf("3D_1K_8M should stack 4 dies, got %d", c.MemDies)
	}
	if c := byID[Stacked2K16M]; c.MemDies != 4 {
		t.Errorf("3D_2K_16M should stack 4 dies, got %d", c.MemDies)
	}
	if c := byID[Stacked2K8M]; c.TotalMACs() != 2048 {
		t.Errorf("3D_2K_8M MACs = %d", c.TotalMACs())
	}
	for id, c := range byID {
		if strings.HasPrefix(id, "3D_") && !c.Is3D {
			t.Errorf("%s should be 3D", id)
		}
	}
}

func TestStackingImprovesMemoryEnergyAndBandwidth(t *testing.T) {
	flat := New("flat", 32, units.MB(8))
	stacked := flat
	stacked.ID = "stacked"
	stacked.Is3D = true
	stacked.MemDies = 2
	if stacked.sramEnergyPerByte() >= flat.sramEnergyPerByte() {
		t.Error("3D SRAM access should be cheaper")
	}
	if stacked.dramBandwidth() <= flat.dramBandwidth() {
		t.Error("3D processor–memory bandwidth should be higher")
	}
	ps, _ := stacked.Profile(nn.SR512)
	pf, _ := flat.Profile(nn.SR512)
	if ps.Energy >= pf.Energy {
		t.Errorf("3D should cut SR-512 energy: %v vs %v", ps.Energy, pf.Energy)
	}
	if ps.Delay > pf.Delay {
		t.Errorf("3D should not be slower: %v vs %v", ps.Delay, pf.Delay)
	}
}

func TestEmbodied(t *testing.T) {
	p7, fab := carbon.Process7nm(), carbon.FabCoal
	a1 := New("a1", 1, units.MB(1))
	a48 := New("a48", 16, units.MB(8))
	e1, err := a1.Embodied(p7, fab)
	if err != nil {
		t.Fatal(err)
	}
	e48, err := a48.Embodied(p7, fab)
	if err != nil {
		t.Fatal(err)
	}
	if e48 <= e1 {
		t.Error("bigger config should have higher embodied carbon")
	}
	// The ratio must be substantial — it is what lets small designs win at
	// short operational times (Fig. 8).
	if ratio := e48.Grams() / e1.Grams(); ratio < 2 {
		t.Errorf("a48/a1 embodied ratio = %.2f, want ≥ 2", ratio)
	}
	// Invalid config errors.
	if _, err := (Config{ID: "bad"}).Embodied(p7, fab); err == nil {
		t.Error("invalid config should error")
	}
}

func TestEmbodied3DIncludesAllDice(t *testing.T) {
	cfgs := Stacked3D()
	byID := map[string]Config{}
	for _, c := range cfgs {
		byID[c.ID] = c
	}
	e2, _ := byID[Stacked1K2M].Embodied(carbon.Process7nm(), carbon.FabCoal)
	e8, _ := byID[Stacked1K8M].Embodied(carbon.Process7nm(), carbon.FabCoal)
	if e8 <= e2 {
		t.Error("more stacked memory dies should cost more embodied carbon")
	}
}

// mustKernel is nn.Kernel for the static IDs the tests use.
func mustKernel(id nn.KernelID) *nn.Network {
	n, err := nn.Kernel(id)
	if err != nil {
		panic(err)
	}
	return n
}

func TestSpillPenaltyGrowsWithDeficit(t *testing.T) {
	// Same working set, shrinking SRAM: DRAM traffic per spilled byte must
	// grow (the deficit-dependent re-read factor).
	layer := mustKernel(nn.SR512).Layers[1] // a big trunk conv
	c8 := New("c8", 16, units.MB(8))
	c1 := New("c1", 16, units.MB(1))
	lc8 := c8.LayerCost(layer)
	lc1 := c1.LayerCost(layer)
	ws := layer.WorkingSet()
	if ws <= c8.SRAM {
		t.Skip("layer fits; pick a bigger one")
	}
	perByte8 := float64(lc8.DRAMTraffic-layer.WeightBytes()) / float64(ws-c8.SRAM)
	perByte1 := float64(lc1.DRAMTraffic-layer.WeightBytes()) / float64(ws-c1.SRAM)
	if perByte1 <= perByte8 {
		t.Errorf("re-read factor should grow with deficit: %v vs %v", perByte1, perByte8)
	}
}

// bandwidthRequirement is the processor–memory bandwidth a kernel needs to
// run compute-bound on c: the DRAM traffic of one inference divided by the
// pure compute time.
func bandwidthRequirement(c Config, id nn.KernelID) (units.Bandwidth, error) {
	p, err := c.Profile(id)
	if err != nil {
		return 0, err
	}
	if p.ComputeTime <= 0 {
		return 0, fmt.Errorf("accel: kernel %s has no compute time on %s", id, c.ID)
	}
	return units.Bandwidth(float64(p.DRAMTraffic) / p.ComputeTime.Seconds()), nil
}

// §V: "as super-resolution kernels scale up in resolution ... their memory
// and bandwidth requirements grow beyond the typical LPDDR4 DRAM 16 GB/s
// peak bandwidth. Therefore, increasing the activation SRAM from 2 MB to
// 32 MB decreases the bandwidth requirements ... within acceptable ranges."
func TestBandwidthRequirementClaim(t *testing.T) {
	lpddr4 := units.GBps(16)
	small := New("c2", 16, units.MB(2))
	big := New("c32", 16, units.MB(32))

	bwSmall, err := bandwidthRequirement(small, nn.SR1024)
	if err != nil {
		t.Fatal(err)
	}
	bwBig, err := bandwidthRequirement(big, nn.SR1024)
	if err != nil {
		t.Fatal(err)
	}
	if bwSmall <= lpddr4 {
		t.Errorf("SR-1024 at 2 MB should exceed LPDDR4: needs %v", bwSmall)
	}
	if bwBig >= lpddr4 {
		t.Errorf("SR-1024 at 32 MB should fit within LPDDR4: needs %v", bwBig)
	}
	// Paper: 89.6×; measured ≈14× — an order-of-magnitude collapse, smaller
	// than the paper's because residual-add working sets still spill at
	// 32 MB in this model.
	ratio := bwSmall.BytesPerSecond() / bwBig.BytesPerSecond()
	if ratio < 10 {
		t.Errorf("bandwidth reduction = %.1f×, want ≥ 10× (paper: 89.6×)", ratio)
	}
}

func TestBandwidthRequirementGrowsWithResolution(t *testing.T) {
	c := New("c", 16, units.MB(2))
	prev := units.Bandwidth(0)
	for _, id := range []nn.KernelID{nn.SR256, nn.SR512, nn.SR1024} {
		bw, err := bandwidthRequirement(c, id)
		if err != nil {
			t.Fatal(err)
		}
		if bw <= prev {
			t.Errorf("%s: bandwidth requirement should grow with resolution", id)
		}
		prev = bw
	}
}

func TestProfileBreakdownConsistency(t *testing.T) {
	c := New("c", 16, units.MB(8))
	p, err := c.Profile(nn.DN)
	if err != nil {
		t.Fatal(err)
	}
	sum := p.MACEnergy + p.SRAMEnergy + p.DRAMEnergy
	if math.Abs(sum.Joules()-p.Energy.Joules()) > 1e-9*p.Energy.Joules() {
		t.Errorf("energy breakdown %v does not sum to %v", sum, p.Energy)
	}
	if p.ComputeTime <= 0 || p.MemoryTime <= 0 {
		t.Error("breakdown times missing")
	}
	if p.Delay < p.ComputeTime && p.Delay < p.MemoryTime {
		t.Error("delay below both roofline components")
	}
}

func TestBandwidthRequirementErrors(t *testing.T) {
	bad := Config{ID: "bad"}
	if _, err := bandwidthRequirement(bad, nn.SR256); err == nil {
		t.Error("invalid config should error")
	}
}

// Property: delay is non-increasing in SRAM capacity (more SRAM can only
// reduce spill traffic) for every kernel, across random capacity pairs.
func TestDelayMonotoneInSRAMProperty(t *testing.T) {
	kernels := nn.AllKernels()
	f := func(a, b uint8, kIdx uint8) bool {
		mb1 := 1 + float64(a%64)
		mb2 := 1 + float64(b%64)
		if mb1 > mb2 {
			mb1, mb2 = mb2, mb1
		}
		id := kernels[int(kIdx)%len(kernels)]
		small := New("s", 8, units.MB(mb1))
		big := New("b", 8, units.MB(mb2))
		ps, err1 := small.Profile(id)
		pb, err2 := big.Profile(id)
		return err1 == nil && err2 == nil && pb.Delay <= ps.Delay+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: embodied carbon is strictly increasing in both grid axes.
func TestEmbodiedMonotoneProperty(t *testing.T) {
	macs, srams := gridMACOptions, gridSRAMOptions
	f := func(mi, si uint8) bool {
		i := int(mi) % (len(macs) - 1)
		j := int(si) % (len(srams) - 1)
		small := New("s", macs[i], units.MB(srams[j]))
		bigger := New("b", macs[i+1], units.MB(srams[j+1]))
		es, err1 := small.Embodied(carbon.Process7nm(), carbon.FabCoal)
		eb, err2 := bigger.Embodied(carbon.Process7nm(), carbon.FabCoal)
		return err1 == nil && err2 == nil && eb > es
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
