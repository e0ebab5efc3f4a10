package accel

import (
	"testing"

	"cordoba/internal/device"
	"cordoba/internal/nn"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

// bitwiseConfigs is the configuration set the replay paths are held to:
// the whole Fig. 8 grid, the 3D configurations, a DVFS/node-style rescaled
// configuration, and 2.5d/3d partitions of several grid shapes over several
// chiplet counts and chiplet nodes.
func bitwiseConfigs() []Config {
	configs := append(Grid(), Stacked3D()...)
	// Slower clock, cheaper ops, different leakage — everything outside the
	// ShapeKey.
	scaled := New("scaled", 48, units.MB(24))
	scaled.Params.Clock *= 0.6321
	scaled.Params.MACEnergy *= 0.7777
	scaled.Params.SRAMEnergyBase *= 0.7777
	scaled.Params.SRAMEnergySlope *= 0.7777
	scaled.Params.BaseLeakage *= 1.3
	configs = append(configs, scaled)
	for _, base := range []Config{New("p16", 16, units.MB(2)), New("p48", 48, units.MB(24)), scaled} {
		for _, integ := range []string{Integration25D, Integration3D} {
			for _, chiplets := range []int{0, 2, 4} {
				for _, node := range []string{"", "14nm"} {
					c := base
					c.Partition = Partition{Chiplets: chiplets, Integration: integ, ChipletNode: node, MemAreaScale: 1.7}
					configs = append(configs, c)
				}
			}
		}
	}
	return configs
}

// TestShapeProfileCostBitwise holds both replay paths equal — bit for bit —
// to the direct simulator path: the one-cell ShapeProfile.Cost for every
// configuration, and the batched Replay over each ShapeKey's
// configurations priced together, which puts several memory classes
// (monolithic, legacy 3D, 2.5d and 3d cuts) and clocks in one batch. The
// delay-only replay's delay plus the full replay's stored energy is the
// direct cost too, and the delay-only replay leaves every energy zero.
func TestShapeProfileCostBitwise(t *testing.T) {
	configs := bitwiseConfigs()
	byKey := map[ShapeKey][]Config{}
	var keys []ShapeKey
	for _, c := range configs {
		k := c.ShapeKey()
		if byKey[k] == nil {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], c)
	}

	var r Replay
	batches, mixed := 0, 0
	for _, k := range keys {
		group := byKey[k]
		pr := make([]Pricing, len(group))
		for i, c := range group {
			pr[i] = c.Pricing()
		}
		r.Load(pr)
		if len(r.mems) > 1 {
			mixed++
		}
		out := make([]workload.KernelCost, len(group))
		delays := make([]workload.KernelCost, len(group))
		for _, id := range nn.AllKernels() {
			sp, err := group[0].ShapeProfile(id)
			if err != nil {
				t.Fatal(err)
			}
			if sp.Key != k {
				t.Fatalf("%s: profile key %+v != config key %+v", group[0].ID, sp.Key, k)
			}
			r.Cost(sp, out, false)
			r.Cost(sp, delays, true)
			for i, c := range group {
				direct, err := c.KernelCost(id)
				if err != nil {
					t.Fatal(err)
				}
				if replay := sp.Cost(c); replay != direct {
					t.Fatalf("%s %+v/%s: replay %+v != direct %+v", c.ID, c.Partition, id, replay, direct)
				}
				if out[i] != direct {
					t.Fatalf("%s %+v/%s: batched replay %+v != direct %+v", c.ID, c.Partition, id, out[i], direct)
				}
				if delays[i].DynamicEnergy != 0 {
					t.Fatalf("%s %+v/%s: delay-only replay priced energy %v", c.ID, c.Partition, id, delays[i].DynamicEnergy)
				}
				split := workload.KernelCost{Delay: delays[i].Delay, DynamicEnergy: out[i].DynamicEnergy}
				if split != direct {
					t.Fatalf("%s %+v/%s: delay-only replay + stored energy %+v != direct %+v", c.ID, c.Partition, id, split, direct)
				}
			}
		}
		batches++
	}
	if mixed < 3 {
		t.Fatalf("only %d of %d batches mixed memory classes; the set should put several in one batch", mixed, batches)
	}
}

// TestDynamicEnergyIgnoresMACArraysAndClock pins the invariant the DSE
// engine's energy reuse rests on (dse.shapeEval.priceShape): a kernel's
// dynamic energy is bit-identical across configurations that differ only
// in MAC-array count or clock, over the Fig. 8 grid, the 3D configurations
// and 2.5d/3d partitions. Its delay does move, so the variants do differ.
func TestDynamicEnergyIgnoresMACArraysAndClock(t *testing.T) {
	moved := false
	for _, c := range bitwiseConfigs() {
		variants := []Config{c, c, c, c}
		variants[1].MACArrays = 2*c.MACArrays + 7
		variants[2].Params.Clock *= 0.6173
		variants[3].MACArrays = max(1, c.MACArrays/3)
		variants[3].Params.Clock *= 1.37
		for _, id := range nn.AllKernels() {
			want, err := c.KernelCost(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range variants[1:] {
				got, err := v.KernelCost(id)
				if err != nil {
					t.Fatal(err)
				}
				if got.DynamicEnergy != want.DynamicEnergy {
					t.Fatalf("%s %+v/%s: %d arrays at %v Hz: energy %v != %v at %d arrays, %v Hz",
						c.ID, c.Partition, id, v.MACArrays, v.Params.Clock.Hertz(), got.DynamicEnergy, want.DynamicEnergy, c.MACArrays, c.Params.Clock.Hertz())
				}
				moved = moved || got.Delay != want.Delay
			}
		}
	}
	if !moved {
		t.Fatal("no variant moved a delay: the MAC-array and clock changes did not reach the roofline")
	}
}

// TestReplayReusesComputeTimesAcrossSRAM: the compute-time rows never depend
// on SRAM, so one Replay walking a MAC count's SRAM sizes fills each
// kernel's row once and reuses it, with results still bit-identical to the
// direct path — across SRAM sizes where layers spill to DRAM and where
// every working set fits. Reuse is observed by scaling the cached row: a
// shape that reads it prices visibly off, one that refills it prices
// exactly.
func TestReplayReusesComputeTimesAcrossSRAM(t *testing.T) {
	const id = nn.SR512
	net, err := nn.Kernel(id)
	if err != nil {
		t.Fatal(err)
	}
	spills := func(c Config) bool {
		for _, l := range net.Layers {
			if l.WorkingSet() > c.SRAM {
				return true
			}
		}
		return false
	}
	// Two clocks and two memory classes per shape.
	group := func(shape Config) []Config {
		slow := shape
		slow.Params.Clock *= 0.5
		slow.Params.MACEnergy *= 0.6
		cut := shape
		cut.Partition = Partition{Chiplets: 2, Integration: Integration25D}
		return []Config{shape, slow, cut}
	}
	var r Replay
	// price loads shape's group, replays its profile, and reports whether
	// every cost matched the direct path.
	price := func(shape Config) bool {
		t.Helper()
		cfgs := group(shape)
		pr := make([]Pricing, len(cfgs))
		for j, c := range cfgs {
			pr[j] = c.Pricing()
		}
		r.Load(pr)
		out := make([]workload.KernelCost, len(cfgs))
		r.Cost(mustProfile(t, shape, id), out, false)
		exact := true
		for j, c := range cfgs {
			direct, err := c.KernelCost(id)
			if err != nil {
				t.Fatal(err)
			}
			exact = exact && out[j] == direct
		}
		return exact
	}
	skew := func() {
		for i := range r.rows {
			for j := range r.rows[i].ct {
				r.rows[i].ct[j] *= 2
			}
		}
	}

	sawSpill, sawFit := false, false
	for _, mb := range []float64{0.25, 2, 16, 256} {
		shape := New("", 16, units.MB(mb))
		if spills(shape) {
			sawSpill = true
		} else {
			sawFit = true
		}
		if !price(shape) {
			t.Fatalf("%g MB: batched replay differs from the direct path", mb)
		}
	}
	if !sawSpill || !sawFit {
		t.Fatalf("SRAM sizes must cover both branches: spill %v, fit %v", sawSpill, sawFit)
	}
	skew()
	if price(New("", 16, units.MB(64))) {
		t.Fatal("another SRAM size of the same MAC count recomputed the compute-time row instead of reusing it")
	}

	// A different MAC count or a different clock set refills the row.
	if !price(New("", 32, units.MB(2))) {
		t.Fatal("a new MAC count reused a stale compute-time row")
	}
	skew()
	other := New("", 32, units.MB(4))
	other.Params.Clock *= 0.9
	if !price(other) {
		t.Fatal("new clocks reused a stale compute-time row")
	}
}

// TestReplayManyClocks: beyond maxRowClocks distinct clocks the replay
// caches no compute-time rows — scaling whatever it kept between two
// replays of one profile changes nothing — and still prices every
// configuration bit-identically to the direct path.
func TestReplayManyClocks(t *testing.T) {
	shape := New("", 24, units.MB(3))
	var cfgs []Config
	for i := 0; i <= maxRowClocks; i++ {
		c := shape
		c.Params.Clock *= units.Frequency(0.5 + float64(i)/256)
		if i%2 == 1 {
			c.Partition = Partition{Chiplets: 4, Integration: Integration3D}
		}
		cfgs = append(cfgs, c)
	}
	pr := make([]Pricing, len(cfgs))
	for j, c := range cfgs {
		pr[j] = c.Pricing()
	}
	var r Replay
	r.Load(pr)
	out := make([]workload.KernelCost, len(cfgs))
	delays := make([]workload.KernelCost, len(cfgs))
	for _, id := range nn.AllKernels() {
		sp := mustProfile(t, shape, id)
		for pass := 0; pass < 2; pass++ {
			r.Cost(sp, out, false)
			r.Cost(sp, delays, true)
			for j, c := range cfgs {
				direct, err := c.KernelCost(id)
				if err != nil {
					t.Fatal(err)
				}
				if out[j] != direct {
					t.Fatalf("%s pass %d, config %d: batched replay %+v != direct %+v", id, pass, j, out[j], direct)
				}
				if delays[j] != (workload.KernelCost{Delay: direct.Delay}) {
					t.Fatalf("%s pass %d, config %d: delay-only replay %+v, want delay %v", id, pass, j, delays[j], direct.Delay)
				}
			}
			for i := range r.rows {
				for j := range r.rows[i].ct {
					r.rows[i].ct[j] *= 2
				}
			}
		}
	}
}

func mustProfile(t testing.TB, c Config, id nn.KernelID) *ShapeProfile {
	t.Helper()
	sp, err := c.ShapeProfile(id)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestShapeProfileCostAllocs: the one-cell replay is the surrogate search's
// per-point path and must stay allocation-free.
func TestShapeProfileCostAllocs(t *testing.T) {
	c := New("", 16, units.MB(8))
	c.Partition = Partition{Chiplets: 2, Integration: Integration25D}
	sp := mustProfile(t, c, nn.RN50)
	if a := testing.AllocsPerRun(100, func() { sp.Cost(c) }); a != 0 {
		t.Fatalf("ShapeProfile.Cost allocates %.1f objects, want 0", a)
	}
}

// TestShapeKeyInvariance: configs differing only in knob-scaled parameters
// share a ShapeKey; configs differing in shape fields do not.
func TestShapeKeyInvariance(t *testing.T) {
	a := New("a", 16, units.MB(8))
	b := New("b", 16, units.MB(8))
	b.Params.Clock *= 0.5
	b.Params.MACEnergy *= 0.5
	b.Params.BaseArea *= 2
	b.Is3D = true
	b.MemDies = 4
	if a.ShapeKey() != b.ShapeKey() {
		t.Error("knob-only differences must not change the ShapeKey")
	}
	c := New("c", 32, units.MB(8))
	if a.ShapeKey() == c.ShapeKey() {
		t.Error("MAC-array count must change the ShapeKey")
	}
	d := New("d", 16, units.MB(16))
	if a.ShapeKey() == d.ShapeKey() {
		t.Error("SRAM capacity must change the ShapeKey")
	}
	e := New("e", 16, units.MB(8))
	e.Params.TilingPenalty *= 2
	if a.ShapeKey() == e.ShapeKey() {
		t.Error("tiling penalty must change the ShapeKey")
	}
}

// TestShapeProfileReplayFasterPath sanity-checks that a 3D config replays
// correctly too: Is3D changes SRAM energy and bandwidth but not the key, so
// a profile computed on the 2D twin replays on the 3D one.
func TestShapeProfileReplayAcross3D(t *testing.T) {
	flat := New("flat", 16, units.MB(8))
	stacked := flat
	stacked.ID = "stacked"
	stacked.Is3D = true
	stacked.MemDies = 4
	for _, id := range nn.AllKernels() {
		sp, err := flat.ShapeProfile(id)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := stacked.KernelCost(id)
		if err != nil {
			t.Fatal(err)
		}
		if replay := sp.Cost(stacked); replay != direct {
			t.Fatalf("%s: 3D replay %+v != direct %+v", id, replay, direct)
		}
	}
}

// TestShapeProfileFromSharesComputeHalf: a profile built from a sibling of
// another SRAM size shares the sibling's SRAM-independent half and still
// replays bit-identically to the direct path; a base of another kernel or
// MAC count is ignored.
func TestShapeProfileFromSharesComputeHalf(t *testing.T) {
	small, big := New("", 16, units.MB(0.25)), New("", 16, units.MB(64))
	base := mustProfile(t, small, nn.SR512)
	sp, err := big.ShapeProfileFrom(nn.SR512, base)
	if err != nil {
		t.Fatal(err)
	}
	if &sp.compute[0] != &base.compute[0] {
		t.Fatal("sibling of another SRAM size did not share the compute half")
	}
	direct, err := big.KernelCost(nn.SR512)
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.Cost(big); got != direct {
		t.Fatalf("shared-half replay %+v != direct %+v", got, direct)
	}

	for _, c := range []struct {
		cfg Config
		id  nn.KernelID
	}{
		{New("", 32, units.MB(64)), nn.SR512}, // another MAC count
		{big, nn.RN50},                        // another kernel
	} {
		sp, err := c.cfg.ShapeProfileFrom(c.id, base)
		if err != nil {
			t.Fatal(err)
		}
		if &sp.compute[0] == &base.compute[0] {
			t.Fatalf("%d arrays/%s: shared the compute half of an unrelated profile", c.cfg.MACArrays, c.id)
		}
		direct, err := c.cfg.KernelCost(c.id)
		if err != nil {
			t.Fatal(err)
		}
		if got := sp.Cost(c.cfg); got != direct {
			t.Fatalf("%d arrays/%s: replay %+v != direct %+v", c.cfg.MACArrays, c.id, got, direct)
		}
	}
}

// TestShapeProfileFromSharesMemHalf: a profile built from a sibling of
// another MAC count at the same SRAM size shares the sibling's
// SRAM-dependent half and still replays bit-identically to the direct path;
// a sibling of another SRAM size or tiling penalty is ignored.
func TestShapeProfileFromSharesMemHalf(t *testing.T) {
	small, big := New("", 4, units.MB(2)), New("", 64, units.MB(2))
	base := mustProfile(t, small, nn.SR512)
	sp, err := big.ShapeProfileFrom(nn.SR512, base)
	if err != nil {
		t.Fatal(err)
	}
	if &sp.mem[0] != &base.mem[0] {
		t.Fatal("sibling of another MAC count did not share the SRAM-dependent half")
	}
	direct, err := big.KernelCost(nn.SR512)
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.Cost(big); got != direct {
		t.Fatalf("shared-half replay %+v != direct %+v", got, direct)
	}

	tiled := big
	tiled.Params.TilingPenalty *= 2
	for _, c := range []Config{New("", 64, units.MB(4)), tiled} {
		sp, err := c.ShapeProfileFrom(nn.SR512, base)
		if err != nil {
			t.Fatal(err)
		}
		if &sp.mem[0] == &base.mem[0] {
			t.Fatalf("%v MB, penalty %v: shared the SRAM-dependent half of an unrelated profile", c.SRAM.InMB(), c.Params.TilingPenalty)
		}
		direct, err := c.KernelCost(nn.SR512)
		if err != nil {
			t.Fatal(err)
		}
		if got := sp.Cost(c); got != direct {
			t.Fatalf("%v MB, penalty %v: replay %+v != direct %+v", c.SRAM.InMB(), c.Params.TilingPenalty, got, direct)
		}
	}
}

// BenchmarkReplayCost times the batched replay's layer on the 105k-point
// reference grid's inputs: one shape (100 MAC arrays, 29 MB) priced for all
// 15 kernels under the grid's 70 pricings (10 V_DD points × 7 nodes,
// scaled as the DSE grid scales a cell). "full" prices delay and energy,
// as the first MAC count of an SRAM size does; "delay" prices the delay
// alone, as every later MAC count does (dse.shapeEval.priceShape). The
// compute-time rows stay warm across iterations, as they do across a MAC
// count's SRAM sizes.
func BenchmarkReplayCost(b *testing.B) {
	shape := New("", 100, units.MB(29))
	ref := device.NewDesign(device.Node7nm())
	var pr []Pricing
	for i := 0; i < 10; i++ {
		for _, node := range device.Nodes() {
			d := device.DVFSPoint(device.NewDesign(node), 0.55+0.05*float64(i))
			clockR := d.MaxClock().Hertz() / ref.MaxClock().Hertz()
			energyR := d.DynamicEnergyPerCycle().Joules() / ref.DynamicEnergyPerCycle().Joules()
			c := shape
			c.Params.Clock *= units.Frequency(clockR)
			c.Params.MACEnergy *= units.Energy(energyR)
			c.Params.SRAMEnergyBase *= units.Energy(energyR)
			c.Params.SRAMEnergySlope *= units.Energy(energyR)
			pr = append(pr, c.Pricing())
		}
	}
	var sps []*ShapeProfile
	for _, id := range nn.AllKernels() {
		sps = append(sps, mustProfile(b, shape, id))
	}
	out := make([]workload.KernelCost, len(pr))
	for _, mode := range []struct {
		name      string
		delayOnly bool
	}{{"full", false}, {"delay", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var r Replay
			r.Load(pr)
			for _, sp := range sps {
				r.Cost(sp, out, mode.delayOnly)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, sp := range sps {
					r.Cost(sp, out, mode.delayOnly)
				}
			}
		})
	}
}
