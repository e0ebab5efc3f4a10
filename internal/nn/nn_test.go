package nn

import (
	"math"
	"strings"
	"testing"

	"cordoba/internal/units"
)

func TestConvLayerAccounting(t *testing.T) {
	b := NewBuilder("t", 3, 224, 224)
	b.Conv("conv1", 64, 7, 2, 3)
	n := b.Build()
	l := n.Layers[0]
	if l.OutH != 112 || l.OutW != 112 {
		t.Fatalf("conv output = %dx%d, want 112x112", l.OutH, l.OutW)
	}
	wantMACs := 7.0 * 7 * 3 * 64 * 112 * 112
	if l.MACs() != wantMACs {
		t.Errorf("MACs = %v, want %v", l.MACs(), wantMACs)
	}
	wantParams := 7.0*7*3*64 + 64
	if l.Params() != wantParams {
		t.Errorf("params = %v, want %v", l.Params(), wantParams)
	}
	if l.InputBytes() != units.Bytes(3*224*224) {
		t.Errorf("input bytes = %v", l.InputBytes())
	}
	if l.OutputBytes() != units.Bytes(64*112*112) {
		t.Errorf("output bytes = %v", l.OutputBytes())
	}
	if l.WorkingSet() != l.InputBytes()+l.OutputBytes() {
		t.Error("working set mismatch")
	}
}

func TestDepthwiseAndFCAccounting(t *testing.T) {
	b := NewBuilder("t", 32, 56, 56)
	b.DWConv("dw", 3, 1, 1).FC("fc", 10)
	n := b.Build()
	dw := n.Layers[0]
	if dw.MACs() != 3*3*32*56*56 {
		t.Errorf("dw MACs = %v", dw.MACs())
	}
	fc := n.Layers[1]
	if fc.InC != 32*56*56 {
		t.Errorf("fc input = %v", fc.InC)
	}
	if fc.MACs() != float64(32*56*56*10) {
		t.Errorf("fc MACs = %v", fc.MACs())
	}
}

func TestPoolUpsampleEltwiseHaveNoMACs(t *testing.T) {
	b := NewBuilder("t", 8, 32, 32)
	b.Pool("p", 2, 2, 0).Upsample("u", 2).GlobalPool("g")
	n := b.Build()
	for _, l := range n.Layers {
		if l.MACs() != 0 || l.Params() != 0 {
			t.Errorf("%s should have no MACs/params", l.Name)
		}
	}
}

func TestResidualInsertsProjection(t *testing.T) {
	b := NewBuilder("t", 64, 56, 56)
	b.Residual("blk", func(b *Builder) {
		b.Conv("c1", 128, 3, 2, 1)
	})
	n := b.Build()
	var haveProj, haveAdd bool
	for _, l := range n.Layers {
		if strings.HasSuffix(l.Name, ".proj") {
			haveProj = true
			if l.Stride != 2 || l.Kernel != 1 || l.OutC != 128 {
				t.Errorf("projection misconfigured: %+v", l)
			}
		}
		if l.Kind == OpEltwise {
			haveAdd = true
			if l.Inputs != 2 {
				t.Errorf("eltwise should have 2 inputs")
			}
		}
	}
	if !haveProj || !haveAdd {
		t.Fatalf("residual with shape change needs proj+add, got %v", n.Layers)
	}
	// Identity residual has no projection.
	b2 := NewBuilder("t2", 64, 56, 56)
	b2.Residual("blk", func(b *Builder) { b.Conv("c1", 64, 3, 1, 1) })
	for _, l := range b2.Build().Layers {
		if strings.HasSuffix(l.Name, ".proj") {
			t.Error("identity residual should not project")
		}
	}
}

func TestBranchConcatenatesChannels(t *testing.T) {
	b := NewBuilder("t", 16, 28, 28)
	b.Branch("inc",
		func(b *Builder) { b.Conv("a", 8, 1, 1, 0) },
		func(b *Builder) { b.Conv("b", 24, 3, 1, 1) },
	)
	c, h, w := b.Shape()
	if c != 32 || h != 28 || w != 28 {
		t.Fatalf("branch output = %d,%d,%d", c, h, w)
	}
}

func TestBuilderPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("bad input", func() { NewBuilder("x", 0, 1, 1) })
	mustPanic("collapsing conv", func() {
		NewBuilder("x", 3, 4, 4).Conv("c", 8, 7, 1, 0)
	})
	mustPanic("collapsing pool", func() {
		NewBuilder("x", 3, 2, 2).Pool("p", 4, 4, 0)
	})
	mustPanic("empty branch", func() {
		NewBuilder("x", 3, 8, 8).Branch("b")
	})
	mustPanic("mismatched branch", func() {
		NewBuilder("x", 3, 8, 8).Branch("b",
			func(b *Builder) { b.Conv("a", 4, 1, 1, 0) },
			func(b *Builder) { b.Pool("p", 2, 2, 0) },
		)
	})
	mustPanic("upsampling residual", func() {
		NewBuilder("x", 3, 8, 8).Residual("r", func(b *Builder) { b.Upsample("u", 2) })
	})
	mustPanic("empty build", func() { NewBuilder("x", 1, 1, 1).Build() })
}

func TestOpKindStrings(t *testing.T) {
	for k := OpConv; k <= OpEltwise; k++ {
		if k.String() == "" {
			t.Errorf("op %d has empty name", int(k))
		}
	}
	if OpKind(99).String() != "OpKind(99)" {
		t.Error("unknown op string")
	}
}

// ---- the fifteen kernels ----

func TestAllKernelsBuildAndValidate(t *testing.T) {
	ids := AllKernels()
	if len(ids) != 15 {
		t.Fatalf("expected 15 kernels, got %d", len(ids))
	}
	for _, id := range ids {
		n, err := Kernel(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", id, err)
		}
		s := n.Stats()
		if s.MACs <= 0 || s.Params <= 0 || s.PeakActivation <= 0 {
			t.Errorf("%s: degenerate stats %+v", id, s)
		}
	}
}

// mustKernel is Kernel for the static IDs the tests use.
func mustKernel(id KernelID) *Network {
	n, err := Kernel(id)
	if err != nil {
		panic(err)
	}
	return n
}

func TestKernelCacheAndErrors(t *testing.T) {
	a, _ := Kernel(RN18)
	b, _ := Kernel(RN18)
	if a != b {
		t.Error("kernel cache should return the same instance")
	}
	if _, err := Kernel("nope"); err == nil {
		t.Error("unknown kernel should error")
	}
}

// Published MAC counts for the standard backbones at 224²: ResNet-18 ≈1.82 G,
// ResNet-50 ≈4.1 G, ResNet-152 ≈11.6 G, GoogLeNet ≈1.5 G, MobileNet-V2 ≈0.31 G.
// The layer IR should land within 15 % of each.
func TestBackboneMACCounts(t *testing.T) {
	want := map[KernelID]float64{
		RN18:  1.82e9,
		RN50:  4.1e9,
		RN152: 11.6e9,
		GN:    1.5e9,
		MN2:   0.31e9,
	}
	for id, macs := range want {
		got := mustKernel(id).Stats().MACs
		if math.Abs(got-macs) > 0.15*macs {
			t.Errorf("%s: MACs = %.3g, want ≈%.3g", id, got, macs)
		}
	}
}

// Published parameter counts: RN-18 ≈11.7 M, RN-50 ≈25.6 M, RN-152 ≈60 M,
// MN2 ≈3.5 M.
func TestBackboneParamCounts(t *testing.T) {
	want := map[KernelID]float64{
		RN18:  11.7e6,
		RN50:  25.6e6,
		RN152: 60e6,
		MN2:   3.5e6,
	}
	for id, params := range want {
		got := mustKernel(id).Stats().Params
		if math.Abs(got-params) > 0.15*params {
			t.Errorf("%s: params = %.3g, want ≈%.3g", id, got, params)
		}
	}
}

// §V: XR kernels with high activation requirements (depth estimation, image
// denoising, super-resolution) must dwarf the classification backbones.
func TestActivationMemoryCategorization(t *testing.T) {
	peak := func(id KernelID) units.Bytes { return mustKernel(id).Stats().PeakActivation }
	heavy := []KernelID{Agg3D, HRN, DN, UNet, SR512, SR1024}
	light := []KernelID{RN18, RN50, RN152, GN, MN2, ET, JLP}
	minHeavy := units.Bytes(math.Inf(1))
	for _, id := range heavy {
		if p := peak(id); p < minHeavy {
			minHeavy = p
		}
	}
	for _, id := range light {
		if p := peak(id); p >= minHeavy {
			t.Errorf("%s peak activation %v should be below the lightest heavy kernel %v", id, p, minHeavy)
		}
	}
	// Heavy kernels must exceed 2 MB (the paper's small-SRAM threshold).
	for _, id := range heavy {
		if p := peak(id); p < 2*units.MiB {
			t.Errorf("%s peak activation %v should exceed 2 MiB", id, p)
		}
	}
}

// §V: super-resolution working sets grow with resolution; SR-1024 must
// exceed 16 MB so that even large on-chip SRAM barely contains it.
func TestSuperResolutionScaling(t *testing.T) {
	p256 := mustKernel(SR256).Stats().PeakActivation
	p512 := mustKernel(SR512).Stats().PeakActivation
	p1024 := mustKernel(SR1024).Stats().PeakActivation
	if !(p256 < p512 && p512 < p1024) {
		t.Fatalf("SR peaks not increasing: %v %v %v", p256, p512, p1024)
	}
	ratio := float64(p1024) / float64(p256)
	if math.Abs(ratio-16) > 0.5 {
		t.Errorf("SR-1024/SR-256 peak ratio = %v, want ≈16 (quadratic in resolution)", ratio)
	}
	if p1024 < 16*units.MiB {
		t.Errorf("SR-1024 peak = %v, want > 16 MiB", p1024)
	}
}

func TestStatsAggregation(t *testing.T) {
	n := mustKernel(RN18)
	s := n.Stats()
	if s.Layers != len(n.Layers) {
		t.Errorf("layer count mismatch")
	}
	var macs float64
	for _, l := range n.Layers {
		macs += l.MACs()
	}
	if macs != s.MACs {
		t.Errorf("MAC aggregation mismatch")
	}
	if s.WeightBytes != units.Bytes(s.Params*BytesPerElement) {
		t.Errorf("weight bytes = %v, params = %v", s.WeightBytes, s.Params)
	}
}

func TestValidateCatchesBadShapes(t *testing.T) {
	n := &Network{Name: "bad", Layers: []Layer{{Name: "x", InC: 0, InH: 1, InW: 1, OutC: 1, OutH: 1, OutW: 1}}}
	if err := n.Validate(); err == nil {
		t.Error("expected validation error")
	}
	empty := &Network{Name: "empty"}
	if err := empty.Validate(); err == nil {
		t.Error("empty network should be invalid")
	}
}

func TestArithmeticIntensity(t *testing.T) {
	// Depthwise-separable MobileNet-V2 has far less reuse per byte than the
	// dense-convolution ResNet-50.
	rn50 := mustKernel(RN50).Stats().ArithmeticIntensity()
	mn2 := mustKernel(MN2).Stats().ArithmeticIntensity()
	if rn50 <= 0 || mn2 <= 0 {
		t.Fatal("degenerate intensities")
	}
	if mn2 >= rn50 {
		t.Errorf("MN2 intensity (%.1f) should be below RN-50 (%.1f)", mn2, rn50)
	}
	// SR-1024 is capacity-bound, not traffic-bound: high intensity but a
	// working set beyond even large SRAMs.
	sr := mustKernel(SR1024).Stats()
	if sr.ArithmeticIntensity() <= 0 {
		t.Fatal("degenerate SR intensity")
	}
	if float64(sr.PeakActivation) < 20*float64(sr.WeightBytes) {
		t.Errorf("SR-1024 activations (%v) should dwarf its weights (%v)", sr.PeakActivation, sr.WeightBytes)
	}
	// Layer-level: pools have zero MACs, hence zero intensity.
	for _, l := range mustKernel(RN18).Layers {
		if l.Kind == OpPool && l.ArithmeticIntensity() != 0 {
			t.Errorf("pool layer %s has nonzero intensity", l.Name)
		}
	}
	var zero Stats
	if zero.ArithmeticIntensity() != 0 {
		t.Error("zero stats intensity should be 0")
	}
}

func TestDescribe(t *testing.T) {
	var b strings.Builder
	if err := mustKernel(MN2).Describe(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"MN2", "conv1", "GMACs", "dwconv", "working set"} {
		if !strings.Contains(out, want) {
			t.Errorf("describe output missing %q", want)
		}
	}
	// One line per layer plus header/footer lines.
	if lines := strings.Count(out, "\n"); lines != len(mustKernel(MN2).Layers)+3 {
		t.Errorf("describe lines = %d, want %d", lines, len(mustKernel(MN2).Layers)+3)
	}
}

func TestHeaviestLayers(t *testing.T) {
	net := mustKernel(SR512)
	// The heaviest layer's working set is the peak activation (§V sizes the
	// activation SRAM by it).
	var heaviest units.Bytes
	for _, l := range net.Layers {
		heaviest = max(heaviest, l.WorkingSet())
	}
	if heaviest != net.Stats().PeakActivation {
		t.Errorf("heaviest layer %v, peak activation %v", heaviest, net.Stats().PeakActivation)
	}
}
