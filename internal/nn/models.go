package nn

import (
	"fmt"
	"sort"
	"sync"
)

// KernelID names one of the fifteen AI/XR kernels of paper §V.
type KernelID string

// The fifteen kernels of Table IV.
const (
	RN18   KernelID = "RN-18"        // ResNet-18 [23]
	RN50   KernelID = "RN-50"        // ResNet-50 [23]
	RN152  KernelID = "RN-152"       // ResNet-152 [23]
	GN     KernelID = "GN"           // GoogleNet [51]
	MN2    KernelID = "MN2"          // MobileNet-V2 [43]
	ET     KernelID = "ET"           // eye tracking (SegNet) [4]
	Agg3D  KernelID = "3D-Agg"       // depth estimation [30]
	HRN    KernelID = "HRN"          // depth estimation / high-resolution net [49]
	EFAN   KernelID = "E-FAN"        // emotion detection [52]
	JLP    KernelID = "JLP"          // hand tracking [33]
	UNet   KernelID = "UNet"         // image denoising [40]
	DN     KernelID = "DN"           // image denoising [55]
	SR256  KernelID = "SR-256x256"   // super-resolution 256² [5]
	SR512  KernelID = "SR-512x512"   // super-resolution 512² [5]
	SR1024 KernelID = "SR-1024x1024" // super-resolution 1024² [5]
)

// allKernels is the canonical kernel order. AllKernels hands out copies.
var allKernels = [...]KernelID{
	RN18, RN50, RN152, GN, MN2, ET, Agg3D, HRN,
	EFAN, JLP, UNet, DN, SR256, SR512, SR1024,
}

// NumKernels is the number of kernels; a kernel's index in the canonical
// order is in [0, NumKernels).
const NumKernels = len(allKernels)

// AllKernels returns every kernel ID in a stable order.
func AllKernels() []KernelID {
	out := make([]KernelID, len(allKernels))
	copy(out, allKernels[:])
	return out
}

// KernelIndex returns id's index in the canonical AllKernels order.
func KernelIndex(id KernelID) (int, bool) {
	for i, k := range allKernels {
		if k == id {
			return i, true
		}
	}
	return 0, false
}

// KernelAt returns the kernel at canonical index i.
func KernelAt(i int) KernelID { return allKernels[i] }

var (
	kernelMu    sync.Mutex
	kernelCache = map[KernelID]*Network{}
)

// Kernel builds (and caches) the network for a kernel ID.
func Kernel(id KernelID) (*Network, error) {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	if n, ok := kernelCache[id]; ok {
		return n, nil
	}
	builder, ok := kernelBuilders[id]
	if !ok {
		return nil, fmt.Errorf("nn: unknown kernel %q", id)
	}
	n := builder()
	kernelCache[id] = n
	return n, nil
}

// MustKernel is Kernel for static IDs; it panics on unknown IDs.
func MustKernel(id KernelID) *Network {
	n, err := Kernel(id)
	if err != nil {
		panic(err)
	}
	return n
}

var kernelBuilders = map[KernelID]func() *Network{
	RN18:   buildResNet18,
	RN50:   func() *Network { return buildResNetBottleneck("RN-50", []int{3, 4, 6, 3}) },
	RN152:  func() *Network { return buildResNetBottleneck("RN-152", []int{3, 8, 36, 3}) },
	GN:     buildGoogLeNet,
	MN2:    buildMobileNetV2,
	ET:     buildEyeTrackingSegNet,
	Agg3D:  build3DAgg,
	HRN:    buildHRNet,
	EFAN:   buildEFAN,
	JLP:    buildJLP,
	UNet:   buildUNet,
	DN:     buildDN,
	SR256:  func() *Network { return buildSR("SR-256x256", 256) },
	SR512:  func() *Network { return buildSR("SR-512x512", 512) },
	SR1024: func() *Network { return buildSR("SR-1024x1024", 1024) },
}

// SortedKernelIDs returns the kernel IDs sorted lexicographically (useful for
// deterministic table output).
func SortedKernelIDs() []KernelID {
	ids := AllKernels()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ---- classification backbones (the AI kernels) ----

func buildResNet18() *Network {
	b := NewBuilder("RN-18", 3, 224, 224)
	b.Conv("conv1", 64, 7, 2, 3).Pool("maxpool", 3, 2, 1)
	widths := []int{64, 128, 256, 512}
	for si, w := range widths {
		for blk := 0; blk < 2; blk++ {
			stride := 1
			if si > 0 && blk == 0 {
				stride = 2
			}
			name := fmt.Sprintf("layer%d.%d", si+1, blk)
			w := w
			b.Residual(name, func(b *Builder) {
				b.Conv(name+".conv1", w, 3, stride, 1)
				b.Conv(name+".conv2", w, 3, 1, 1)
			})
		}
	}
	b.GlobalPool("avgpool").FC("fc", 1000)
	return b.Build()
}

func buildResNetBottleneck(name string, blocks []int) *Network {
	b := NewBuilder(name, 3, 224, 224)
	b.Conv("conv1", 64, 7, 2, 3).Pool("maxpool", 3, 2, 1)
	widths := []int{64, 128, 256, 512}
	for si, w := range widths {
		for blk := 0; blk < blocks[si]; blk++ {
			stride := 1
			if si > 0 && blk == 0 {
				stride = 2
			}
			bn := fmt.Sprintf("layer%d.%d", si+1, blk)
			w := w
			b.Residual(bn, func(b *Builder) {
				b.Conv(bn+".conv1", w, 1, 1, 0)
				b.Conv(bn+".conv2", w, 3, stride, 1)
				b.Conv(bn+".conv3", 4*w, 1, 1, 0)
			})
		}
	}
	b.GlobalPool("avgpool").FC("fc", 1000)
	return b.Build()
}

// inception appends one GoogLeNet inception module with the standard
// four-branch channel configuration.
func inception(b *Builder, name string, c1, c3r, c3, c5r, c5, pp int) {
	b.Branch(name,
		func(b *Builder) { b.Conv(name+".b1", c1, 1, 1, 0) },
		func(b *Builder) {
			b.Conv(name+".b2r", c3r, 1, 1, 0).Conv(name+".b2", c3, 3, 1, 1)
		},
		func(b *Builder) {
			b.Conv(name+".b3r", c5r, 1, 1, 0).Conv(name+".b3", c5, 5, 1, 2)
		},
		func(b *Builder) {
			b.Pool(name+".b4p", 3, 1, 1).Conv(name+".b4", pp, 1, 1, 0)
		},
	)
}

func buildGoogLeNet() *Network {
	b := NewBuilder("GN", 3, 224, 224)
	b.Conv("conv1", 64, 7, 2, 3).Pool("pool1", 3, 2, 1)
	b.Conv("conv2r", 64, 1, 1, 0).Conv("conv2", 192, 3, 1, 1).Pool("pool2", 3, 2, 1)
	inception(b, "3a", 64, 96, 128, 16, 32, 32)
	inception(b, "3b", 128, 128, 192, 32, 96, 64)
	b.Pool("pool3", 3, 2, 1)
	inception(b, "4a", 192, 96, 208, 16, 48, 64)
	inception(b, "4b", 160, 112, 224, 24, 64, 64)
	inception(b, "4c", 128, 128, 256, 24, 64, 64)
	inception(b, "4d", 112, 144, 288, 32, 64, 64)
	inception(b, "4e", 256, 160, 320, 32, 128, 128)
	b.Pool("pool4", 3, 2, 1)
	inception(b, "5a", 256, 160, 320, 32, 128, 128)
	inception(b, "5b", 384, 192, 384, 48, 128, 128)
	b.GlobalPool("avgpool").FC("fc", 1000)
	return b.Build()
}

func buildMobileNetV2() *Network {
	b := NewBuilder("MN2", 3, 224, 224)
	b.Conv("conv1", 32, 3, 2, 1)
	// Inverted residual settings: expansion t, output c, repeats n, stride s.
	cfg := []struct{ t, c, n, s int }{
		{1, 16, 1, 1}, {6, 24, 2, 2}, {6, 32, 3, 2}, {6, 64, 4, 2},
		{6, 96, 3, 1}, {6, 160, 3, 2}, {6, 320, 1, 1},
	}
	for gi, g := range cfg {
		for i := 0; i < g.n; i++ {
			stride := 1
			if i == 0 {
				stride = g.s
			}
			inC, _, _ := b.Shape()
			name := fmt.Sprintf("block%d.%d", gi, i)
			body := func(b *Builder) {
				if g.t != 1 {
					b.Conv(name+".expand", g.t*inC, 1, 1, 0)
				}
				b.DWConv(name+".dw", 3, stride, 1)
				b.Conv(name+".project", g.c, 1, 1, 0)
			}
			if stride == 1 && inC == g.c {
				b.Residual(name, body)
			} else {
				body(b)
			}
		}
	}
	b.Conv("conv_last", 1280, 1, 1, 0).GlobalPool("avgpool").FC("fc", 1000)
	return b.Build()
}

// ---- XR kernels ----

// buildEyeTrackingSegNet models the SegNet-style eye-segmentation network
// used for eye tracking: a VGG encoder and a mirrored decoder on a small
// monochrome eye-camera image.
func buildEyeTrackingSegNet() *Network {
	b := NewBuilder("ET", 1, 96, 160)
	// Encoder.
	b.Conv("enc1a", 32, 3, 1, 1).Conv("enc1b", 32, 3, 1, 1).Pool("pool1", 2, 2, 0)
	b.Conv("enc2a", 64, 3, 1, 1).Conv("enc2b", 64, 3, 1, 1).Pool("pool2", 2, 2, 0)
	b.Conv("enc3a", 128, 3, 1, 1).Conv("enc3b", 128, 3, 1, 1).Pool("pool3", 2, 2, 0)
	// Decoder (upsample + conv, mirroring the encoder).
	b.Upsample("up3", 2).Conv("dec3a", 64, 3, 1, 1)
	b.Upsample("up2", 2).Conv("dec2a", 32, 3, 1, 1)
	b.Upsample("up1", 2).Conv("dec1a", 16, 3, 1, 1)
	b.Conv("out", 4, 1, 1, 0) // 4 segmentation classes (pupil/iris/sclera/bg)
	return b.Build()
}

// build3DAgg models the temporally consistent depth-estimation network [30]:
// a stereo encoder, heavy aggregation convolutions at quarter resolution, and
// a decoder back to full resolution — a high-activation-memory kernel.
func build3DAgg() *Network {
	b := NewBuilder("3D-Agg", 3, 480, 640)
	b.Conv("stem1", 32, 3, 2, 1) // 240×320
	b.Conv("stem2", 48, 3, 1, 1)
	b.Conv("down2", 64, 3, 2, 1) // 120×160
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("agg%d", i)
		b.Residual(name, func(b *Builder) {
			b.Conv(name+".c1", 64, 3, 1, 1).Conv(name+".c2", 64, 3, 1, 1)
		})
	}
	b.Upsample("up1", 2).Conv("dec1", 48, 3, 1, 1) // 240×320
	b.Upsample("up0", 2).Conv("dec0", 24, 3, 1, 1) // 480×640
	b.Conv("depth", 1, 3, 1, 1)
	return b.Build()
}

// buildHRNet models a high-resolution network [49] for depth/pose: a branch
// that stays at quarter resolution through the whole network keeps
// activations large.
func buildHRNet() *Network {
	b := NewBuilder("HRN", 3, 512, 512)
	b.Conv("stem1", 64, 3, 2, 1).Conv("stem2", 64, 3, 2, 1) // 128×128
	// Four stages; each stage runs a high-resolution branch (48ch @128²)
	// and a low-resolution branch (96ch @64²), then fuses.
	for stage := 0; stage < 4; stage++ {
		name := fmt.Sprintf("stage%d", stage)
		b.Branch(name,
			func(b *Builder) {
				b.Conv(name+".hr1", 48, 3, 1, 1).Conv(name+".hr2", 48, 3, 1, 1)
			},
			func(b *Builder) {
				b.Conv(name+".lr.down", 96, 3, 2, 1)
				b.Conv(name+".lr1", 96, 3, 1, 1)
				b.Upsample(name+".lr.up", 2)
			},
		)
		b.Conv(name+".fuse", 64, 1, 1, 0)
	}
	b.Conv("head", 32, 3, 1, 1).Conv("out", 1, 1, 1, 0)
	return b.Build()
}

// buildEFAN models the emotion estimation network [52]: a face-alignment
// hourglass trunk with a small regression head for valence/arousal.
func buildEFAN() *Network {
	b := NewBuilder("E-FAN", 3, 256, 256)
	b.Conv("stem", 64, 7, 2, 3).Pool("pool1", 2, 2, 0) // 64×64
	b.Conv("pre", 128, 3, 1, 1)
	// Hourglass: down to 16×16 and back.
	b.Conv("hg.d1", 256, 3, 2, 1) // 32
	b.Conv("hg.d2", 256, 3, 2, 1) // 16
	b.Conv("hg.mid", 256, 3, 1, 1)
	b.Upsample("hg.u2", 2).Conv("hg.uc2", 256, 3, 1, 1)
	b.Upsample("hg.u1", 2).Conv("hg.uc1", 128, 3, 1, 1)
	b.Conv("heatmap", 68, 1, 1, 0) // 68 facial landmarks
	b.GlobalPool("gap").FC("emotion", 2)
	return b.Build()
}

// buildJLP models the hand-tracking joint-location network [33]: a compact
// CNN regressing 21 3-D hand-joint positions from an egocentric crop.
func buildJLP() *Network {
	b := NewBuilder("JLP", 3, 256, 256)
	b.Conv("conv1", 32, 3, 2, 1)                                // 128
	b.Conv("conv2", 64, 3, 2, 1)                                // 64
	b.Conv("conv3a", 128, 3, 2, 1).Conv("conv3b", 128, 3, 1, 1) // 32
	b.Conv("conv4a", 256, 3, 2, 1).Conv("conv4b", 256, 3, 1, 1) // 16
	b.Conv("conv5", 256, 3, 2, 1)                               // 8
	b.GlobalPool("gap").FC("joints", 63)                        // 21 joints × (x,y,z)
	return b.Build()
}

// buildUNet is the classic U-Net [40] at 256×256 for image denoising.
func buildUNet() *Network {
	b := NewBuilder("UNet", 3, 256, 256)
	widths := []int{64, 128, 256, 512}
	for i, w := range widths {
		b.Conv(fmt.Sprintf("enc%da", i), w, 3, 1, 1)
		b.Conv(fmt.Sprintf("enc%db", i), w, 3, 1, 1)
		b.Pool(fmt.Sprintf("pool%d", i), 2, 2, 0)
	}
	b.Conv("mid a", 1024, 3, 1, 1).Conv("mid b", 1024, 3, 1, 1)
	for i := len(widths) - 1; i >= 0; i-- {
		w := widths[i]
		b.Upsample(fmt.Sprintf("up%d", i), 2)
		b.Conv(fmt.Sprintf("dec%da", i), w, 3, 1, 1)
		b.Conv(fmt.Sprintf("dec%db", i), w, 3, 1, 1)
	}
	b.Conv("out", 3, 1, 1, 0)
	return b.Build()
}

// buildDN models the feature-align denoising network [55] at 512×512: a
// shallow network that keeps full-resolution feature maps end-to-end, making
// it activation-memory bound.
func buildDN() *Network {
	b := NewBuilder("DN", 3, 512, 512)
	b.Conv("feat", 32, 3, 1, 1)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("res%d", i)
		b.Residual(name, func(b *Builder) {
			b.Conv(name+".c1", 32, 3, 1, 1).Conv(name+".c2", 32, 3, 1, 1)
		})
	}
	b.Conv("align", 48, 3, 1, 1)
	b.Conv("reduce", 32, 3, 1, 1)
	b.Conv("out", 3, 3, 1, 1)
	return b.Build()
}

// buildSR models deep-burst super-resolution [5] producing an outRes×outRes
// image: an EDSR-style trunk of residual blocks at half the output
// resolution followed by a ×2 upsample. Activation working sets grow with
// the square of the resolution, which is what pushes SR-1024 past small
// SRAMs and LPDDR4 bandwidth (§V).
func buildSR(name string, outRes int) *Network {
	in := outRes / 2
	b := NewBuilder(name, 3, in, in)
	b.Conv("head", 64, 3, 1, 1)
	for i := 0; i < 8; i++ {
		rb := fmt.Sprintf("res%d", i)
		b.Residual(rb, func(b *Builder) {
			b.Conv(rb+".c1", 64, 3, 1, 1).Conv(rb+".c2", 64, 3, 1, 1)
		})
	}
	b.Conv("pre_up", 64, 3, 1, 1)
	b.Upsample("up", 2)
	b.Conv("tail", 3, 3, 1, 1)
	return b.Build()
}
