package accel

import (
	"fmt"

	"cordoba/internal/units"
)

// The Fig. 8 design-space grid: 11 MAC-array options × 11 SRAM options = 121
// configurations, identified a1…a121 with index = 11·(macIdx−1) + sramIdx.
// This indexing reproduces the configurations the paper names:
//
//	a1  = 1 array,  1 MB      a12 = 2 arrays, 1 MB
//	a23 = 4 arrays, 1 MB      a37 = 8 arrays, 8 MB
//	a38 = 8 arrays, 16 MB     a48 = 16 arrays, 8 MB
//	a58 = 32 arrays, 4 MB
var (
	gridMACOptions  = []int{1, 2, 4, 8, 16, 32, 64, 96, 128, 192, 256}
	gridSRAMOptions = []float64{1, 2, 4, 8, 16, 32, 48, 64, 96, 128, 192} // MB
)

// GridSize is the number of configurations in the Fig. 8 design space.
const GridSize = 121

// GridID returns the configuration ID for 1-based MAC and SRAM indices.
func GridID(macIdx, sramIdx int) string {
	return fmt.Sprintf("a%d", (macIdx-1)*len(gridSRAMOptions)+sramIdx)
}

// Grid enumerates all 121 configurations of the Fig. 8 design space, in ID
// order (a1 … a121).
func Grid() []Config {
	configs := make([]Config, 0, GridSize)
	for mi, arrays := range gridMACOptions {
		for si, mb := range gridSRAMOptions {
			configs = append(configs, New(GridID(mi+1, si+1), arrays, units.MB(mb)))
		}
	}
	return configs
}

// ByID returns the grid configuration with the given ID (e.g. "a48").
func ByID(id string) (Config, error) {
	for _, c := range Grid() {
		if c.ID == id {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("accel: no grid configuration %q", id)
}

// Fig. 11 / Fig. 12 configuration names (§VI-E).
const (
	Baseline1K1M = "Baseline_1K_1M"
	Stacked1K2M  = "3D_1K_2M"
	Stacked1K4M  = "3D_1K_4M"
	Stacked1K8M  = "3D_1K_8M"
	Stacked2K4M  = "3D_2K_4M"
	Stacked2K8M  = "3D_2K_8M"
	Stacked2K16M = "3D_2K_16M"
)

// Stacked3D enumerates the seven §VI-E configurations: the 2D baseline
// (1K MACs, 1 MB on-die SRAM, derived from [48]) and six 3D-stacked designs.
// Per Fig. 11(a), the activation memory per stacked die is 2 MB for 1K-MAC
// configurations and 4 MB for 2K-MAC configurations.
func Stacked3D() []Config {
	mk3d := func(id string, arrays int, sramMB, perDieMB float64) Config {
		c := New(id, arrays, units.MB(sramMB))
		c.Is3D = true
		c.MemDies = int(sramMB / perDieMB)
		return c
	}
	return []Config{
		New(Baseline1K1M, 16, units.MB(1)), // 16 arrays × 64 = 1K MACs
		mk3d(Stacked1K2M, 16, 2, 2),
		mk3d(Stacked1K4M, 16, 4, 2),
		mk3d(Stacked1K8M, 16, 8, 2),
		mk3d(Stacked2K4M, 32, 4, 4),
		mk3d(Stacked2K8M, 32, 8, 4),
		mk3d(Stacked2K16M, 32, 16, 4),
	}
}
