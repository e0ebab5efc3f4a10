package carbon

import (
	"fmt"

	"cordoba/internal/units"
)

// MemoryKind identifies a memory or storage technology with a per-capacity
// embodied footprint, following ACT's "carbon per storage" tables [22].
type MemoryKind int

// Supported memory/storage technologies.
const (
	DRAM MemoryKind = iota
	LPDDR
	HBM
	NANDFlash
	HDD
)

// String returns the technology name.
func (k MemoryKind) String() string {
	switch k {
	case DRAM:
		return "DRAM"
	case LPDDR:
		return "LPDDR"
	case HBM:
		return "HBM"
	case NANDFlash:
		return "NAND"
	case HDD:
		return "HDD"
	default:
		return fmt.Sprintf("MemoryKind(%d)", int(k))
	}
}

// carbonPerGB is the embodied footprint per usable gigabyte, in gCO2e/GB.
// DRAM-class values follow ACT's ~0.15–0.6 kgCO2e/GB range (HBM highest due
// to stacking and TSV processing); NAND ~0.03 kg/GB; HDD ~0.015 kg/GB.
var carbonPerGB = map[MemoryKind]units.Carbon{
	DRAM:      230,
	LPDDR:     260,
	HBM:       550,
	NANDFlash: 31,
	HDD:       15,
}

// EmbodiedMemory returns the embodied carbon of a memory or storage part of
// the given usable capacity.
func EmbodiedMemory(kind MemoryKind, capacityGB float64) (units.Carbon, error) {
	per, ok := carbonPerGB[kind]
	if !ok {
		return 0, fmt.Errorf("carbon: unknown memory kind %v", kind)
	}
	if capacityGB < 0 {
		return 0, fmt.Errorf("carbon: negative capacity %v GB", capacityGB)
	}
	return per * units.Carbon(capacityGB), nil
}

// Packaging models the assembly/packaging footprint of a part.
type Packaging struct {
	// PerDie is the fixed overhead of packaging one die (substrate,
	// bumping, molding). ACT uses ~150 gCO2e per packaged part.
	PerDie units.Carbon
	// PerBond is the additional overhead per 3D hybrid-bonding interface
	// between vertically adjacent dice (TSV reveal, bonding).
	PerBond units.Carbon
}

// Assembly returns the packaging footprint of a stack of n dice: one package
// plus n−1 bonding interfaces. n must be at least 1.
func (p Packaging) Assembly(dice int) (units.Carbon, error) {
	if dice < 1 {
		return 0, fmt.Errorf("carbon: a package needs at least one die, got %d", dice)
	}
	return p.PerDie + p.PerBond*units.Carbon(dice-1), nil
}
