package accel

import (
	"fmt"

	"cordoba/internal/carbon"
	"cordoba/internal/units"
)

// DesignSpec lowers the configuration onto the backend-neutral die/bond
// description that carbon.Model backends price: the logic die (for 2D
// designs including the on-die SRAM), the separately fabricated memory dies
// of a 3D stack, and the configuration's packaging constants. Configurations
// with an active Partition synthesize a multi-die, possibly mixed-node spec
// instead (see partitionSpec). The yield model is left unset — callers
// select it (nil means Murphy).
func (c Config) DesignSpec(p carbon.Process, fab carbon.Fab) (carbon.DesignSpec, error) {
	if err := c.Validate(); err != nil {
		return carbon.DesignSpec{}, err
	}
	if c.Partition.Active() {
		return c.partitionSpec(p, fab)
	}
	spec := carbon.DesignSpec{
		Name: c.ID,
		Fab:  fab,
		Dies: []carbon.DieSpec{{Name: "logic", Area: c.LogicArea(), Process: p}},
		Packaging: carbon.Packaging{
			PerDie:  c.Params.PackagingPerDie,
			PerBond: c.Params.PackagingPerBond,
		},
	}
	if c.Is3D {
		spec.Stacked = true
		spec.Dies = append(spec.Dies, carbon.DieSpec{
			Name:    "mem",
			Area:    c.MemDieArea(),
			Process: p,
			Count:   c.MemDies,
		})
	}
	return spec, nil
}

// partitionSpec synthesizes the multi-die carbon.DesignSpec of an explicitly
// partitioned configuration:
//
//   - 2.5d: Chiplets equal compute chiplets (core logic split n ways, each
//     inflated by the D2D PHY overhead) beside one memory chiplet carrying
//     the whole activation SRAM — fabricated on ChipletNode when set, the
//     mixed-node reuse lever. Priced side by side on the spec's Carrier.
//   - 3d: the core logic as the base tier with Chiplets memory tiers stacked
//     on top, every die inflated by the TSV-field overhead.
//
// Each die is yielded separately at its own node, so the split's yield
// advantage (many small dies beat one big die under Murphy/Poisson defect
// models) prices automatically in any backend.
func (c Config) partitionSpec(p carbon.Process, fab carbon.Fab) (carbon.DesignSpec, error) {
	memProc := p
	if n := c.Partition.ChipletNode; n != "" && n != p.Node {
		mp, err := carbon.ProcessByName(n)
		if err != nil {
			return carbon.DesignSpec{}, fmt.Errorf("accel: %s: chiplet node: %v", c.ID, err)
		}
		memProc = mp
	}
	memArea := c.SRAMArea() * units.Area(c.Partition.memScale())
	spec := carbon.DesignSpec{
		Name:        c.ID,
		Fab:         fab,
		Integration: c.Partition.Integration,
		Carrier:     c.Partition.Carrier,
		Packaging: carbon.Packaging{
			PerDie:  c.Params.PackagingPerDie,
			PerBond: c.Params.PackagingPerBond,
		},
	}
	n := c.Partition.count()
	switch c.Partition.Integration {
	case Integration25D:
		oh := units.Area(1 + c.Params.D2DAreaOverhead)
		spec.Dies = []carbon.DieSpec{
			{Name: "compute", Area: c.coreLogicArea() / units.Area(n) * oh, Process: p, Count: n},
			{Name: "mem", Area: memArea * oh, Process: memProc},
		}
	case Integration3D:
		spec.Stacked = true
		tsv := units.Area(1 + c.Params.TSVAreaOverhead)
		spec.Dies = []carbon.DieSpec{
			{Name: "logic", Area: c.coreLogicArea() * tsv, Process: p},
			{Name: "mem", Area: memArea / units.Area(n) * tsv, Process: memProc, Count: n},
		}
	}
	return spec, nil
}

// EmbodiedBreakdown prices the configuration through an embodied-carbon
// backend and yield model, returning the full component breakdown. A nil
// model selects ACT; a nil yield model selects Murphy — together the exact
// pre-refactor pipeline. Selecting carbon.Stacked3DModel gives 3D configs
// the full per-tier bonding treatment; carbon.ChipletModel disaggregates 2D
// dies into chiplets.
func (c Config) EmbodiedBreakdown(m carbon.Model, ym carbon.YieldModel, p carbon.Process, fab carbon.Fab) (carbon.Breakdown, error) {
	spec, err := c.DesignSpec(p, fab)
	if err != nil {
		return carbon.Breakdown{}, err
	}
	spec.Yield = ym
	if m == nil {
		m = carbon.DefaultModel()
	}
	return m.EmbodiedDesign(spec)
}

// EmbodiedWith is EmbodiedBreakdown reduced to the total footprint.
func (c Config) EmbodiedWith(m carbon.Model, ym carbon.YieldModel, p carbon.Process, fab carbon.Fab) (units.Carbon, error) {
	bd, err := c.EmbodiedBreakdown(m, ym, p, fab)
	if err != nil {
		return 0, err
	}
	return bd.Total, nil
}

// Embodied computes the manufacturing footprint of the configuration using
// eq. IV.5 with per-die Murphy yield and packaging/bonding overheads — the
// default ACT backend.
//
// For 2D designs there is one die; for 3D designs the logic die and each
// memory die are fabricated (and yielded) separately — the yield advantage
// of several small dies over one large die is part of why 3D stacking can
// win on embodied carbon (§VI-E).
func (c Config) Embodied(p carbon.Process, fab carbon.Fab) (units.Carbon, error) {
	return c.EmbodiedWith(nil, nil, p, fab)
}
