// Package carbon reimplements the architectural carbon accounting that
// CORDOBA builds on (paper §IV-A, eq. IV.5–IV.6): the ACT embodied-carbon
// model [22] with the updated fab characterization of [39], plus yield and
// die-placement models (§V), memory/storage embodied footprints, and
// packaging overheads for 2D and 3D-stacked systems.
//
// The published anchor point is the paper's Table III: at the 7 nm node,
// EPA = 2.15 kWh/cm², MPA = 500 gCO2e/cm², GPA = 300 gCO2e/cm², and a
// coal-heavy fab grid of CI_fab = 820 gCO2e/kWh. Other nodes follow the
// monotone trends of the imec/ACT data: energy and materials per area grow
// as nodes advance (more lithography passes, more metal layers, EUV).
package carbon

import (
	"fmt"

	"cordoba/internal/units"
)

// Process holds the per-area fab characterization of one technology node —
// the (EPA, GPA, MPA) triple of eq. IV.5.
type Process struct {
	Node string
	Nm   int

	// EPA is the fab energy per die area (kWh/cm²).
	EPA float64
	// GPA is the direct gas emissions per die area (gCO2e/cm²).
	GPA units.Carbon
	// MPA is the procured-materials footprint per die area (gCO2e/cm²).
	MPA units.Carbon
}

// Processes returns fab characterizations from 28 nm down to 3 nm. The 7 nm
// row matches the paper's Table III; the others follow the rising-intensity
// trend of advanced nodes reported in [18], [22], [39].
func Processes() []Process {
	return []Process{
		{"28nm", 28, 0.90, 150, 250},
		{"20nm", 20, 1.10, 180, 290},
		{"14nm", 14, 1.35, 210, 330},
		{"10nm", 10, 1.70, 250, 400},
		{"7nm", 7, 2.15, 300, 500},
		{"5nm", 5, 2.75, 360, 620},
		{"3nm", 3, 3.50, 430, 780},
	}
}

// ProcessByName returns the characterization for the named node.
func ProcessByName(name string) (Process, error) {
	for _, p := range Processes() {
		if p.Node == name {
			return p, nil
		}
	}
	return Process{}, fmt.Errorf("carbon: unknown process node %q", name)
}

// Process7nm returns the paper's anchor node.
func Process7nm() Process {
	p, err := ProcessByName("7nm")
	if err != nil {
		panic(err)
	}
	return p
}

// Fab describes the fabrication facility: the carbon intensity of its energy
// supply and its defect density (used by the yield models).
type Fab struct {
	Name string
	// CI is the fab grid's carbon intensity (CI_fab).
	CI units.CarbonIntensity
	// DefectDensity is defects per cm² for yield modelling.
	DefectDensity float64
}

// Reference fabs. CI values follow the grid mixes ACT reports: a coal-heavy
// grid at 820 g/kWh (the paper's example), the Taiwanese and Korean grids,
// and a fully renewable-powered fab.
var (
	FabCoal      = Fab{"coal-heavy", 820, 0.1}
	FabTaiwan    = Fab{"taiwan", 509, 0.1}
	FabKorea     = Fab{"korea", 415, 0.1}
	FabRenewable = Fab{"renewable", 30, 0.1}
)

// Fabs returns the reference fabs, dirtiest grid first.
func Fabs() []Fab {
	return []Fab{FabCoal, FabTaiwan, FabKorea, FabRenewable}
}

// FabByName returns the reference fab with the given name.
func FabByName(name string) (Fab, error) {
	for _, f := range Fabs() {
		if f.Name == name {
			return f, nil
		}
	}
	return Fab{}, fmt.Errorf("carbon: unknown fab %q (try one of %v)", name, fabNames())
}

func fabNames() []string {
	var names []string
	for _, f := range Fabs() {
		names = append(names, f.Name)
	}
	return names
}

// EmbodiedDie computes eq. IV.5 for a single die:
//
//	C_embodied = (CI_fab·EPA + MPA + GPA) · A / Y
//
// area is the die area and y the fabrication yield in (0, 1].
func (p Process) EmbodiedDie(fab Fab, area units.Area, y float64) (units.Carbon, error) {
	if y <= 0 || y > 1 {
		return 0, fmt.Errorf("carbon: yield must be in (0,1], got %v", y)
	}
	if area < 0 {
		return 0, fmt.Errorf("carbon: negative die area %v", area)
	}
	perArea := p.CarbonPerArea(fab)
	return units.Carbon(perArea.Grams() * area.CM2() / y), nil
}

// CarbonPerArea returns the embodied carbon per cm² before yield derating:
// CI_fab·EPA + MPA + GPA.
func (p Process) CarbonPerArea(fab Fab) units.Carbon {
	fabEnergy := fab.CI.Of(units.KWh(p.EPA))
	return fabEnergy + p.MPA + p.GPA
}

// Operational computes eq. IV.6: use-phase carbon for total energy e drawn
// from a grid with intensity ci.
func Operational(ci units.CarbonIntensity, e units.Energy) units.Carbon {
	return ci.Of(e)
}
