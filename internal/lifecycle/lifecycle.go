// Package lifecycle models the hardware-lifetime design knob of §VII: how
// often should hardware be refreshed? Frequent refresh rides technology-node
// energy-efficiency improvements but pays embodied carbon for every new
// chip; long lifetimes amortize manufacturing but run on stale, less
// efficient silicon. tCDP captures the trade-off (§VII: "hardware lifetime
// results in trade-offs between energy efficiency and carbon footprint").
//
// A Service runs a fixed task arrival rate over a multi-year horizon.
// Technology nodes advance on a fixed cadence; each refresh deploys a chip
// on the newest node available at that moment.
package lifecycle

import (
	"fmt"

	"cordoba/internal/carbon"
	"cordoba/internal/device"
	"cordoba/internal/grid"
	"cordoba/internal/units"
)

// Service describes the deployment whose refresh cadence is being optimized.
type Service struct {
	// Horizon is the total analysis window.
	Horizon units.Time
	// NodeCadence is the time between technology-node advances.
	NodeCadence units.Time
	// StartNode indexes device.Nodes()/carbon.Processes() for the node
	// available at t = 0.
	StartNode int
	// TaskCycles is the compute demand of one task; TaskRate is tasks/s.
	TaskCycles float64
	TaskRate   float64
	// Gates sizes the chip.
	Gates float64
	// Fab and CIUse fix the carbon accounting.
	Fab   carbon.Fab
	CIUse units.CarbonIntensity
	// CITrace, when non-nil, replaces the scalar CIUse with a time-varying
	// CI_use(t): each deployment span is charged its exact window integral
	// through the cumulative-trace engine. A Constant trace reproduces the
	// scalar path.
	CITrace grid.Trace
	// Yield for eq. IV.5.
	Yield float64
	// Model selects the embodied-carbon backend that prices each
	// replacement chip; nil selects ACT (the historical scalar path —
	// bit-identical to pricing the die directly with eq. IV.5).
	Model carbon.Model
}

// DefaultService returns a datacenter-flavoured service: a 50 M-gate chip
// deployed at 14 nm, nodes advancing every 2.5 years, analyzed over 10
// years on the paper's 380 g/kWh grid.
func DefaultService() Service {
	return Service{
		Horizon:     units.Years(10),
		NodeCadence: units.Years(2.5),
		StartNode:   2, // 14 nm
		TaskCycles:  2e8,
		TaskRate:    1,
		Gates:       5e7,
		Fab:         carbon.FabCoal,
		CIUse:       380,
		Yield:       0.95,
	}
}

// Validate checks the service parameters.
func (s Service) Validate() error {
	switch {
	case s.Horizon <= 0:
		return fmt.Errorf("lifecycle: horizon must be positive")
	case s.NodeCadence <= 0:
		return fmt.Errorf("lifecycle: node cadence must be positive")
	case s.StartNode < 0 || s.StartNode >= len(device.Nodes()):
		return fmt.Errorf("lifecycle: start node %d out of range", s.StartNode)
	case s.TaskCycles <= 0 || s.TaskRate <= 0 || s.Gates <= 0:
		return fmt.Errorf("lifecycle: task cycles, rate and gates must be positive")
	case s.Yield <= 0 || s.Yield > 1:
		return fmt.Errorf("lifecycle: yield must be in (0,1]")
	}
	return nil
}

// nodeAt returns the device node and fab characterization available at time t.
func (s Service) nodeAt(t units.Time) (device.Node, carbon.Process) {
	nodes := device.Nodes()
	procs := carbon.Processes()
	idx := s.StartNode + int(t.Seconds()/s.NodeCadence.Seconds())
	if idx >= len(nodes) {
		idx = len(nodes) - 1
	}
	return nodes[idx], procs[idx]
}

// Outcome is the lifetime assessment of one refresh policy.
type Outcome struct {
	Refreshes int
	Energy    units.Energy
	Embodied  units.Carbon
	Operation units.Carbon
	// MeanDelay is the time-weighted mean task delay over the horizon.
	MeanDelay units.Time
}

// TotalCarbon returns embodied plus operational carbon.
func (o Outcome) TotalCarbon() units.Carbon { return o.Embodied + o.Operation }

// TCDP returns the policy's total-carbon-delay product.
func (o Outcome) TCDP() float64 {
	return o.TotalCarbon().Grams() * o.MeanDelay.Seconds()
}

// Evaluate assesses refreshing every `period`: chips are deployed at t = 0,
// period, 2·period, …, each on the newest node at its deployment time.
func (s Service) Evaluate(period units.Time) (Outcome, error) {
	if err := s.Validate(); err != nil {
		return Outcome{}, err
	}
	if period <= 0 {
		return Outcome{}, fmt.Errorf("lifecycle: refresh period must be positive, got %v", period)
	}
	var cum *grid.Cumulative
	if s.CITrace != nil {
		var err error
		cum, err = grid.NewCumulative(s.CITrace, s.Horizon)
		if err != nil {
			return Outcome{}, err
		}
	}
	var out Outcome
	var delayWeighted float64
	for start := units.Time(0); start < s.Horizon; start += period {
		end := start + period
		if end > s.Horizon {
			end = s.Horizon
		}
		span := end - start
		node, proc := s.nodeAt(start)
		d := device.NewDesign(node)
		d.Gates = s.Gates
		taskDelay, taskEnergy := d.Run(s.TaskCycles)

		tasks := s.TaskRate * span.Seconds()
		spanEnergy := taskEnergy * units.Energy(tasks)
		out.Energy += spanEnergy
		if cum != nil {
			// The deployment draws constant average power over [start, end];
			// charge it the exact window integral of CI_use(t).
			out.Operation += cum.OperationalCarbon(spanEnergy.DividedBy(span), start, end)
		}
		emb, err := s.replacementEmbodied(proc, d.Area())
		if err != nil {
			return Outcome{}, err
		}
		out.Embodied += emb
		out.Refreshes++
		delayWeighted += taskDelay.Seconds() * span.Seconds()
	}
	if cum == nil {
		out.Operation = s.CIUse.Of(out.Energy)
	}
	out.MeanDelay = units.Time(delayWeighted / s.Horizon.Seconds())
	return out, nil
}

// replacementEmbodied prices one replacement chip through the service's
// embodied-carbon backend. The chip is a single die with the service's fixed
// yield; the ACT default reproduces proc.EmbodiedDie(fab, area, yield)
// exactly, while the chiplet/3D backends reprice every refresh under their
// integration models.
func (s Service) replacementEmbodied(proc carbon.Process, area units.Area) (units.Carbon, error) {
	model := s.Model
	if model == nil {
		model = carbon.DefaultModel()
	}
	bd, err := model.EmbodiedDesign(carbon.DesignSpec{
		Name: "refresh-chip",
		Fab:  s.Fab,
		Dies: []carbon.DieSpec{{Name: "chip", Area: area, Process: proc, Yield: s.Yield}},
	})
	if err != nil {
		return 0, err
	}
	return bd.Total, nil
}

// PolicyResult pairs a refresh period with its outcome.
type PolicyResult struct {
	Period  units.Time
	Outcome Outcome
}

// Sweep evaluates a set of candidate refresh periods.
func (s Service) Sweep(periods []units.Time) ([]PolicyResult, error) {
	if len(periods) == 0 {
		return nil, fmt.Errorf("lifecycle: no candidate periods")
	}
	out := make([]PolicyResult, 0, len(periods))
	for _, p := range periods {
		o, err := s.Evaluate(p)
		if err != nil {
			return nil, err
		}
		out = append(out, PolicyResult{Period: p, Outcome: o})
	}
	return out, nil
}

// Optimal returns the tCDP-minimizing refresh period among the candidates.
func (s Service) Optimal(periods []units.Time) (PolicyResult, error) {
	res, err := s.Sweep(periods)
	if err != nil {
		return PolicyResult{}, err
	}
	best := res[0]
	for _, r := range res[1:] {
		if r.Outcome.TCDP() < best.Outcome.TCDP() {
			best = r
		}
	}
	return best, nil
}

// DefaultPeriods returns the conventional candidate cadences: 1–10 years.
func DefaultPeriods() []units.Time {
	out := make([]units.Time, 0, 10)
	for y := 1; y <= 10; y++ {
		out = append(out, units.Years(float64(y)))
	}
	return out
}

// EnergyVersusEmbodied quantifies the §VII trade-off directly: the ratio of
// a frequent-refresh policy's energy and embodied carbon to a keep-forever
// policy's. Energy ratio < 1 and embodied ratio > 1 is the paper's claim.
func (s Service) EnergyVersusEmbodied(frequent, keep units.Time) (energyRatio, embodiedRatio float64, err error) {
	f, err := s.Evaluate(frequent)
	if err != nil {
		return 0, 0, err
	}
	k, err := s.Evaluate(keep)
	if err != nil {
		return 0, 0, err
	}
	if k.Energy == 0 || k.Embodied == 0 {
		return 0, 0, fmt.Errorf("lifecycle: degenerate keep policy")
	}
	return f.Energy.Joules() / k.Energy.Joules(), f.Embodied.Grams() / k.Embodied.Grams(), nil
}
