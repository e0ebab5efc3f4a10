// Carbon-aware launch-window search: given a job's duration and power draw,
// a deadline, and a CI_use(t) trace, find the start time that minimizes
// operational carbon (eq. IV.7 over the execution window). This is the
// temporal-shifting half of carbon-aware scheduling — the complement of the
// spatial core-allocation questions the simulator answers.
package sched

import (
	"fmt"
	"math"

	"cordoba/internal/grid"
	"cordoba/internal/units"
)

// WindowRequest describes a deferrable job to place on the grid timeline.
type WindowRequest struct {
	// Duration is the job's execution length.
	Duration units.Time
	// Power is the job's average power draw while running.
	Power units.Power
	// Deadline is the latest allowed completion time (relative to now = 0).
	Deadline units.Time
	// Step is the candidate start-time granularity. Zero defaults to
	// DefaultWindowStep.
	Step units.Time
}

// DefaultWindowStep is the default start-time granularity: 15 minutes, the
// cadence real grid-intensity feeds publish at.
const DefaultWindowStep = units.Time(15 * 60)

// maxWindowCandidates bounds the search so a tiny step over a long horizon
// cannot run away.
const maxWindowCandidates = 1 << 20

// Window is one candidate execution slot and its operational carbon.
type Window struct {
	Start     units.Time
	End       units.Time
	Carbon    units.Carbon
	AverageCI units.CarbonIntensity
}

// WindowPlan is the outcome of a launch-window search.
type WindowPlan struct {
	// Best is the lowest-carbon window meeting the deadline.
	Best Window
	// Worst is the highest-carbon window — the cost of scheduling blindly
	// at the wrong time.
	Worst Window
	// Immediate is the run-now baseline (start at t=0).
	Immediate Window
	// Candidates is the number of start times examined.
	Candidates int
	// Savings is 1 − Best.Carbon/Immediate.Carbon: the fraction of
	// operational carbon avoided by deferring to the best window.
	Savings float64
}

func (r WindowRequest) validate() (units.Time, error) {
	if r.Duration <= 0 {
		return 0, fmt.Errorf("sched: window duration must be positive, got %v", r.Duration)
	}
	if r.Power <= 0 {
		return 0, fmt.Errorf("sched: window power must be positive, got %v", r.Power)
	}
	if r.Deadline < r.Duration {
		return 0, fmt.Errorf("sched: deadline %v is before the job could finish (duration %v)", r.Deadline, r.Duration)
	}
	step := r.Step
	if step == 0 {
		step = DefaultWindowStep
	}
	if step < 0 {
		return 0, fmt.Errorf("sched: window step must be positive, got %v", r.Step)
	}
	latest := r.Deadline - r.Duration
	if n := latest.Seconds() / step.Seconds(); n > maxWindowCandidates {
		return 0, fmt.Errorf("sched: step %v over slack %v yields %d candidates (max %d)",
			step, latest, int(n), maxWindowCandidates)
	}
	return step, nil
}

// FindWindow searches start times 0, step, 2·step, … ≤ deadline−duration for
// the execution window with the least operational carbon, evaluating each
// candidate as a prefix-integral difference — O(log n) per candidate instead
// of a fresh quadrature pass.
func FindWindow(cum *grid.Cumulative, req WindowRequest) (WindowPlan, error) {
	if cum == nil {
		return WindowPlan{}, fmt.Errorf("sched: nil cumulative trace")
	}
	step, err := req.validate()
	if err != nil {
		return WindowPlan{}, err
	}
	return searchWindows(req, step, func(t0, t1 units.Time) (units.Carbon, error) {
		return cum.OperationalCarbon(req.Power, t0, t1), nil
	})
}

func searchWindows(req WindowRequest, step units.Time, eval func(t0, t1 units.Time) (units.Carbon, error)) (WindowPlan, error) {
	latest := req.Deadline - req.Duration
	plan := WindowPlan{}
	bestC, worstC := math.Inf(1), math.Inf(-1)
	for i := 0; ; i++ {
		start := units.Time(float64(i) * step.Seconds())
		if start > latest {
			// Always consider the last feasible start so the deadline edge
			// is searched even when the slack is not a step multiple.
			if i == 0 || start-step < latest {
				start = latest
			} else {
				break
			}
		}
		end := start + req.Duration
		c, err := eval(start, end)
		if err != nil {
			return WindowPlan{}, err
		}
		w := Window{
			Start:     start,
			End:       end,
			Carbon:    c,
			AverageCI: units.CarbonIntensity(c.Grams() / req.Power.Over(req.Duration).InKWh()),
		}
		if i == 0 {
			plan.Immediate = w
		}
		if c.Grams() < bestC {
			bestC, plan.Best = c.Grams(), w
		}
		if c.Grams() > worstC {
			worstC, plan.Worst = c.Grams(), w
		}
		plan.Candidates++
		if start == latest {
			break
		}
	}
	if plan.Immediate.Carbon > 0 {
		plan.Savings = 1 - plan.Best.Carbon.Grams()/plan.Immediate.Carbon.Grams()
	}
	return plan, nil
}
