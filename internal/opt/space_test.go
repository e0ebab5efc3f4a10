package opt

import (
	"context"
	"testing"

	"cordoba/internal/accel"
	"cordoba/internal/carbon"
	"cordoba/internal/dse"
	"cordoba/internal/metrics"
	"cordoba/internal/workload"
)

func exploreXR5(t *testing.T) *dse.Space {
	t.Helper()
	task, err := workload.PaperTask(workload.TaskXR5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := dse.Evaluate(context.Background(), task, accel.Grid(), carbon.Process7nm(), carbon.FabCoal, 380, nil, dse.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFromSpaceMirrorsPoints(t *testing.T) {
	s := exploreXR5(t)
	cands := FromSpace(s, 1e8)
	if len(cands) != len(s.Points) {
		t.Fatalf("candidate count = %d", len(cands))
	}
	for i, c := range cands {
		p := s.Points[i]
		if c.Name != p.Config.ID || c.Area != p.Area {
			t.Fatalf("candidate %d does not mirror point", i)
		}
		if c.QoS <= 0 || c.Power <= 0 {
			t.Fatalf("candidate %d: degenerate QoS/power", i)
		}
	}
}

// eq. IV.1 end-to-end: the unconstrained tCDP solution matches the DSE
// optimum; adding constraints changes the answer in the expected direction.
func TestConstrainedDSEOnRealSpace(t *testing.T) {
	s := exploreXR5(t)
	const n = 1e8
	cands := FromSpace(s, n)

	sol, err := MinimizeTCDP().Solve(cands)
	if err != nil {
		t.Fatal(err)
	}
	if want := s.Points[s.OptimalAt(n)].Config.ID; cands[sol.Best].Name != want {
		t.Errorf("unconstrained optimum %s, DSE says %s", cands[sol.Best].Name, want)
	}

	// A tight area budget forces a smaller design.
	unconstrainedArea := cands[sol.Best].Area
	limited, err := MinimizeTCDP(AreaLimit{Max: unconstrainedArea / 2}).Solve(cands)
	if err != nil {
		t.Fatal(err)
	}
	if cands[limited.Best].Area > unconstrainedArea/2 {
		t.Error("area constraint violated")
	}
	if limited.Score < sol.Score {
		t.Error("constrained optimum cannot beat the unconstrained one")
	}

	// A QoS floor (throughput) forces a faster design than min-energy
	// would pick.
	minE, err := MinimizeEnergy().Solve(cands)
	if err != nil {
		t.Fatal(err)
	}
	maxQoS := 0.0
	for _, c := range cands {
		if c.QoS > maxQoS {
			maxQoS = c.QoS
		}
	}
	floor := (cands[minE.Best].QoS + maxQoS) / 2 // feasible, above the min-energy pick
	qosProblem := Problem{Objective: metrics.MinEnergy, Constraints: []Constraint{QoSFloor{Min: floor}}}
	qosSol, err := qosProblem.Solve(cands)
	if err != nil {
		t.Fatal(err)
	}
	if cands[qosSol.Best].QoS < floor {
		t.Error("QoS floor violated")
	}
	if cands[qosSol.Best].Report.Energy < cands[minE.Best].Report.Energy {
		t.Error("QoS-constrained energy optimum cannot beat the unconstrained one")
	}

	// An impossible power limit is infeasible.
	if _, err := MinimizeTCDP(PowerLimit{Max: 1e-9}).Solve(cands); err == nil {
		t.Error("impossible power limit should be infeasible")
	}
}
