package main

import (
	"context"
	"fmt"

	"cordoba"
	"cordoba/api"
	"cordoba/client"
)

// knobGrid is the engine grid a knob-range body describes, resolved the way
// the daemon resolves it (the process names the node when nodes is empty).
func knobGrid(body api.DSERequest) cordoba.KnobGrid {
	k := body.Knobs
	g := cordoba.KnobGrid{MACArrays: k.MACArrays, SRAMMB: k.SRAMMB, VDDScales: k.VDDScales, Nodes: k.Nodes, Models: k.Models}
	if p := k.Partition; p != nil {
		g.Integrations, g.Chiplets, g.ChipletNodes, g.Carrier = p.Integrations, p.Chiplets, p.ChipletNodes, p.Carrier
	}
	if len(g.Nodes) == 0 {
		proc := body.Process
		if proc == "" {
			proc = "7nm"
		}
		g.Nodes = []string{proc}
	}
	return g
}

// engineInputs resolves a body's task, fab and use-phase intensity.
func engineInputs(body api.DSERequest) (cordoba.Task, cordoba.Fab, cordoba.CarbonIntensity, error) {
	task, err := cordoba.PaperTask(body.Task)
	if err != nil {
		return task, cordoba.Fab{}, 0, err
	}
	fabName := body.Fab
	if fabName == "" {
		fabName = "coal-heavy"
	}
	fab, err := cordoba.FabByName(fabName)
	if err != nil {
		return task, fab, 0, err
	}
	ci := body.CIUse
	if ci == 0 {
		ci = 380
	}
	return task, fab, cordoba.CarbonIntensity(ci), nil
}

// oracle runs the exhaustive streaming engine on a body's grid in process.
func oracle(ctx context.Context, body api.DSERequest, workers int) (*cordoba.StreamResult, error) {
	task, fab, ci, err := engineInputs(body)
	if err != nil {
		return nil, err
	}
	return cordoba.ExploreStreamAt(ctx, task, knobGrid(body), fab, ci, cordoba.StreamOptions{Workers: workers})
}

// wirePoint renders an engine point the way the daemon does.
func wirePoint(p cordoba.DesignPoint) api.DSEPoint {
	pt := api.DSEPoint{
		ID:             p.Config.ID,
		MACArrays:      p.Config.MACArrays,
		SRAMMB:         p.Config.SRAM.InMB(),
		Is3D:           p.Config.Is3D,
		Model:          p.Model,
		DelayS:         p.Delay.Seconds(),
		EnergyJ:        p.Energy.Joules(),
		EmbodiedG:      p.Embodied.Grams(),
		AreaCM2:        p.Area.CM2(),
		EDPJS:          p.EDP(),
		EmbodiedDelayG: p.EmbodiedDelay(),
	}
	if part := p.Config.Partition; part.Active() {
		pt.Integration, pt.Chiplets, pt.ChipletNode, pt.Carrier = part.Integration, part.Chiplets, part.ChipletNode, part.Carrier
	}
	return pt
}

// matchOracle reports how a served response differs from the oracle result
// for the same grid: the envelope IDs, each sweep entry's optimal ID and
// tCDP value, and — when points is set — every surviving point's fields.
// Everything compared is exact.
func matchOracle(got *api.DSEResponse, want *cordoba.StreamResult, body api.DSERequest, points bool) error {
	sp := want.Space
	if len(got.EverOptimal) != len(sp.Points) {
		return fmt.Errorf("envelope has %d designs, oracle %d", len(got.EverOptimal), len(sp.Points))
	}
	for i, p := range sp.Points {
		if got.EverOptimal[i] != p.Config.ID {
			return fmt.Errorf("envelope[%d] = %s, oracle %s", i, got.EverOptimal[i], p.Config.ID)
		}
		if points && got.Points[i] != wirePoint(p) {
			return fmt.Errorf("point %s differs from the oracle: %+v vs %+v", p.Config.ID, got.Points[i], wirePoint(p))
		}
	}
	if got.PointsStreamed != want.Total {
		return fmt.Errorf("points_streamed %d, oracle %d", got.PointsStreamed, want.Total)
	}
	sw := body.Sweep
	if sw == nil {
		sw = &api.SweepSpec{Lo: 1, Hi: 1e12, Points: 13}
	}
	ns := cordoba.LogSpace(sw.Lo, sw.Hi, sw.Points)
	if len(got.Sweep) != len(ns) {
		return fmt.Errorf("sweep has %d entries, want %d", len(got.Sweep), len(ns))
	}
	for i, n := range ns {
		p := sp.Points[want.OptimalAt(n)]
		e := got.Sweep[i]
		if e.OptimalID != p.Config.ID || e.TCDPGS != p.TCDP(sp.CIUse, n) {
			return fmt.Errorf("sweep at N=%g: %s %.17g, oracle %s %.17g", n, e.OptimalID, e.TCDPGS, p.Config.ID, p.TCDP(sp.CIUse, n))
		}
	}
	return nil
}

// anchorEverOptimal is the documented full-grid "All kernels" envelope at
// CI_use 380 (paper §VI-B).
var anchorEverOptimal = []string{"a50", "a38", "a37", "a26", "a25", "a13", "a12"}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[string]int{}
	for _, x := range a {
		seen[x]++
	}
	for _, x := range b {
		seen[x]--
		if seen[x] < 0 {
			return false
		}
	}
	return true
}

// surrogateReplay re-runs a surrogate body in process with the daemon's
// resolved options; the run is deterministic, so its envelope must equal
// the served one.
func surrogateReplay(ctx context.Context, body api.DSERequest, workers int) (*cordoba.SurrogateResult, error) {
	task, fab, ci, err := engineInputs(body)
	if err != nil {
		return nil, err
	}
	g := knobGrid(body)
	return cordoba.ExploreSurrogate(ctx, task, g, fab, ci, cordoba.SurrogateOptions{
		StreamOptions: cordoba.StreamOptions{Workers: workers},
		Seed:          body.Surrogate.Seed,
		Budget:        cordoba.DefaultSurrogateBudget(g.Size(), 0),
	})
}

// checkSurrogate verifies a served surrogate result: its envelope equals
// the in-process replay's and every envelope design was truly evaluated.
// It returns the replay's hypervolume ratio against the exhaustive oracle.
func checkSurrogate(ctx context.Context, got *api.DSEResponse, body api.DSERequest, workers int) (float64, error) {
	replay, err := surrogateReplay(ctx, body, workers)
	if err != nil {
		return 0, err
	}
	if !sameSet(got.EverOptimal, idsOf(replay.StreamResult)) {
		return 0, fmt.Errorf("served envelope %v differs from the replay's %v", got.EverOptimal, idsOf(replay.StreamResult))
	}
	evaluated := map[int64]bool{}
	for _, id := range replay.Evaluated {
		evaluated[id] = true
	}
	for _, id := range replay.IDs {
		if !evaluated[id] {
			return 0, fmt.Errorf("envelope design k%d was never evaluated", id+1)
		}
	}
	orc, err := oracle(ctx, body, workers)
	if err != nil {
		return 0, err
	}
	return cordoba.MeasureEnvelopeQuality(replay.StreamResult, orc).HypervolumeRatio, nil
}

// checkedSurrogates is how many surrogate jobs per run are replayed and
// scored against the exhaustive oracle.
const checkedSurrogates = 4

// hvReport reports the run's surrogate_hv_ratio: the mean hypervolume ratio
// over the checked surrogate jobs, each of which is printed. It is a
// measured quality, not a pass/fail bar: the program claims >= 0.99 only on
// its acceptance grid, which acceptanceCheck holds it to. On the seed-shifted
// grids single jobs fall well below (0.853 on seed 59's job 2) or land just
// above 1, because the staircase hypervolume of a subset's convex envelope
// can exceed that of the full space's.
func hvReport(rep *report, hv samples) {
	if len(hv) == 0 {
		rep.check(false, "no surrogate job completed")
		return
	}
	rep.note("surrogate hv ratio per checked job: %v", []float64(hv))
	rep.e2e("surrogate_hv_ratio", "ratio", hv.mean(), len(hv))
}

// acceptanceBody is the 10^5-point acceptance grid of DESIGN.md §13 (the
// dse package's reference grid) as a surrogate job with search seed 1.
func acceptanceBody() api.DSERequest {
	k := &api.KnobRangeSpec{Nodes: []string{"28nm", "20nm", "14nm", "10nm", "7nm", "5nm", "3nm"}}
	for i := 0; i < 50; i++ {
		k.MACArrays = append(k.MACArrays, 4*(i+1))
	}
	for i := 0; i < 30; i++ {
		k.SRAMMB = append(k.SRAMMB, 1+2*float64(i))
	}
	for i := 0; i < 10; i++ {
		k.VDDScales = append(k.VDDScales, 0.55+0.05*float64(i))
	}
	return api.DSERequest{Task: cordoba.TaskAllKernels, Knobs: k, Search: "surrogate", Surrogate: &api.SurrogateSpec{Seed: 1}}
}

// acceptanceCheck runs the acceptance grid as a surrogate job on the
// daemon, outside the timed window, and holds the served envelope to the
// documented bar: it equals the replay, and its hypervolume ratio against
// the exhaustive oracle is at least 0.99 and at most 1.
func acceptanceCheck(ctx context.Context, rep *report, cl *client.Client) {
	body := acceptanceBody()
	v := 0.0
	jr, err := runJob(ctx, cl, body)
	if err == nil {
		v, err = checkSurrogate(ctx, jr.resp, body, 2)
	}
	if err == nil && (v < 0.99 || v > 1+1e-9) {
		err = fmt.Errorf("hypervolume ratio outside [0.99, 1]")
	}
	rep.check(err == nil, "acceptance grid surrogate job: envelope equals the replay, hv %.5f in [0.99, 1]: %v", v, errText(err))
}

func idsOf(r *cordoba.StreamResult) []string {
	ids := make([]string, len(r.Space.Points))
	for i, p := range r.Space.Points {
		ids[i] = p.Config.ID
	}
	return ids
}
