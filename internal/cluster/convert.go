package cluster

import (
	"encoding/json"
	"fmt"

	"cordoba/api"
	"cordoba/internal/accel"
	"cordoba/internal/dse"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

// EnvelopeFromResult renders a shard's streaming result as the wire envelope
// a worker returns. Every float crosses the wire as the exact float64 the
// engine computed (encoding/json round-trips float64 bit-exactly), so the
// coordinator reconstructs the shard result without loss.
func EnvelopeFromResult(first, count int, r *dse.StreamResult) api.ShardEnvelope {
	env := api.ShardEnvelope{
		Task:           r.Space.Task.Name,
		First:          first,
		Count:          count,
		CIUse:          float64(r.Space.CIUse),
		PointsStreamed: r.Total,
		PrePruned:      r.PrePruned,
		Offered:        r.Offered,
		SumEDP:         r.SumEDP,
		SumEmbD:        r.SumEmbD,
		Survivors:      make([]api.ShardPoint, len(r.Space.Points)),
	}
	for i, p := range r.Space.Points {
		cfg, err := json.Marshal(p.Config)
		if err != nil {
			panic(fmt.Sprintf("cluster: config marshal: %v", err)) // plain values; cannot fail
		}
		env.Survivors[i] = api.ShardPoint{
			Index:     r.IDs[i],
			Config:    cfg,
			Model:     p.Model,
			DelayS:    p.Delay.Seconds(),
			EnergyJ:   p.Energy.Joules(),
			EmbodiedG: p.Embodied.Grams(),
			AreaCM2:   p.Area.CM2(),
		}
	}
	return env
}

// ResultFromEnvelope is EnvelopeFromResult's inverse: it rebuilds the shard's
// StreamResult from the wire form. All units are identity float64 wrappers
// over their canonical units (seconds, joules, grams, cm²) and SRAM sizes
// scale by an exact power of two, so the reconstruction is bit-exact and the
// merged survivors render byte-identically to a single-node run's.
func ResultFromEnvelope(env api.ShardEnvelope, task workload.Task, ci units.CarbonIntensity) (*dse.StreamResult, error) {
	if env.Task != task.Name {
		return nil, fmt.Errorf("cluster: envelope ran task %q, coordinator expected %q", env.Task, task.Name)
	}
	if env.CIUse != float64(ci) {
		return nil, fmt.Errorf("cluster: envelope used CI_use %g, coordinator expected %g", env.CIUse, float64(ci))
	}
	points := make([]dse.Point, len(env.Survivors))
	ids := make([]int64, len(env.Survivors))
	for i, sp := range env.Survivors {
		var cfg accel.Config
		if err := json.Unmarshal(sp.Config, &cfg); err != nil {
			return nil, fmt.Errorf("cluster: envelope survivor %d has a malformed config: %w", i, err)
		}
		points[i] = dse.Point{
			Config:   cfg,
			Delay:    units.Time(sp.DelayS),
			Energy:   units.Energy(sp.EnergyJ),
			Embodied: units.Carbon(sp.EmbodiedG),
			Area:     units.Area(sp.AreaCM2),
			Model:    sp.Model,
		}
		ids[i] = sp.Index
	}
	return &dse.StreamResult{
		Space:     &dse.Space{Task: task, CIUse: ci, Points: points},
		IDs:       ids,
		Total:     env.PointsStreamed,
		PrePruned: env.PrePruned,
		Offered:   env.Offered,
		SumEDP:    env.SumEDP,
		SumEmbD:   env.SumEmbD,
	}, nil
}
