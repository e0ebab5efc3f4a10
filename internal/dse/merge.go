package dse

import (
	"fmt"
	"sort"

	"cordoba/internal/pareto"
)

// MergeShardResults folds per-shard streaming results back into the result a
// single-node run over the whole grid would have produced. Shards must come
// from the same exploration (same task, same CI_use) and carry disjoint
// global survivor IDs — which sharded runs guarantee by construction, since
// each shard covers a disjoint shape range.
//
// The survivor envelope merges exactly: rejection is final, so
// envelope(A ∪ B) = envelope(envelope(A) ∪ envelope(B)), and offering shards
// in ascending-ID order reproduces the single-node stream's
// duplicate-coordinate tie-breaks (first offer wins). Survivor points and
// IDs, Total, PrePruned and Offered are therefore identical to the unsharded
// run. SumEDP and SumEmbD are re-summed per shard in ascending-shard order —
// deterministic for a given partition, but floating-point addition is not
// associative, so they can differ from the single-node sums in the last few
// ULPs. The shard property suite pins the envelope equality exactly and the
// sums to within that tolerance.
func MergeShardResults(results []*StreamResult) (*StreamResult, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("dse: no shard results to merge")
	}
	base := results[0]
	for i, r := range results[1:] {
		if r.Space.Task.Name != base.Space.Task.Name {
			return nil, fmt.Errorf("dse: shard %d ran task %q, shard 0 ran %q", i+1, r.Space.Task.Name, base.Space.Task.Name)
		}
		if r.Space.CIUse != base.Space.CIUse {
			return nil, fmt.Errorf("dse: shard %d used CI_use %v, shard 0 used %v", i+1, r.Space.CIUse, base.Space.CIUse)
		}
		if len(r.IDs) != len(r.Space.Points) {
			return nil, fmt.Errorf("dse: shard %d has %d ids for %d survivors", i+1, len(r.IDs), len(r.Space.Points))
		}
	}
	if len(base.IDs) != len(base.Space.Points) {
		return nil, fmt.Errorf("dse: shard 0 has %d ids for %d survivors", len(base.IDs), len(base.Space.Points))
	}

	// Merge in ascending-shard order so duplicate-coordinate tie-breaks
	// resolve exactly as in a single stream that saw the IDs in order. Shards
	// cover disjoint ID ranges, so the minimum survivor ID orders them;
	// survivor-free shards only contribute counters and can merge anywhere.
	sorted := append([]*StreamResult(nil), results...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if len(a.IDs) == 0 || len(b.IDs) == 0 {
			return len(b.IDs) == 0 && len(a.IDs) > 0
		}
		return minID(a.IDs) < minID(b.IDs)
	})

	var (
		env     pareto.Stream
		payload = make(map[int64]Point)
		merged  = &StreamResult{Space: &Space{Task: base.Space.Task, CIUse: base.Space.CIUse}}
	)
	for _, r := range sorted {
		pts := make([]pareto.Point, len(r.Space.Points))
		for i, p := range r.Space.Points {
			if _, dup := payload[r.IDs[i]]; dup {
				return nil, fmt.Errorf("dse: survivor id %d appears in two shards — shards must cover disjoint ranges", r.IDs[i])
			}
			payload[r.IDs[i]] = p
			pts[i] = p.objectives()
		}
		accepted, evicted := env.Merge(pareto.StreamState{Points: pts, IDs: append([]int64(nil), r.IDs...), Offered: r.Offered})
		keep := make(map[int64]bool, len(accepted))
		for _, id := range accepted {
			keep[id] = true
		}
		for _, id := range evicted {
			delete(payload, id)
			delete(keep, id)
		}
		for _, id := range r.IDs {
			if !keep[id] {
				delete(payload, id)
			}
		}
		merged.Total += r.Total
		merged.PrePruned += r.PrePruned
		merged.SumEDP += r.SumEDP
		merged.SumEmbD += r.SumEmbD
	}
	merged.Offered = env.Offered()

	ids := env.IDs()
	points := make([]Point, len(ids))
	for i, id := range ids {
		points[i] = payload[id]
	}
	merged.Space.Points = points
	merged.IDs = ids
	return merged, nil
}

func minID(ids []int64) int64 {
	m := ids[0]
	for _, id := range ids[1:] {
		if id < m {
			m = id
		}
	}
	return m
}
