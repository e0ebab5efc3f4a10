package cluster_test

import (
	"context"
	"testing"

	"cordoba"
	"cordoba/internal/cluster"
	"cordoba/internal/server"
)

// BenchmarkClusterDSE compares a single-node walk of the 2^20-point
// acceptance grid against the same grid fanned out to three in-process
// worker daemons. Per-point compute dominates and shards are disjoint, so on
// parallel hardware the sharded run approaches a 3× speedup; the guarded
// baseline keeps the coordinator's fan-out overhead (dispatch, following,
// envelope decode, merge) from regressing relative to the raw walk.
func BenchmarkClusterDSE(b *testing.B) {
	if raceEnabled {
		b.Skip("million-point grid is too slow under the race detector")
	}
	knobs := millionKnobs()
	g := gridFor(knobs)
	task := allKernels(b)

	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cordoba.ExploreStreamAt(context.Background(), task, g, cordoba.FabCoal, 380, cordoba.StreamOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workers3", func(b *testing.B) {
		urls := workerURLs(b, 3, server.Config{})
		coord := newCoordinator(b, urls, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := coord.Run(context.Background(), reqFor(knobs), task, 380, cluster.RunOptions{Shards: 3})
			if err != nil {
				b.Fatal(err)
			}
			if res.Retried != 0 {
				b.Fatalf("benchmark run retried %d shards", res.Retried)
			}
		}
	})
}

// BenchmarkClusterMerge isolates the coordinator's merge path: decoding
// three wire envelopes from a 2^20-point run and folding them into the
// whole-grid result. The shard walks happen once as setup; only the
// decode+merge is timed.
func BenchmarkClusterMerge(b *testing.B) {
	if raceEnabled {
		b.Skip("million-point setup is too slow under the race detector")
	}
	knobs := millionKnobs()
	g := gridFor(knobs)
	task := allKernels(b)
	shapes := len(knobs.MACArrays) * len(knobs.SRAMMB)

	plan := cluster.Plan(shapes, 3)
	parts := make([]*cordoba.StreamResult, len(plan))
	for i, sh := range plan {
		res, err := cordoba.ExploreStreamCheckpointed(context.Background(), task, g, cordoba.FabCoal, 380, cordoba.CheckpointOptions{
			Shard: &cordoba.StreamShard{First: sh.First, Count: sh.Count},
		})
		if err != nil {
			b.Fatal(err)
		}
		parts[i] = res
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decoded := make([]*cordoba.StreamResult, len(parts))
		for j, p := range parts {
			env := cluster.EnvelopeFromResult(plan[j].First, plan[j].Count, p)
			r, err := cluster.ResultFromEnvelope(env, task, 380)
			if err != nil {
				b.Fatal(err)
			}
			decoded[j] = r
		}
		if _, err := cordoba.MergeStreamResults(decoded); err != nil {
			b.Fatal(err)
		}
	}
}
