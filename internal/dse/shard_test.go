package dse

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cordoba/internal/carbon"
)

// runShard explores one contiguous shape range of g.
func runShard(t *testing.T, g Grid, first, count int, opt CheckpointOptions) *StreamResult {
	t.Helper()
	task := paperTask(t, "All kernels")
	opt.Shard = &ShardRange{First: first, Count: count}
	r, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, opt)
	if err != nil {
		t.Fatalf("shard [%d,%d): %v", first, first+count, err)
	}
	return r
}

// closeSums allows the last-ULPs drift re-summing per-shard partial sums can
// introduce (float addition is not associative); everything else is exact.
func closeSums(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// sameMerged checks a merged shard result against the unsharded run: exact
// envelope (points and global IDs), exact integer counters, sums to within
// re-association tolerance.
func sameMerged(t *testing.T, label string, got, want *StreamResult) {
	t.Helper()
	if !reflect.DeepEqual(got.Space.Points, want.Space.Points) {
		t.Fatalf("%s: survivor points differ: got %d, want %d", label, len(got.Space.Points), len(want.Space.Points))
	}
	if !reflect.DeepEqual(got.IDs, want.IDs) {
		t.Fatalf("%s: survivor ids differ: got %v, want %v", label, got.IDs, want.IDs)
	}
	if got.Total != want.Total || got.PrePruned != want.PrePruned || got.Offered != want.Offered {
		t.Fatalf("%s: counters differ: got (%d, %d, %d), want (%d, %d, %d)",
			label, got.Total, got.PrePruned, got.Offered, want.Total, want.PrePruned, want.Offered)
	}
	if !closeSums(got.SumEDP, want.SumEDP) || !closeSums(got.SumEmbD, want.SumEmbD) {
		t.Fatalf("%s: sums differ beyond tolerance: got (%v, %v), want (%v, %v)",
			label, got.SumEDP, got.SumEmbD, want.SumEDP, want.SumEmbD)
	}
}

// TestShardPartitionsMatchUnsharded is the distributed-DSE algebra end to
// end: any contiguous partition of the shape range — balanced, heavily
// skewed, or one shape per shard — explored shard-by-shard and merged equals
// the single-node streaming run.
func TestShardPartitionsMatchUnsharded(t *testing.T) {
	g := ckptGrid()
	shapes := 12 // 4 MAC arrays × 3 SRAM sizes
	task := paperTask(t, "All kernels")
	want, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, CheckpointOptions{StreamOptions: StreamOptions{Workers: 3}})
	if err != nil {
		t.Fatal(err)
	}

	partitions := [][]int{
		{12},                                 // degenerate: one shard is the whole grid
		{6, 6},                               // balanced
		{1, 11},                              // heavily skewed
		{11, 1},                              // skewed the other way
		{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, // one shape per shard
		{5, 3, 4},
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		var sizes []int
		for left := shapes; left > 0; {
			n := 1 + rng.Intn(left)
			sizes = append(sizes, n)
			left -= n
		}
		partitions = append(partitions, sizes)
	}

	for _, sizes := range partitions {
		results := make([]*StreamResult, len(sizes))
		first := 0
		for i, n := range sizes {
			results[i] = runShard(t, g, first, n, CheckpointOptions{StreamOptions: StreamOptions{Workers: 2}})
			first += n
		}
		// Merge order must not matter beyond the sorted-by-ID normalization:
		// shuffle before merging.
		rand.New(rand.NewSource(int64(len(sizes)))).Shuffle(len(results), func(i, j int) {
			results[i], results[j] = results[j], results[i]
		})
		merged, err := MergeShardResults(results)
		if err != nil {
			t.Fatalf("partition %v: %v", sizes, err)
		}
		sameMerged(t, "partition", merged, want)
	}
}

// TestShardResumeBitIdentical interrupts a shard at a checkpoint and resumes
// it; the resumed shard must be bit-identical to an uninterrupted one,
// including the shard-local floating-point sums.
func TestShardResumeBitIdentical(t *testing.T) {
	g := ckptGrid()
	uninterrupted := runShard(t, g, 3, 7, CheckpointOptions{StreamOptions: StreamOptions{Workers: 2}})

	var cp *StreamCheckpoint
	stop := errors.New("stop after second checkpoint")
	task := paperTask(t, "All kernels")
	_, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, CheckpointOptions{
		StreamOptions: StreamOptions{Workers: 2},
		Shard:         &ShardRange{First: 3, Count: 7},
		Every:         2,
		OnCheckpoint: func(c *StreamCheckpoint) error {
			// Round-trip through JSON, the way a worker persists it.
			b, err := json.Marshal(c)
			if err != nil {
				return err
			}
			cp = new(StreamCheckpoint)
			if err := json.Unmarshal(b, cp); err != nil {
				return err
			}
			if c.NextShape >= 7 {
				return stop
			}
			return nil
		},
	})
	if err == nil || !errors.Is(err, stop) {
		t.Fatalf("expected injected stop, got %v", err)
	}
	if cp == nil {
		t.Fatal("no checkpoint captured")
	}
	if cp.FirstShape != 3 {
		t.Fatalf("checkpoint FirstShape = %d, want 3", cp.FirstShape)
	}
	resumed := runShard(t, g, 3, 7, CheckpointOptions{StreamOptions: StreamOptions{Workers: 2}, Resume: cp})
	sameStreamResult(t, "resumed shard vs uninterrupted", resumed, uninterrupted)
	if !reflect.DeepEqual(resumed.IDs, uninterrupted.IDs) {
		t.Fatalf("resumed shard ids differ")
	}
}

// TestShardValidation pins the error surface: out-of-range shards and
// checkpoints bound to a different shard are rejected.
func TestShardValidation(t *testing.T) {
	g := ckptGrid()
	task := paperTask(t, "All kernels")
	for _, bad := range []ShardRange{{First: -1, Count: 2}, {First: 0, Count: 0}, {First: 10, Count: 3}, {First: 12, Count: 1}} {
		_, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, CheckpointOptions{Shard: &bad})
		if err == nil || !strings.Contains(err.Error(), "shard") {
			t.Fatalf("shard %+v: expected range error, got %v", bad, err)
		}
	}

	// Capture a checkpoint on shard [3, 10) …
	var cp *StreamCheckpoint
	_, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, CheckpointOptions{
		Shard: &ShardRange{First: 3, Count: 7},
		Every: 2,
		OnCheckpoint: func(c *StreamCheckpoint) error {
			if cp == nil {
				cp = c
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no checkpoint captured")
	}
	// … and try to resume a different shard with it.
	_, err = EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, CheckpointOptions{
		Shard:  &ShardRange{First: 4, Count: 6},
		Resume: cp,
	})
	if err == nil || !strings.Contains(err.Error(), "starts at shape") {
		t.Fatalf("expected shard-binding error, got %v", err)
	}
	// A shard checkpoint must not resume a whole-grid run either.
	_, err = EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, CheckpointOptions{Resume: cp})
	if err == nil || !strings.Contains(err.Error(), "starts at shape") {
		t.Fatalf("expected shard-binding error for whole-grid resume, got %v", err)
	}
}

// TestMergeShardResultsErrors pins the merge preconditions.
func TestMergeShardResultsErrors(t *testing.T) {
	if _, err := MergeShardResults(nil); err == nil {
		t.Fatal("expected error for empty merge")
	}
	g := ckptGrid()
	a := runShard(t, g, 0, 6, CheckpointOptions{})
	b := runShard(t, g, 0, 6, CheckpointOptions{}) // same range: duplicate ids
	if _, err := MergeShardResults([]*StreamResult{a, b}); err == nil || !strings.Contains(err.Error(), "disjoint") {
		t.Fatalf("expected duplicate-id error, got %v", err)
	}
}
