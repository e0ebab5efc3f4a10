package dse

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cordoba/internal/carbon"
)

// ckptGrid is a small multi-axis grid: 12 shapes × 4 cells = 48 points,
// enough reorder traffic to exercise the sequencer without slowing the suite.
func ckptGrid() Grid {
	return Grid{
		MACArrays: []int{1, 2, 4, 8},
		SRAMMB:    []float64{1, 2, 4},
		VDDScales: []float64{1.0, 0.9},
		Nodes:     []string{"7nm", "5nm"},
	}
}

// sameStreamResult demands bit-identical results: survivor configs and
// coordinates, counters, and the floating-point sufficient statistics.
func sameStreamResult(t *testing.T, label string, got, want *StreamResult) {
	t.Helper()
	if got.Total != want.Total || got.PrePruned != want.PrePruned || got.Offered != want.Offered {
		t.Fatalf("%s: counters differ: got (%d, %d, %d), want (%d, %d, %d)",
			label, got.Total, got.PrePruned, got.Offered, want.Total, want.PrePruned, want.Offered)
	}
	if got.SumEDP != want.SumEDP || got.SumEmbD != want.SumEmbD {
		t.Fatalf("%s: sums differ: got (%v, %v), want (%v, %v)",
			label, got.SumEDP, got.SumEmbD, want.SumEDP, want.SumEmbD)
	}
	if !reflect.DeepEqual(got.Space.Points, want.Space.Points) {
		t.Fatalf("%s: survivor sets differ: got %d points, want %d", label, len(got.Space.Points), len(want.Space.Points))
	}
}

// TestCheckpointedMatchesStream checks that taking checkpoints is invisible
// in the result: a run that snapshots after every other shape returns the
// same result as a run that takes none.
func TestCheckpointedMatchesStream(t *testing.T) {
	task := paperTask(t, "All kernels")
	g := ckptGrid()
	plain, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, CheckpointOptions{
		StreamOptions: StreamOptions{Workers: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, CheckpointOptions{
		StreamOptions: StreamOptions{Workers: 7},
		Every:         2,
		OnCheckpoint:  func(*StreamCheckpoint) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	sameStreamResult(t, "checkpointed vs plain", ck, plain)
}

// TestStreamDeterministicAcrossWorkers pins the property the checkpoint
// design rests on: ordered accumulation makes the floating-point sums
// independent of worker scheduling.
func TestStreamDeterministicAcrossWorkers(t *testing.T) {
	task := paperTask(t, "All kernels")
	g := ckptGrid()
	var want *StreamResult
	for _, workers := range []int{1, 2, 5, 16} {
		r, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, CheckpointOptions{StreamOptions: StreamOptions{Workers: workers}})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = r
			continue
		}
		sameStreamResult(t, "workers variant", r, want)
	}
}

// TestCheckpointResumeBitIdentical is the acceptance property: resuming from
// any intermediate checkpoint converges to the uninterrupted run's survivor
// set, Total, SumEDP and SumEmbD exactly. Checkpoints are round-tripped
// through JSON first, the same path the job store uses. Taking the
// checkpoints leaves the run's own result unchanged too.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	task := paperTask(t, "All kernels")
	g := ckptGrid()
	full, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, CheckpointOptions{
		StreamOptions: StreamOptions{Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}

	var cps []*StreamCheckpoint
	ck, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, CheckpointOptions{
		StreamOptions: StreamOptions{Workers: 7},
		Every:         3,
		OnCheckpoint: func(cp *StreamCheckpoint) error {
			cps = append(cps, cp)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sameStreamResult(t, "run taking checkpoints", ck, full)
	// ckptGrid has 12 shapes: a checkpoint after shapes 3, 6 and 9, none
	// after the last.
	if len(cps) != 3 {
		t.Fatalf("captured %d checkpoints, want 3", len(cps))
	}

	for _, cp := range cps {
		b, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		var restored StreamCheckpoint
		if err := json.Unmarshal(b, &restored); err != nil {
			t.Fatal(err)
		}
		resumed, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, CheckpointOptions{
			StreamOptions: StreamOptions{Workers: 2},
			Resume:        &restored,
		})
		if err != nil {
			t.Fatalf("resume from shape %d: %v", cp.NextShape, err)
		}
		sameStreamResult(t, "resume from intermediate checkpoint", resumed, full)
	}
}

// TestCheckpointCancelThenResume interrupts a run cooperatively after the
// first checkpoint lands — the crash scenario — and resumes from it.
func TestCheckpointCancelThenResume(t *testing.T) {
	task := paperTask(t, "All kernels")
	g := ckptGrid()
	full, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, CheckpointOptions{
		StreamOptions: StreamOptions{Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last *StreamCheckpoint
	_, err = EvaluateStream(ctx, task, g, carbon.FabCoal, 380, CheckpointOptions{
		StreamOptions: StreamOptions{Workers: 4},
		Every:         2,
		OnCheckpoint: func(cp *StreamCheckpoint) error {
			last = cp
			cancel() // killed right after persisting a checkpoint
			return nil
		},
	})
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if last == nil {
		t.Fatal("no checkpoint landed before cancellation")
	}
	if last.NextShape <= 0 || last.NextShape >= last.Shapes {
		t.Fatalf("checkpoint cursor %d of %d is not intermediate", last.NextShape, last.Shapes)
	}

	resumed, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, CheckpointOptions{
		StreamOptions: StreamOptions{Workers: 4},
		Resume:        last,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameStreamResult(t, "resume after cancel", resumed, full)
}

func TestCheckpointFingerprintMismatch(t *testing.T) {
	task := paperTask(t, "All kernels")
	g := ckptGrid()
	var cp *StreamCheckpoint
	if _, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, CheckpointOptions{
		Every:        3,
		OnCheckpoint: func(c *StreamCheckpoint) error { cp = c; return nil },
	}); err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no checkpoint captured")
	}
	cases := map[string]func() (*StreamResult, error){
		"different fab": func() (*StreamResult, error) {
			return EvaluateStream(context.Background(), task, g, carbon.FabRenewable, 380, CheckpointOptions{Resume: cp})
		},
		"different ci": func() (*StreamResult, error) {
			return EvaluateStream(context.Background(), task, g, carbon.FabCoal, 100, CheckpointOptions{Resume: cp})
		},
		"different task": func() (*StreamResult, error) {
			return EvaluateStream(context.Background(), paperTask(t, "AI (10 kernels)"), g, carbon.FabCoal, 380, CheckpointOptions{Resume: cp})
		},
		"different yield": func() (*StreamResult, error) {
			return EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, CheckpointOptions{
				StreamOptions: StreamOptions{Yield: carbon.PoissonYield{}},
				Resume:        cp,
			})
		},
	}
	for name, run := range cases {
		if _, err := run(); err == nil || !strings.Contains(err.Error(), "fingerprint") {
			t.Errorf("%s: resume accepted a foreign checkpoint (err = %v)", name, err)
		}
	}
	// A grid change alters the shape count too; any rejection is fine but it
	// must be rejected.
	g2 := ckptGrid()
	g2.MACArrays = g2.MACArrays[:2]
	if _, err := EvaluateStream(context.Background(), task, g2, carbon.FabCoal, 380, CheckpointOptions{Resume: cp}); err == nil {
		t.Error("resume accepted a checkpoint from a different grid")
	}
}

func TestCheckpointValidateRejectsCorrupt(t *testing.T) {
	task := paperTask(t, "All kernels")
	g := ckptGrid()
	var cp *StreamCheckpoint
	if _, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, CheckpointOptions{
		Every:        4,
		OnCheckpoint: func(c *StreamCheckpoint) error { cp = c; return nil },
	}); err != nil {
		t.Fatal(err)
	}
	resume := func(c StreamCheckpoint) error {
		_, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, CheckpointOptions{Resume: &c})
		return err
	}
	corrupt := map[string]func(c *StreamCheckpoint){
		"cursor negative":  func(c *StreamCheckpoint) { c.NextShape = -1 },
		"cursor past end":  func(c *StreamCheckpoint) { c.NextShape = c.Shapes + 1 },
		"acc count":        func(c *StreamCheckpoint) { c.Accs = nil },
		"two accs":         func(c *StreamCheckpoint) { c.Accs = append(c.Accs, c.Accs[0]) },
		"total mismatch":   func(c *StreamCheckpoint) { c.Accs[0].Total++ },
		"offered mismatch": func(c *StreamCheckpoint) { c.Accs[0].Envelope.Offered++ },
		"id out of prefix": func(c *StreamCheckpoint) { c.Accs[0].Envelope.IDs[0] = int64(c.Shapes) * 1000 },
	}
	// Survivors are stored as IDs and re-priced on resume: an envelope
	// point that disagrees with its ID's re-pricing must be refused by that
	// check, not resumed into a different envelope.
	repriced := map[string]func(c *StreamCheckpoint){
		"envelope X one ulp off": func(c *StreamCheckpoint) {
			pts := c.Accs[0].Envelope.Points
			pts[len(pts)-1].X = math.Nextafter(pts[len(pts)-1].X, math.Inf(1))
		},
		"survivor id re-prices differently": func(c *StreamCheckpoint) {
			env := &c.Accs[0].Envelope
			for id := int64(0); ; id++ {
				if !slices.Contains(env.IDs, id) {
					env.IDs[0] = id
					return
				}
			}
		},
	}
	for name, mutate := range corrupt {
		repriced[name] = mutate
	}
	for name, mutate := range repriced {
		var c StreamCheckpoint
		b, _ := json.Marshal(cp)
		if err := json.Unmarshal(b, &c); err != nil {
			t.Fatal(err)
		}
		mutate(&c)
		err := resume(c)
		switch {
		case err == nil:
			t.Errorf("%s: corrupt checkpoint accepted", name)
		case corrupt[name] == nil && !strings.Contains(err.Error(), "re-pricing"):
			t.Errorf("%s: rejected by another check than the re-pricing: %v", name, err)
		}
	}
}

func TestCheckpointCallbackErrorAborts(t *testing.T) {
	boom := errors.New("disk full")
	_, err := EvaluateStream(context.Background(), paperTask(t, "All kernels"), ckptGrid(), carbon.FabCoal, 380, CheckpointOptions{
		Every:        1,
		OnCheckpoint: func(*StreamCheckpoint) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("checkpoint error not propagated: %v", err)
	}
}

func TestCheckpointProgress(t *testing.T) {
	g := ckptGrid()
	var got []StreamProgress
	r, err := EvaluateStream(context.Background(), paperTask(t, "All kernels"), g, carbon.FabCoal, 380, CheckpointOptions{
		StreamOptions: StreamOptions{Workers: 4},
		OnProgress:    func(p StreamProgress) { got = append(got, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := g.compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != cg.shapes() {
		t.Fatalf("progress fired %d times, want one per shape (%d)", len(got), cg.shapes())
	}
	for i, p := range got {
		if p.ShapesDone != i+1 || p.ShapesTotal != cg.shapes() {
			t.Fatalf("progress %d: cursor (%d of %d)", i, p.ShapesDone, p.ShapesTotal)
		}
		if p.Streamed != int64(p.ShapesDone)*int64(len(cg.cells)) {
			t.Fatalf("progress %d: streamed %d, want %d", i, p.Streamed, int64(p.ShapesDone)*int64(len(cg.cells)))
		}
		if p.Kept < 1 || int64(p.Kept)+p.Pruned != p.Streamed {
			t.Fatalf("progress %d: kept %d + pruned %d != streamed %d", i, p.Kept, p.Pruned, p.Streamed)
		}
	}
	last := got[len(got)-1]
	if last.Streamed != r.Total || last.Kept != r.Kept() {
		t.Fatalf("final progress (%d streamed, %d kept) disagrees with result (%d, %d)", last.Streamed, last.Kept, r.Total, r.Kept())
	}
}

// TestCheckpointLegacySurvivors resumes a checkpoint written when
// accumulator snapshots still stored every survivor's full point
// ("survivors"). Decoding ignores the array; the survivors are re-priced
// from their envelope IDs like any other checkpoint's, and the resumed run
// matches an uninterrupted one bit for bit. The fixture carries the
// fingerprint those releases computed, so the test also fails if the
// fingerprint's hash changes.
func TestCheckpointLegacySurvivors(t *testing.T) {
	b, err := os.ReadFile("testdata/legacy_checkpoint.json")
	if err != nil {
		t.Fatal(err)
	}
	var legacy struct {
		Accs []struct {
			Survivors []json.RawMessage `json:"survivors"`
		} `json:"accs"`
	}
	if err := json.Unmarshal(b, &legacy); err != nil {
		t.Fatal(err)
	}
	if len(legacy.Accs) != 1 || len(legacy.Accs[0].Survivors) == 0 {
		t.Fatalf("fixture is not a legacy single-accumulator checkpoint: %d accumulators", len(legacy.Accs))
	}
	var cp StreamCheckpoint
	if err := json.Unmarshal(b, &cp); err != nil {
		t.Fatal(err)
	}
	task := paperTask(t, "All kernels")
	full, err := EvaluateStream(context.Background(), task, ckptGrid(), carbon.FabCoal, 380, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := EvaluateStream(context.Background(), task, ckptGrid(), carbon.FabCoal, 380, CheckpointOptions{Resume: &cp})
	if err != nil {
		t.Fatal(err)
	}
	sameStreamResult(t, "legacy resume", resumed, full)
}

// BenchmarkStreamCheckpointEncode is the checkpoint-encode layer of a job:
// snapshot plus json.Marshal of the accumulator state halfway through the
// 105k-point reference grid, what the engine hands OnCheckpoint every
// CheckpointEvery shapes.
func BenchmarkStreamCheckpointEncode(b *testing.B) {
	task := paperTask(b, "All kernels")
	g := refGrid105k()
	cg, err := g.compile()
	if err != nil {
		b.Fatal(err)
	}
	var mid *StreamCheckpoint
	if _, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, CheckpointOptions{
		Every: cg.shapes() / 2,
		OnCheckpoint: func(cp *StreamCheckpoint) error {
			mid = cp
			return nil
		},
	}); err != nil {
		b.Fatal(err)
	}
	se, err := newShapeEval(cg, task, NewMemoCache(0), carbon.FabCoal, nil)
	if err != nil {
		b.Fatal(err)
	}
	acc := &taskAcc{}
	if err := acc.restore(mid.Accs[0], se, newEvalScratch(se)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := &StreamCheckpoint{Fingerprint: mid.Fingerprint, Shapes: mid.Shapes, NextShape: mid.NextShape, Accs: []AccState{acc.snapshot()}}
		if _, err := json.Marshal(cp); err != nil {
			b.Fatal(err)
		}
	}
}
