package dse

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cordoba/internal/carbon"
	"cordoba/internal/pareto"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden oracle envelopes and surrogate quality reports")

// goldenFrontPoint is one oracle envelope vertex in the objective plane.
type goldenFrontPoint struct {
	ID int64   `json:"id"`
	X  float64 `json:"x"` // E·D
	Y  float64 `json:"y"` // C_emb·D
}

// goldenReport is the checked-in record of one reference grid: the
// exhaustive oracle's envelope and the surrogate search's exact outcome
// against it. Everything is deterministic (fixed seed, ordered
// accumulation), so the comparison is byte-for-byte; regenerate with
//
//	go test ./internal/dse -run TestSurrogateGolden -update
type goldenReport struct {
	GridPoints int64 `json:"grid_points"`
	Oracle     struct {
		Kept  int                `json:"kept"`
		Front []goldenFrontPoint `json:"front"`
	} `json:"oracle"`
	Surrogate struct {
		Seed        uint64  `json:"seed"`
		Budget      int64   `json:"budget"`
		Evaluations int64   `json:"evaluations"`
		Generations int     `json:"generations"`
		Skipped     int64   `json:"skipped"`
		IDs         []int64 `json:"ids"`
		Quality     Quality `json:"quality"`
	} `json:"surrogate"`
}

// goldenGrids are the three reference spaces the quality bar is pinned on:
// a lattice small enough for the budget to cover it exactly, the 121-config
// grid behind the paper's figure-8 reproduction, and the 10⁵-point grid the
// oracle-equivalence acceptance test runs on.
var goldenGrids = []struct {
	name   string
	grid   func() Grid
	seed   uint64
	budget int64 // 0 = engine default
	short  bool  // runs under -short
}{
	{"lattice-12", func() Grid {
		return Grid{MACArrays: []int{1, 8, 32}, SRAMMB: []float64{2, 16}, VDDScales: []float64{0.8, 1.0}}
	}, 1, 12, true},
	{"fig8-121", fig8Grid, 1, 60, true},
	{"ref-105k", refGrid105k, 1, 0, false},
}

// TestSurrogateGolden locks each reference grid's oracle envelope and the
// surrogate's quality against it. The oracle front is stored in the golden
// file, so the expensive exhaustive run only happens under -update; regular
// runs pay just the surrogate budget and verify byte-identity of the whole
// report.
func TestSurrogateGolden(t *testing.T) {
	task := paperTask(t, "All kernels")
	for _, tc := range goldenGrids {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.short && testing.Short() && !*updateGolden {
				t.Skipf("%s surrogate run in -short mode", tc.name)
			}
			g := tc.grid()
			path := filepath.Join("testdata", "golden_"+tc.name+".json")
			memo := NewMemoCache(0)

			r, err := EvaluateSurrogate(context.Background(), task, g, carbon.FabCoal, 380, SurrogateOptions{
				Seed: tc.seed, Budget: tc.budget, StreamOptions: StreamOptions{Memo: memo},
			})
			if err != nil {
				t.Fatal(err)
			}

			var report goldenReport
			report.GridPoints = r.GridPoints
			report.Surrogate.Seed = r.Seed
			report.Surrogate.Budget = r.Budget
			report.Surrogate.Evaluations = r.Evaluations
			report.Surrogate.Generations = r.Generations
			report.Surrogate.Skipped = r.Skipped
			report.Surrogate.IDs = r.IDs

			var oracleFront []pareto.Point
			if *updateGolden {
				oracle, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, CheckpointOptions{StreamOptions: StreamOptions{Memo: memo}})
				if err != nil {
					t.Fatal(err)
				}
				report.Oracle.Kept = oracle.Kept()
				for i, p := range oracle.Space.Points {
					report.Oracle.Front = append(report.Oracle.Front,
						goldenFrontPoint{ID: oracle.IDs[i], X: p.EDP(), Y: p.EmbodiedDelay()})
				}
			} else {
				// The stored oracle front is the reference; regular runs never
				// pay the exhaustive walk.
				stored, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update): %v", err)
				}
				var prev goldenReport
				if err := json.Unmarshal(stored, &prev); err != nil {
					t.Fatalf("corrupt golden file %s: %v", path, err)
				}
				report.Oracle = prev.Oracle
			}
			for _, p := range report.Oracle.Front {
				oracleFront = append(oracleFront, pareto.Point{X: p.X, Y: p.Y})
			}
			report.Surrogate.Quality = measureQualityFronts(envelopeFront(r.StreamResult), oracleFront)

			got, err := json.MarshalIndent(report, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')

			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s: %d evals, HV ratio %.5f", path,
					report.Surrogate.Evaluations, report.Surrogate.Quality.HypervolumeRatio)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if string(got) != string(want) {
				t.Fatalf("surrogate report drifted from %s (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s",
					path, got, want)
			}

			// Beyond byte-identity, hold the documented quality floor: exact
			// on the full-budget lattice, ≥ 0.99 hypervolume elsewhere.
			q := report.Surrogate.Quality
			if tc.budget >= g.Size() && tc.budget > 0 {
				if q.HypervolumeRatio != 1 || q.Coverage != 1 {
					t.Fatalf("full-budget grid not exact: %+v", q)
				}
			} else if q.HypervolumeRatio < 0.99 {
				t.Fatalf("hypervolume ratio %.5f < 0.99 on %s", q.HypervolumeRatio, tc.name)
			}
		})
	}
}
