package cordoba_test

// One benchmark per paper table and figure (DESIGN.md §3): each regenerates
// the corresponding experiment end-to-end, so `go test -bench=.` both times
// the reproduction pipeline and re-verifies that every experiment still runs.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cordoba"
	"cordoba/internal/carbon"
	"cordoba/internal/dse"
	"cordoba/internal/experiments"
	"cordoba/internal/sched"
	"cordoba/internal/server"
)

func benchExperiment(b *testing.B, key string) {
	b.Helper()
	e, err := experiments.ByKey(key)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableI(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkTableII(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkFigure3(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFigure6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFigure7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFigure8F(b *testing.B) { benchExperiment(b, "fig8f") }
func BenchmarkFigure9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkTableV(b *testing.B)   { benchExperiment(b, "table5") }
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFigure12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkTableVI(b *testing.B)  { benchExperiment(b, "table6") }

// BenchmarkFullDSE times the core §VI-B loop: evaluating the complete
// 121-configuration space on one task (the unit of work behind Figs. 7–9;
// the paper reports hours end-to-end for its simulator-backed version).
func BenchmarkFullDSE(b *testing.B) {
	task, err := cordoba.PaperTask(cordoba.TaskAllKernels)
	if err != nil {
		b.Fatal(err)
	}
	grid := cordoba.Grid()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cordoba.Explore(task, grid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateParallel times the 121-point grid evaluation across
// worker counts, each run on a cold private memo — the numbers behind
// cordobad's default pool sizing (speedup flattens after a handful of
// workers, so the daemon admits several moderately parallel evaluations
// rather than one maximally parallel one). workers=1 is the sequential run.
func BenchmarkEvaluateParallel(b *testing.B) {
	task, err := cordoba.PaperTask(cordoba.TaskAllKernels)
	if err != nil {
		b.Fatal(err)
	}
	grid := cordoba.Grid()

	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cordoba.ExploreParallelAt(task, grid, cordoba.Process7nm(), cordoba.FabCoal, 380, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServerDSE times cordobad's /v1/dse end-to-end: an uncached
// request pays the full grid evaluation; a cached one replays the stored
// bytes — the gap is the whole point of the response cache.
func BenchmarkServerDSE(b *testing.B) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	body := `{"task":"All kernels"}`
	post := func(b *testing.B, h http.Handler) int {
		req := httptest.NewRequest("POST", "/v1/dse", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
		return w.Body.Len()
	}

	b.Run("uncached", func(b *testing.B) {
		s := server.New(server.Config{CacheSize: -1, Logger: quiet})
		h := s.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, h)
		}
	})
	b.Run("cached", func(b *testing.B) {
		s := server.New(server.Config{Logger: quiet})
		h := s.Handler()
		post(b, h) // prime the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, h)
		}
	})
}

// BenchmarkKernelProfile times a single kernel simulation (ResNet-50 on the
// paper's a48 configuration).
func BenchmarkKernelProfile(b *testing.B) {
	cfg, err := cordoba.AcceleratorByID("a48")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Profile(cordoba.KernelRN50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnvelope times the never-optimal elimination over the 121-design
// space (the §IV-B machinery).
func BenchmarkEnvelope(b *testing.B) {
	task, err := cordoba.PaperTask(cordoba.TaskXR10)
	if err != nil {
		b.Fatal(err)
	}
	space, err := cordoba.Explore(task, cordoba.Grid())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := space.EverOptimal(); len(got) == 0 {
			b.Fatal("empty envelope")
		}
	}
}

// BenchmarkAblations times the calibration-sensitivity sweep.
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkLifetime times the §VII refresh-cadence study.
func BenchmarkLifetime(b *testing.B) { benchExperiment(b, "lifetime") }

// BenchmarkScheduler times the discrete-event scheduler substrate on a
// VR-style workload (the Perfetto substitute).
func BenchmarkScheduler(b *testing.B) {
	w := sched.SyntheticVR("vr", 4.0, 60, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Simulate(w, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// streamBenchGrid is the ≥100k-point knob grid behind the streaming-engine
// acceptance benchmark: 50 MAC options × 30 SRAM options × 10 DVFS points ×
// 7 technology nodes = 105,000 configurations.
func streamBenchGrid() dse.Grid {
	macs := make([]int, 50)
	for i := range macs {
		macs[i] = 4 * (i + 1)
	}
	sram := make([]float64, 30)
	for i := range sram {
		sram[i] = 1 + float64(i)*2
	}
	vdd := make([]float64, 10)
	for i := range vdd {
		vdd[i] = 0.55 + 0.05*float64(i)
	}
	return dse.Grid{
		MACArrays: macs,
		SRAMMB:    sram,
		VDDScales: vdd,
		Nodes:     []string{"28nm", "20nm", "14nm", "10nm", "7nm", "5nm", "3nm"},
	}
}

// BenchmarkStreamingDSE pits the v2 streaming engine against naive full
// materialization on the same 105k-point knob grid ("naive" re-derives
// every kernel cost per configuration and holds all points in memory;
// "streaming" memoizes shape profiles and keeps only the envelope). The
// acceptance bar for the engine is ≥5× lower wall time for streaming.
func BenchmarkStreamingDSE(b *testing.B) {
	task, err := cordoba.PaperTask(cordoba.TaskAllKernels)
	if err != nil {
		b.Fatal(err)
	}
	g := streamBenchGrid()
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := dse.EvaluateGrid(task, g, carbon.FabCoal, 380)
			if err != nil {
				b.Fatal(err)
			}
			if len(s.EverOptimal()) == 0 {
				b.Fatal("empty envelope")
			}
		}
	})
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := dse.EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, dse.StreamOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if r.Kept() == 0 {
				b.Fatal("empty envelope")
			}
		}
	})
}

// BenchmarkSurrogateDSE pits the surrogate-guided Pareto search against the
// exhaustive streaming engine on the same 105k-point grid. The surrogate
// pays ~2% of the evaluations for ≥ 0.99 of the oracle hypervolume (the
// golden tests in internal/dse pin the exact quality) and 3.6–4.5× less
// wall time on a 2-vCPU host, with under a third of the allocations. The
// per-generation RBF fit and the serial NSGA-II bookkeeping between
// evaluation batches keep it from scaling linearly with the evaluation
// discount, but the gap widens with model cost since the exhaustive walk
// pays the evaluator on every grid point. The baseline's faster_than gate
// holds the surrogate to at least 3× faster (`make bench-surrogate`).
func BenchmarkSurrogateDSE(b *testing.B) {
	task, err := cordoba.PaperTask(cordoba.TaskAllKernels)
	if err != nil {
		b.Fatal(err)
	}
	g := streamBenchGrid()
	b.Run("exhaustive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := cordoba.ExploreStreamAt(context.Background(), task, g, carbon.FabCoal, 380, cordoba.StreamOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if r.Kept() == 0 {
				b.Fatal("empty envelope")
			}
		}
	})
	b.Run("surrogate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := cordoba.ExploreSurrogate(context.Background(), task, g, carbon.FabCoal, 380, cordoba.SurrogateOptions{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if r.Kept() == 0 {
				b.Fatal("empty envelope")
			}
		}
	})
}

// partitionBenchGrid is a ~3k-shape knob grid crossed with the full partition
// axis (3 integration styles × 2 chiplet counts × 2 memory nodes — 12× the
// cells of its flat projection).
func partitionBenchGrid() dse.Grid {
	macs := make([]int, 16)
	for i := range macs {
		macs[i] = 4 * (i + 1)
	}
	sram := make([]float64, 8)
	for i := range sram {
		sram[i] = 1 + float64(i)*4
	}
	return dse.Grid{
		MACArrays:    macs,
		SRAMMB:       sram,
		VDDScales:    []float64{1.0, 0.85, 0.7},
		Nodes:        []string{"7nm", "3nm"},
		Integrations: []string{"monolithic", "2.5d", "3d"},
		Chiplets:     []int{2, 4},
		ChipletNodes: []string{"10nm", "14nm"},
	}
}

// BenchmarkPartitionDSE times the streaming engine over the partition axes
// against the same grid's flat (monolithic-only) projection. The partition
// axes multiply the cell count 12× but price through the shared per-(shape,
// embodied-class) path, so the marginal cost per extra cell must stay small
// and the allocation count must track embodied classes, not cells — the
// baseline entries in testdata/bench_baseline.json gate time, B/op, and
// allocs/op on both runs.
func BenchmarkPartitionDSE(b *testing.B) {
	task, err := cordoba.PaperTask(cordoba.TaskAllKernels)
	if err != nil {
		b.Fatal(err)
	}
	part := partitionBenchGrid()
	flat := part
	flat.Integrations, flat.Chiplets, flat.ChipletNodes = nil, nil, nil
	for _, c := range []struct {
		name string
		grid dse.Grid
	}{
		{"flat", flat},
		{"partition", part},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := dse.EvaluateStream(context.Background(), task, c.grid, carbon.FabCoal, 380, dse.StreamOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if r.Kept() == 0 {
					b.Fatal("empty envelope")
				}
			}
		})
	}
}
