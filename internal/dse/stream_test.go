package dse

import (
	"context"
	"math"
	"sync"
	"testing"

	"cordoba/internal/accel"
	"cordoba/internal/carbon"
	"cordoba/internal/nn"
	"cordoba/internal/workload"
)

// fig8Grid is the Fig. 8 design space expressed as a knob grid (defaults:
// nominal V_DD, 7 nm): accel.Grid()'s MAC-array and SRAM (MB) axes.
func fig8Grid() Grid {
	return Grid{
		MACArrays: []int{1, 2, 4, 8, 16, 32, 64, 96, 128, 192, 256},
		SRAMMB:    []float64{1, 2, 4, 8, 16, 32, 48, 64, 96, 128, 192},
	}
}

func paperTask(t testing.TB, name string) workload.Task {
	t.Helper()
	task, err := workload.PaperTask(name)
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func TestGridSizeAndIndexing(t *testing.T) {
	g := Grid{MACArrays: []int{1, 2, 4}, SRAMMB: []float64{1, 2}, VDDScales: []float64{1.0, 0.8}, Nodes: []string{"7nm", "5nm"}}
	if got := g.Size(); got != 3*2*2*2 {
		t.Fatalf("Size = %d, want 24", got)
	}
	cg, err := g.compile()
	if err != nil {
		t.Fatal(err)
	}
	if cg.shapes() != 6 || cg.size() != 24 {
		t.Fatalf("shapes = %d size = %d, want 6, 24", cg.shapes(), cg.size())
	}
	// Shape-major: the first 4 indices share (MACArrays, SRAM) and sweep the
	// 2×2 (V_DD, node) cells; index 4 moves to the next SRAM option.
	c0, _ := cg.at(0)
	c3, _ := cg.at(3)
	c4, _ := cg.at(4)
	if c0.MACArrays != 1 || c3.MACArrays != 1 || c0.SRAM != c3.SRAM {
		t.Fatalf("cells 0 and 3 should share the first shape: %+v vs %+v", c0, c3)
	}
	if c4.SRAM == c0.SRAM {
		t.Fatalf("cell 4 should advance the SRAM axis")
	}
	if c0.ID != "k1" || c4.ID != "k5" {
		t.Fatalf("ID scheme: got %q, %q, want k1, k5", c0.ID, c4.ID)
	}
	// Per-cell processes follow the node axis.
	_, p0 := cg.at(0)
	_, p1 := cg.at(1)
	if p0.process.Node != "7nm" || p1.process.Node != "5nm" {
		t.Fatalf("cell processes: got %q, %q, want 7nm, 5nm", p0.process.Node, p1.process.Node)
	}
}

func TestGridNominalCellIsIdentity(t *testing.T) {
	// The default cell (V_DD ×1.0, 7 nm) must reproduce accel.New bitwise:
	// all device-model ratios are exactly 1 against the calibration anchor.
	g := Grid{MACArrays: []int{16}, SRAMMB: []float64{8}}
	configs, procs, err := g.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 1 {
		t.Fatalf("materialized %d configs, want 1", len(configs))
	}
	want := accel.New("k1", 16, configs[0].SRAM)
	if configs[0] != want {
		t.Fatalf("nominal grid cell drifted from accel.New:\n got %+v\nwant %+v", configs[0], want)
	}
	if procs[0].Node != "7nm" {
		t.Fatalf("nominal process = %q, want 7nm", procs[0].Node)
	}
}

func TestGridValidation(t *testing.T) {
	cases := map[string]Grid{
		"no arrays":      {SRAMMB: []float64{1}},
		"no sram":        {MACArrays: []int{1}},
		"bad arrays":     {MACArrays: []int{0}, SRAMMB: []float64{1}},
		"bad sram":       {MACArrays: []int{1}, SRAMMB: []float64{-2}},
		"bad vdd":        {MACArrays: []int{1}, SRAMMB: []float64{1}, VDDScales: []float64{0}},
		"unknown node":   {MACArrays: []int{1}, SRAMMB: []float64{1}, Nodes: []string{"6nm"}},
		"vdd below vt":   {MACArrays: []int{1}, SRAMMB: []float64{1}, VDDScales: []float64{0.3}}, // 0.3·0.7 V < V_T = 0.3 V
		"overflow guard": {MACArrays: make([]int, 1<<14), SRAMMB: make([]float64, 1<<14), VDDScales: make([]float64, 1<<12), Nodes: []string{"7nm"}},
	}
	for name, g := range cases {
		if _, err := g.compile(); err == nil {
			t.Errorf("%s: compile accepted invalid grid %+v", name, g)
		}
	}
}

func TestGridKnobCellsScaleParams(t *testing.T) {
	g := Grid{MACArrays: []int{16}, SRAMMB: []float64{8}, VDDScales: []float64{1.0, 0.8}, Nodes: []string{"7nm", "3nm"}}
	configs, procs, err := g.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	nominal := configs[0] // ×1.0, 7nm
	lowV := configs[2]    // ×0.8, 7nm (cell index = vddIdx·len(nodes)+nodeIdx)
	newNode := configs[1] // ×1.0, 3nm
	if !(lowV.Params.Clock < nominal.Params.Clock) {
		t.Errorf("V_DD scaling should slow the clock: %v vs %v", lowV.Params.Clock, nominal.Params.Clock)
	}
	if !(lowV.Params.MACEnergy < nominal.Params.MACEnergy) {
		t.Errorf("V_DD scaling should cut dynamic energy: %v vs %v", lowV.Params.MACEnergy, nominal.Params.MACEnergy)
	}
	if !(newNode.Params.MACEnergy < nominal.Params.MACEnergy) {
		t.Errorf("node advance should cut dynamic energy: %v vs %v", newNode.Params.MACEnergy, nominal.Params.MACEnergy)
	}
	if !(newNode.Params.BaseArea < nominal.Params.BaseArea) {
		t.Errorf("node advance should shrink area: %v vs %v", newNode.Params.BaseArea, nominal.Params.BaseArea)
	}
	if procs[1].Node != "3nm" || procs[3].Node != "3nm" {
		t.Errorf("3nm cells should carry the 3nm embodied process")
	}
	// DRAM stays off-chip: untouched by every knob.
	for i, c := range configs {
		if c.Params.DRAMEnergyPerByte != nominal.Params.DRAMEnergyPerByte || c.Params.DRAMBW != nominal.Params.DRAMBW {
			t.Errorf("config %d: DRAM parameters must not scale with logic knobs", i)
		}
	}
}

func TestEvaluateGridMatchesEvaluate(t *testing.T) {
	// The nominal Fig. 8 knob grid must evaluate bitwise-identically to the
	// materialized accel.Grid through the list evaluator.
	task := paperTask(t, "All kernels")
	want, err := evalDefault(task, accel.Grid())
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvaluateGrid(task, fig8Grid(), carbon.FabCoal, 380)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != len(want.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(got.Points), len(want.Points))
	}
	for i := range got.Points {
		g, w := got.Points[i], want.Points[i]
		if g.Delay != w.Delay || g.Energy != w.Energy || g.Embodied != w.Embodied || g.Area != w.Area {
			t.Fatalf("point %d differs:\n grid %+v\n list %+v", i, g, w)
		}
	}
}

// checkStreamMatchesNaive asserts the streaming result is identical to
// materializing the same grid: same ever-optimal set (by ID and bitwise
// coordinates), same elimination fraction, same per-N optima.
func checkStreamMatchesNaive(t *testing.T, r *StreamResult, naive *Space) {
	t.Helper()
	wantIdx := naive.EverOptimal()
	if r.Kept() != len(wantIdx) {
		t.Fatalf("streaming kept %d points, naive envelope has %d", r.Kept(), len(wantIdx))
	}
	for k, idx := range wantIdx {
		w := naive.Points[idx]
		g := r.Space.Points[k]
		if g.Config.ID != w.Config.ID {
			t.Fatalf("survivor %d: streaming kept %q, naive %q", k, g.Config.ID, w.Config.ID)
		}
		if g.Delay != w.Delay || g.Energy != w.Energy || g.Embodied != w.Embodied || g.Area != w.Area {
			t.Fatalf("survivor %q differs between engines:\n stream %+v\n naive  %+v", g.Config.ID, g, w)
		}
	}
	if int64(len(naive.Points)) != r.Total {
		t.Fatalf("streaming evaluated %d points, naive %d", r.Total, len(naive.Points))
	}
	naiveElim := 1 - float64(len(wantIdx))/float64(len(naive.Points))
	if got := r.EliminatedFraction(); got != naiveElim {
		t.Fatalf("EliminatedFraction: streaming %v, naive %v", got, naiveElim)
	}
	for _, n := range LogSpace(1, 1e12, 13) {
		wi := naive.OptimalAt(n)
		gi := r.OptimalAt(n)
		if naive.Points[wi].Config.ID != r.Space.Points[gi].Config.ID {
			t.Fatalf("optimal at N=%g: streaming %q, naive %q", n,
				r.Space.Points[gi].Config.ID, naive.Points[wi].Config.ID)
		}
		wm := naive.MeanTCDPAt(n)
		gm := r.MeanTCDPAt(n)
		if diff := math.Abs(gm-wm) / wm; diff > 1e-9 {
			t.Fatalf("mean tCDP at N=%g: streaming %v, naive %v (rel diff %g)", n, gm, wm, diff)
		}
	}
}

func TestStreamMatchesNaiveFig8(t *testing.T) {
	task := paperTask(t, "All kernels")
	naive, err := EvaluateGrid(task, fig8Grid(), carbon.FabCoal, 380)
	if err != nil {
		t.Fatal(err)
	}
	r, err := EvaluateStream(context.Background(), task, fig8Grid(), carbon.FabCoal, 380, StreamOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkStreamMatchesNaive(t, r, naive)
}

func TestStreamMatchesNaiveKnobGrid(t *testing.T) {
	// A grid exercising every knob axis, including 3nm/5nm embodied
	// processes and two DVFS points.
	g := Grid{
		MACArrays: []int{1, 4, 16, 64},
		SRAMMB:    []float64{1, 8, 64},
		VDDScales: []float64{1.0, 0.8},
		Nodes:     []string{"28nm", "7nm", "3nm"},
	}
	task := paperTask(t, "XR (5 kernels)")
	naive, err := EvaluateGrid(task, g, carbon.FabTaiwan, 200)
	if err != nil {
		t.Fatal(err)
	}
	r, err := EvaluateStream(context.Background(), task, g, carbon.FabTaiwan, 200, StreamOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkStreamMatchesNaive(t, r, naive)
	// Each shape chunk holds 6 (V_DD, node) cells; dominance inside a chunk
	// must shrink the envelope's input stream.
	if r.PrePruned <= 0 {
		t.Errorf("dominance pre-pruning removed nothing on a multi-cell knob grid")
	}
	if r.Offered >= r.Total {
		t.Errorf("pre-pruning should shrink the envelope's input: offered %d of %d", r.Offered, r.Total)
	}
	if r.Offered+r.PrePruned != r.Total {
		t.Errorf("offered %d + pre-pruned %d != total %d", r.Offered, r.PrePruned, r.Total)
	}
}

func TestStreamParallelMatchesSerial(t *testing.T) {
	g := Grid{
		MACArrays: []int{1, 2, 4, 8, 16, 32, 64},
		SRAMMB:    []float64{1, 4, 16, 64},
		VDDScales: []float64{1.0, 0.9},
		Nodes:     []string{"7nm", "5nm"},
	}
	task := paperTask(t, "AI (5 kernels)")
	serial, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, StreamOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, StreamOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Kept() != parallel.Kept() || serial.Total != parallel.Total {
		t.Fatalf("worker count changed results: serial kept %d/%d, parallel %d/%d",
			serial.Kept(), serial.Total, parallel.Kept(), parallel.Total)
	}
	for i := range serial.Space.Points {
		s, p := serial.Space.Points[i], parallel.Space.Points[i]
		if s.Config.ID != p.Config.ID || s.Delay != p.Delay || s.Energy != p.Energy || s.Embodied != p.Embodied {
			t.Fatalf("survivor %d differs across worker counts: %+v vs %+v", i, s, p)
		}
	}
}

func TestStreamMultiTaskSharesEvaluation(t *testing.T) {
	g := Grid{MACArrays: []int{1, 4, 16}, SRAMMB: []float64{1, 8}}
	tasks := []workload.Task{paperTask(t, "XR (5 kernels)"), paperTask(t, "AI (5 kernels)")}
	memo := NewMemoCache(0)
	rs, err := EvaluateStreamTasks(context.Background(), tasks, g, carbon.FabCoal, 380, StreamOptions{Workers: 1, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("got %d results for 2 tasks", len(rs))
	}
	for ti, task := range tasks {
		solo, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, StreamOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if rs[ti].Kept() != solo.Kept() {
			t.Fatalf("task %q: multi-task kept %d, solo kept %d", task.Name, rs[ti].Kept(), solo.Kept())
		}
		for i := range solo.Space.Points {
			a, b := rs[ti].Space.Points[i], solo.Space.Points[i]
			if a.Config.ID != b.Config.ID || a.Delay != b.Delay || a.Energy != b.Energy {
				t.Fatalf("task %q survivor %d differs between multi and solo runs", task.Name, i)
			}
		}
	}
	// One profile per (kernel, shape): the union of both tasks is 10
	// kernels over 6 shapes.
	if got := memo.Len(); got != 60 {
		t.Errorf("memo holds %d profiles, want 60 (10 kernels × 6 shapes)", got)
	}
	hits, misses := memo.Stats()
	if misses != 60 {
		t.Errorf("memo misses = %d, want exactly one per (kernel, shape)", misses)
	}
	if hits != 0 {
		// Single worker computes each shape's profiles once; a second run
		// over the same memo must hit every time.
		t.Errorf("unexpected memo hits on first run: %d", hits)
	}
	if _, err := EvaluateStreamTasks(context.Background(), tasks, g, carbon.FabCoal, 380, StreamOptions{Workers: 1, Memo: memo}); err != nil {
		t.Fatal(err)
	}
	hits2, misses2 := memo.Stats()
	if misses2 != misses || hits2 != 60 {
		t.Errorf("second run over shared memo: hits %d misses %d, want 60 hits, %d misses", hits2, misses2, misses)
	}
}

func TestStreamContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EvaluateStream(ctx, paperTask(t, "All kernels"), fig8Grid(), carbon.FabCoal, 380, StreamOptions{Workers: 2})
	if err == nil {
		t.Fatal("cancelled context did not abort the stream")
	}
}

func TestStreamInputValidation(t *testing.T) {
	task := paperTask(t, "All kernels")
	if _, err := EvaluateStream(context.Background(), task, Grid{}, carbon.FabCoal, 380, StreamOptions{}); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := EvaluateStream(context.Background(), task, fig8Grid(), carbon.FabCoal, -1, StreamOptions{}); err == nil {
		t.Error("negative CI accepted")
	}
	if _, err := EvaluateStreamTasks(context.Background(), nil, fig8Grid(), carbon.FabCoal, 380, StreamOptions{}); err == nil {
		t.Error("no tasks accepted")
	}
}

func TestShapeProfileReplayBitwise(t *testing.T) {
	// The memoized replay path must reproduce the direct simulator path
	// bitwise for every kernel, on nominal and knob-scaled configs alike.
	g := Grid{MACArrays: []int{1, 16, 256}, SRAMMB: []float64{1, 192}, VDDScales: []float64{1.0, 0.75}, Nodes: []string{"7nm", "28nm"}}
	configs, _, err := g.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range configs {
		for _, id := range nn.AllKernels() {
			sp, err := c.ShapeProfile(id)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := c.KernelCost(id)
			if err != nil {
				t.Fatal(err)
			}
			replay := sp.Cost(c)
			if replay != direct {
				t.Fatalf("config %s kernel %s: replay %+v != direct %+v", c.ID, id, replay, direct)
			}
		}
	}
}

// TestEnergyReuseAcrossMACCounts: priceShape reuses each SRAM size's
// dynamic energies across MAC counts while its table fits maxEnergyTable
// and runs the fused replay above it. Two grids differing only in the
// length of the V_DD axis land on either side of the bound; both carry the
// Models and partition axes (two memory classes) and more distinct clocks
// than the replay caches rows for. On each, every point evalShape prices,
// and the stream's envelope and aggregates, equal EvaluateGrid's.
func TestEnergyReuseAcrossMACCounts(t *testing.T) {
	// Five short kernels keep the naive oracle over ~10⁵ points fast.
	task := workload.Task{Name: "short kernels", Calls: map[nn.KernelID]float64{
		nn.JLP: 3, nn.EFAN: 1, nn.ET: 2, nn.DN: 1, nn.Agg3D: 5,
	}}
	grid := func(vdds int) Grid {
		g := Grid{
			MACArrays:    []int{2, 16},
			SRAMMB:       []float64{0.5, 64},
			Nodes:        []string{"7nm", "3nm"},
			Models:       []string{"act", "stacked-3d"},
			Integrations: []string{"monolithic", "3d"},
		}
		for i := 0; i < vdds; i++ {
			g.VDDScales = append(g.VDDScales, 0.6+0.4*float64(i)/float64(vdds))
		}
		return g
	}
	for _, c := range []struct {
		name  string
		vdds  int
		table bool
	}{
		{"under the bound", 100, true},
		{"above the bound", 3300, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if !c.table && testing.Short() {
				t.Skip("a 10⁵-point naive oracle")
			}
			g := grid(c.vdds)
			cg, err := g.compile()
			if err != nil {
				t.Fatal(err)
			}
			se, err := newShapeEval(cg, []workload.Task{task}, NewMemoCache(0), carbon.FabTaiwan, nil)
			if err != nil {
				t.Fatal(err)
			}
			bytes := len(g.SRAMMB) * len(cg.costReps) * len(se.kernels) * 8
			if fits := bytes <= maxEnergyTable; fits != c.table || 2*c.vdds <= 128 {
				t.Fatalf("grid's table is %d B against the %d B bound (fits %v, want %v), %d clocks",
					bytes, maxEnergyTable, fits, c.table, 2*c.vdds)
			}
			naive, err := EvaluateGrid(task, g, carbon.FabTaiwan, 200)
			if err != nil {
				t.Fatal(err)
			}
			sc := newEvalScratch(se)
			buf := make([][]Point, 1)
			for si := 0; si < cg.shapes(); si++ {
				if err := evalShape(se, si, sc, buf); err != nil {
					t.Fatal(err)
				}
				for ci, got := range buf[0] {
					want := naive.Points[si*len(cg.cells)+ci]
					if got.Delay != want.Delay || got.Energy != want.Energy || got.Embodied != want.Embodied ||
						got.Area != want.Area || got.Model != want.Model {
						t.Fatalf("point %s: batched %+v != naive %+v", want.Config.ID, got, want)
					}
				}
			}
			if (sc.energy != nil) != c.table {
				t.Fatalf("energy table in use: %v, want %v", sc.energy != nil, c.table)
			}
			r, err := EvaluateStream(context.Background(), task, g, carbon.FabTaiwan, 200, StreamOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			checkStreamMatchesNaive(t, r, naive)
		})
	}
}

func TestMemoCacheBoundAndConcurrency(t *testing.T) {
	memo := NewMemoCache(4)
	var wg sync.WaitGroup
	configs := []accel.Config{
		accel.New("a", 1, 1<<20),
		accel.New("b", 2, 1<<20),
		accel.New("c", 4, 1<<20),
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := configs[i%len(configs)]
				if _, err := memo.Profile(c, nn.AllKernels()[i%3]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if memo.Len() > 4 {
		t.Errorf("memo exceeded its bound: %d entries > 4", memo.Len())
	}
	hits, misses := memo.Stats()
	if hits+misses != 8*50 {
		t.Errorf("hit+miss = %d, want %d", hits+misses, 8*50)
	}
}
