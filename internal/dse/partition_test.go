package dse

import (
	"context"
	"fmt"
	"testing"

	"cordoba/internal/carbon"
	"cordoba/internal/workload"
)

// partitionGrid returns a small grid exercising every partition axis.
func partitionGrid() Grid {
	return Grid{
		MACArrays:    []int{4, 16},
		SRAMMB:       []float64{2, 8},
		Integrations: []string{"monolithic", "2.5d", "3d"},
		Chiplets:     []int{2, 4},
		ChipletNodes: []string{"14nm"},
	}
}

func TestPartitionGridCompile(t *testing.T) {
	g := partitionGrid()
	if got := g.Size(); got != 2*2*3*2*1 {
		t.Fatalf("Size = %d, want 24", got)
	}
	cg, err := g.compile()
	if err != nil {
		t.Fatal(err)
	}
	// One (V_DD, node) pair; cells sweep integration (outer) then chiplets
	// then chiplet node (innermost): mono, mono, 2.5d/2, 2.5d/4, 3d/2, 3d/4.
	if len(cg.cells) != 6 {
		t.Fatalf("compiled %d cells, want 6", len(cg.cells))
	}
	for i, want := range []struct {
		integ string
		chip  int
		model string
	}{
		{"", 2, ""}, {"", 4, ""},
		{"2.5d", 2, "chiplet"}, {"2.5d", 4, "chiplet"},
		{"3d", 2, "stacked-3d"}, {"3d", 4, "stacked-3d"},
	} {
		cell := cg.cells[i]
		if cell.partition.Integration != want.integ || cell.modelName != want.model {
			t.Errorf("cell %d: integration/model = %q/%q, want %q/%q",
				i, cell.partition.Integration, cell.modelName, want.integ, want.model)
		}
		if want.integ == "" {
			// Monolithic cells ignore the other partition knobs entirely:
			// the zero partition keeps them on the historical code path.
			if cell.partition != (cg.cells[0].partition) {
				t.Errorf("cell %d: monolithic partition not zero: %+v", i, cell.partition)
			}
			continue
		}
		if cell.partition.Chiplets != want.chip || cell.partition.ChipletNode != "14nm" {
			t.Errorf("cell %d: chiplets/node = %d/%q, want %d/14nm",
				i, cell.partition.Chiplets, cell.partition.ChipletNode, want.chip)
		}
		// 14 nm silicon is larger per transistor than the grid's 7 nm cells,
		// so moving the memory die onto it must scale its area up.
		if cell.partition.MemAreaScale <= 1 {
			t.Errorf("cell %d: 14nm-on-7nm MemAreaScale = %v, want > 1", i, cell.partition.MemAreaScale)
		}
	}
	// Configs materialized from partitioned cells carry the partition.
	c, _ := cg.at(2) // first 2.5d cell of shape 0
	if !c.Partition.Active() || c.Partition.Chiplets != 2 {
		t.Fatalf("materialized config partition = %+v, want active 2.5d x2", c.Partition)
	}
	// The two monolithic cells are embodied-equivalent (same zero partition);
	// each partitioned cell is its own class: 1 + 4 distinct classes.
	if cg.embClasses != 5 {
		t.Errorf("embClasses = %d, want 5 (1 monolithic + 4 partitioned)", cg.embClasses)
	}
}

func TestPartitionGridValidation(t *testing.T) {
	base := func() Grid {
		return Grid{MACArrays: []int{4}, SRAMMB: []float64{2}}
	}
	cases := map[string]func(g *Grid){
		"duplicate integration": func(g *Grid) { g.Integrations = []string{"2.5d", "2.5d"} },
		"duplicate mono forms":  func(g *Grid) { g.Integrations = []string{"monolithic", ""} },
		"duplicate chiplets":    func(g *Grid) { g.Integrations = []string{"2.5d"}; g.Chiplets = []int{4, 4} },
		"duplicate chiplet node": func(g *Grid) {
			g.Integrations = []string{"2.5d"}
			g.ChipletNodes = []string{"14nm", "14nm"}
		},
		"duplicate mac axis":  func(g *Grid) { g.MACArrays = []int{4, 4} },
		"duplicate sram axis": func(g *Grid) { g.SRAMMB = []float64{2, 2} },
		"unknown integration": func(g *Grid) { g.Integrations = []string{"5d"} },
		"unknown chiplet node": func(g *Grid) {
			g.Integrations = []string{"2.5d"}
			g.ChipletNodes = []string{"6nm"}
		},
		"unknown carrier":               func(g *Grid) { g.Integrations = []string{"2.5d"}; g.Carrier = "glass" },
		"chiplets without integrations": func(g *Grid) { g.Chiplets = []int{4} },
		"chiplets on monolithic only":   func(g *Grid) { g.Integrations = []string{"monolithic"}; g.Chiplets = []int{4} },
		"negative chiplets":             func(g *Grid) { g.Integrations = []string{"3d"}; g.Chiplets = []int{-1} },
		"chiplets above cap":            func(g *Grid) { g.Integrations = []string{"3d"}; g.Chiplets = []int{65} },
		"unsupported model-integration pair": func(g *Grid) {
			g.Models = []string{"act"}
			g.Integrations = []string{"2.5d"}
		},
	}
	for name, mutate := range cases {
		g := base()
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, g)
		}
	}

	ok := base()
	ok.Integrations = []string{"monolithic", "2.5d"}
	ok.Chiplets = []int{4}
	ok.Carrier = "emib"
	if err := ok.Validate(); err != nil {
		t.Errorf("valid partition grid rejected: %v", err)
	}
	// A model axis crossed with integrations every backend supports is fine:
	// every listed backend prices monolithic specs.
	multi := base()
	multi.Models = []string{"act", "chiplet", "stacked-3d"}
	multi.Integrations = []string{"monolithic"}
	if err := multi.Validate(); err != nil {
		t.Errorf("monolithic model sweep rejected: %v", err)
	}
}

// TestStreamMatchesNaivePartitionGrid holds the streaming engine to the
// materialize-everything baseline over a grid with every partition axis
// active — the oracle that partition pricing, D2D penalties, and the
// embodied-class sharing all agree with the simple path.
func TestStreamMatchesNaivePartitionGrid(t *testing.T) {
	g := Grid{
		MACArrays:    []int{1, 4, 16},
		SRAMMB:       []float64{1, 8},
		VDDScales:    []float64{1.0, 0.85},
		Nodes:        []string{"7nm", "3nm"},
		Integrations: []string{"monolithic", "2.5d", "3d"},
		Chiplets:     []int{2, 4},
		ChipletNodes: []string{"14nm"},
		Carrier:      "silicon-interposer",
	}
	task := paperTask(t, "XR (5 kernels)")
	naive, err := EvaluateGrid(task, g, carbon.FabTaiwan, 200)
	if err != nil {
		t.Fatal(err)
	}
	r, err := EvaluateStream(context.Background(), task, g, carbon.FabTaiwan, 200, StreamOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkStreamMatchesNaive(t, r, naive)
}

// TestStreamMatchesNaiveModelPartitionGrid crosses a Models axis with the
// partition axes, so many cells share each kernel-cost class (the Models,
// chiplet-count and chiplet-node axes never enter the roofline) while their
// embodied carbon differs. The batched per-class replay must still agree
// with the materialize-everything baseline point for point.
func TestStreamMatchesNaiveModelPartitionGrid(t *testing.T) {
	g := Grid{
		MACArrays:    []int{2, 16},
		SRAMMB:       []float64{0.5, 8, 64},
		VDDScales:    []float64{1.0, 0.85},
		Nodes:        []string{"7nm", "3nm"},
		Models:       []string{"act", "stacked-3d"},
		Integrations: []string{"monolithic", "3d"},
		Chiplets:     []int{2, 4},
		ChipletNodes: []string{"10nm", "14nm"},
	}
	cg, err := g.compile()
	if err != nil {
		t.Fatal(err)
	}
	// (V_DD, node, integration) decide the pricing; the other three axes
	// only multiply the cells.
	if got, want := len(cg.costReps), 2*2*2; got != want {
		t.Fatalf("%d cost classes over %d cells, want %d", got, len(cg.cells), want)
	}
	for i := range cg.cells {
		rep := &cg.cells[cg.costReps[cg.cells[i].costClass]]
		c := &cg.cells[i]
		if c.clockR != rep.clockR || c.energyR != rep.energyR || c.partition.Integration != rep.partition.Integration {
			t.Fatalf("cell %d shares cost class %d with a cell of different pricing inputs", i, c.costClass)
		}
	}

	task := paperTask(t, "XR (5 kernels)")
	naive, err := EvaluateGrid(task, g, carbon.FabTaiwan, 200)
	if err != nil {
		t.Fatal(err)
	}
	r, err := EvaluateStream(context.Background(), task, g, carbon.FabTaiwan, 200, StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkStreamMatchesNaive(t, r, naive)

	// Every evaluated point, not just the survivors, is bit-identical.
	se, err := newShapeEval(cg, []workload.Task{task}, NewMemoCache(0), carbon.FabTaiwan, nil)
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
}

// TestPartitionEnvelopeKeepsChipletDesigns: on a die large enough for yield
// splitting to matter, at least one partitioned design must survive the
// ever-optimal envelope — partitioning is a real axis, not dominated noise.
func TestPartitionEnvelopeKeepsChipletDesigns(t *testing.T) {
	g := Grid{
		MACArrays:    []int{64},
		SRAMMB:       []float64{64},
		Integrations: []string{"monolithic", "2.5d", "3d"},
		Chiplets:     []int{4},
		ChipletNodes: []string{"14nm"},
	}
	task := paperTask(t, "AI (5 kernels)")
	r, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, StreamOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	partitioned := false
	for _, p := range r.Space.Points {
		if p.Config.Partition.Active() {
			partitioned = true
		}
	}
	if !partitioned {
		t.Fatalf("no partitioned design survived the envelope: %+v", r.Space.IDs(r.Space.EverOptimal()))
	}
}

// TestShardedPartitionGridMatchesUnsharded: the distributed-DSE algebra must
// hold with partition axes active — shard planning counts shapes, and every
// partition cell of a shape travels with it, so any contiguous partition of
// the shape range merges back to the single-node run exactly.
func TestShardedPartitionGridMatchesUnsharded(t *testing.T) {
	g := partitionGrid()
	g.Carrier = "emib"
	task := paperTask(t, "AI (5 kernels)")
	want, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, sizes := range [][]int{{4}, {2, 2}, {1, 3}, {1, 1, 1, 1}} {
		var (
			results []*StreamResult
			first   int
		)
		for _, n := range sizes {
			opt := CheckpointOptions{
				StreamOptions: StreamOptions{Workers: 2},
				Shard:         &ShardRange{First: first, Count: n},
			}
			r, err := EvaluateStreamCheckpointed(context.Background(), task, g, carbon.FabCoal, 380, opt)
			if err != nil {
				t.Fatalf("shard [%d,%d): %v", first, first+n, err)
			}
			results = append(results, r)
			first += n
		}
		merged, err := MergeShardResults(results)
		if err != nil {
			t.Fatalf("partition %v: %v", sizes, err)
		}
		sameMerged(t, fmt.Sprintf("shards %v", sizes), merged, want)
	}
}
