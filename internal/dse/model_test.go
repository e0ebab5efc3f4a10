package dse

import (
	"context"
	"testing"

	"cordoba/internal/accel"
	"cordoba/internal/carbon"
)

func TestGridModelsAxis(t *testing.T) {
	g := Grid{MACArrays: []int{16}, SRAMMB: []float64{8}, Models: []string{"act", "chiplet"}}
	if got := g.Size(); got != 2 {
		t.Fatalf("Size with 2 models = %d, want 2", got)
	}
	cg, err := g.compile()
	if err != nil {
		t.Fatal(err)
	}
	_, c0 := cg.at(0)
	_, c1 := cg.at(1)
	if c0.modelName != "act" || c1.modelName != "chiplet" {
		t.Fatalf("model cell order: %q, %q, want act, chiplet", c0.modelName, c1.modelName)
	}
	if c0.model == nil || c1.model == nil {
		t.Fatal("named model axis must compile to non-nil backends")
	}

	// Empty axis keeps the pre-knob cells: nil model, blank name.
	plain, err := Grid{MACArrays: []int{16}, SRAMMB: []float64{8}}.compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, cell := plain.at(0); cell.model != nil || cell.modelName != "" {
		t.Fatalf("default grid cell should be unlabeled, got %+v", cell)
	}

	// Unknown names are rejected at compile time.
	bad := Grid{MACArrays: []int{16}, SRAMMB: []float64{8}, Models: []string{"magic"}}
	if _, err := bad.compile(); err == nil {
		t.Error("unknown model name should fail compile")
	}
}

// The default accounting (nil model, nil yield) must reproduce the direct
// per-layer path bit for bit, and an explicit ACT/Murphy selection must only
// add the Model label.
func TestEvaluateWithZeroValueIsEvaluate(t *testing.T) {
	task := paperTask(t, "AI (5 kernels)")
	configs := accel.Grid()[:12]
	proc := carbon.Process7nm()
	ctx := context.Background()

	base := &Space{}
	for _, c := range configs {
		pt, err := evalPointAcct(task, c, proc, carbon.FabCoal, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		base.Points = append(base.Points, pt)
	}
	zero, err := Evaluate(ctx, task, configs, proc, carbon.FabCoal, 380, nil, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Evaluate(ctx, task, configs, proc, carbon.FabCoal, 380,
		carbon.ACTModel{}, StreamOptions{Yield: carbon.MurphyYield{}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Points {
		if zero.Points[i] != base.Points[i] {
			t.Fatalf("point %d: zero-value accounting diverged:\n got %+v\nwant %+v", i, zero.Points[i], base.Points[i])
		}
		if base.Points[i].Model != "" {
			t.Fatalf("point %d: default path must leave Model blank, got %q", i, base.Points[i].Model)
		}
		e := explicit.Points[i]
		if e.Model != "act" {
			t.Fatalf("point %d: explicit ACT should label the point, got %q", i, e.Model)
		}
		e.Model = ""
		if e != base.Points[i] {
			t.Fatalf("point %d: explicit ACT/Murphy moved a value:\n got %+v\nwant %+v", i, explicit.Points[i], base.Points[i])
		}
	}
}

// Swapping the accounting backend moves only the embodied axis of each point.
func TestEvaluateWithAlternativeBackend(t *testing.T) {
	task := paperTask(t, "AI (5 kernels)")
	configs := accel.Grid()[:12]
	proc := carbon.Process7nm()

	ctx := context.Background()
	base, err := Evaluate(ctx, task, configs, proc, carbon.FabCoal, 380, nil, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := Evaluate(ctx, task, configs, proc, carbon.FabCoal, 380, carbon.ChipletModel{}, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := range base.Points {
		b, c := base.Points[i], ch.Points[i]
		if c.Model != "chiplet" {
			t.Fatalf("point %d: Model = %q, want chiplet", i, c.Model)
		}
		if c.Delay != b.Delay || c.Energy != b.Energy || c.Area != b.Area {
			t.Fatalf("point %d: backend choice must not touch performance: %+v vs %+v", i, c, b)
		}
		if c.Embodied != b.Embodied {
			moved++
		}
	}
	if moved == 0 {
		t.Error("chiplet backend left every embodied value unchanged")
	}
}

// The model axis flows through the streaming engine identically to the naive
// materialize-and-evaluate path, and points carry their backend label.
func TestStreamMatchesNaiveModelGrid(t *testing.T) {
	task := paperTask(t, "AI (5 kernels)")
	g := Grid{
		MACArrays: []int{16, 64},
		SRAMMB:    []float64{8},
		Models:    []string{"act", "chiplet", "stacked-3d"},
	}
	naive, err := EvaluateGrid(task, g, carbon.FabCoal, 380)
	if err != nil {
		t.Fatal(err)
	}
	if len(naive.Points) != 6 {
		t.Fatalf("naive grid = %d points, want 6", len(naive.Points))
	}
	for i, p := range naive.Points {
		want := g.Models[i%len(g.Models)]
		if p.Model != want {
			t.Errorf("point %d: Model = %q, want %q (models innermost)", i, p.Model, want)
		}
	}

	res, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 6 {
		t.Fatalf("stream evaluated %d points, want 6", res.Total)
	}
	// Every streamed survivor must be bitwise-identical to its naive twin.
	byID := map[string]Point{}
	for _, p := range naive.Points {
		byID[p.Config.ID] = p
	}
	for _, p := range res.Space.Points {
		if tw, ok := byID[p.Config.ID]; !ok || p != tw {
			t.Errorf("streamed %s diverged from naive:\n got %+v\nwant %+v", p.Config.ID, p, tw)
		}
	}
	// Same-shape points differ only in embodied carbon, so for each shape
	// the envelope must keep the cheapest backend and drop the rest.
	valid := map[string]bool{"act": true, "chiplet": true, "stacked-3d": true}
	for _, p := range res.Space.Points {
		if !valid[p.Model] {
			t.Errorf("survivor %s carries unknown backend label %q", p.Config.ID, p.Model)
		}
		for _, tw := range naive.Points {
			if tw.Config.MACArrays == p.Config.MACArrays && tw.Config.SRAM == p.Config.SRAM &&
				tw.Embodied < p.Embodied {
				t.Errorf("survivor %s (%s, %v) beaten by dropped %s (%s, %v) of the same shape",
					p.Config.ID, p.Model, p.Embodied, tw.Config.ID, tw.Model, tw.Embodied)
			}
		}
	}
}

// A named yield model in StreamOptions rederates every cell.
func TestStreamYieldOption(t *testing.T) {
	task := paperTask(t, "AI (5 kernels)")
	g := Grid{MACArrays: []int{256}, SRAMMB: []float64{192}} // biggest die
	base, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	be, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380,
		CheckpointOptions{StreamOptions: StreamOptions{Yield: carbon.BoseEinsteinYield{CriticalLayers: 10}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Space.Points) != 1 || len(be.Space.Points) != 1 {
		t.Fatal("single-point grid should survive whole")
	}
	if !(be.Space.Points[0].Embodied > base.Space.Points[0].Embodied) {
		t.Errorf("Bose-Einstein yield should raise embodied: %v vs %v",
			be.Space.Points[0].Embodied, base.Space.Points[0].Embodied)
	}
}
