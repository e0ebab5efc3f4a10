package dse

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"cordoba/internal/accel"
	"cordoba/internal/carbon"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

// mutatedGrid returns the Fig. 8 grid with one simulator constant scaled on
// every configuration.
func mutatedGrid(mutate func(*accel.Params)) []accel.Config {
	grid := accel.Grid()
	for i := range grid {
		mutate(&grid[i].Params)
	}
	return grid
}

// TestEvaluateMatchesDirectPath holds the list evaluator bit-identical to
// the direct per-layer path (evalPointAcct) on the paper's lists — the
// Fig. 8 grid, the §VI-E stacked configurations, and the grid under
// mutated simulator constants (two that enter the memo key and two that do
// not) — for every paper task and the XR gaming session, under each
// embodied-carbon backend and a non-Murphy yield model, with a cold private
// memo and a shared warm one, at several worker counts.
func TestEvaluateMatchesDirectPath(t *testing.T) {
	lists := []struct {
		name    string
		configs []accel.Config
	}{
		{"grid", accel.Grid()},
		{"stacked3d", accel.Stacked3D()},
		{"grid/ConvUtil", mutatedGrid(func(p *accel.Params) { p.ConvUtil *= 0.9 })},
		{"grid/TilingPenalty", mutatedGrid(func(p *accel.Params) { p.TilingPenalty *= 1.5 })},
		{"grid/Clock", mutatedGrid(func(p *accel.Params) { p.Clock *= 1.25 })},
		{"grid/DRAMBW", mutatedGrid(func(p *accel.Params) { p.DRAMBW *= 0.5 })},
	}
	tasks := append(workload.PaperTasks(), workload.XRGamingSession())
	accts := []struct {
		model carbon.Model
		yield carbon.YieldModel
	}{
		{nil, nil},
		{carbon.ChipletModel{}, nil},
		{carbon.Stacked3DModel{}, nil},
		{nil, carbon.PoissonYield{}},
	}
	proc := carbon.Process7nm()
	ctx := context.Background()
	shared := NewMemoCache(0)

	for _, l := range lists {
		for _, task := range tasks {
			for _, acct := range accts {
				name := fmt.Sprintf("%s/%s/%v/%v", l.name, task.Name, acct.model, acct.yield)
				want := make([]Point, len(l.configs))
				for i, c := range l.configs {
					var err error
					if want[i], err = evalPointAcct(task, c, proc, carbon.FabCoal, acct.model, acct.yield); err != nil {
						t.Fatalf("%s: direct path: %v", name, err)
					}
				}
				for _, workers := range []int{1, 2, 8} {
					for _, memo := range []*MemoCache{nil, shared} {
						_, missesBefore := shared.Stats()
						got, err := Evaluate(ctx, task, l.configs, proc, carbon.FabCoal, 380, acct.model,
							StreamOptions{Workers: workers, Memo: memo, Yield: acct.yield})
						if err != nil {
							t.Fatalf("%s workers=%d: %v", name, workers, err)
						}
						for i := range want {
							if got.Points[i] != want[i] {
								t.Fatalf("%s workers=%d shared=%v: point %d drifted from the direct path:\n got %+v\nwant %+v",
									name, workers, memo != nil, i, got.Points[i], want[i])
							}
						}
						if _, missesAfter := shared.Stats(); memo != nil && workers > 1 && missesAfter != missesBefore {
							t.Fatalf("%s workers=%d: warm shared memo missed %d profiles", name, workers, missesAfter-missesBefore)
						}
					}
				}
			}
		}
	}
}

// A memo hit on an equal ShapeKey must not let an invalid configuration
// through: the 3D configuration without memory dies shares its key with a
// valid 2D one already in the memo.
func TestEvaluateValidatesOnMemoHit(t *testing.T) {
	task := paperTask(t, workload.TaskAI5)
	memo := NewMemoCache(0)
	ctx := context.Background()
	valid := accel.New("flat", 16, units.MB(8))
	if _, err := Evaluate(ctx, task, []accel.Config{valid}, carbon.Process7nm(), carbon.FabCoal, 380, nil, StreamOptions{Memo: memo}); err != nil {
		t.Fatal(err)
	}
	bad := valid
	bad.ID, bad.Is3D, bad.MemDies = "stacked", true, 0
	if bad.ShapeKey() != valid.ShapeKey() {
		t.Fatal("test premise: the invalid configuration must share the cached ShapeKey")
	}
	_, err := Evaluate(ctx, task, []accel.Config{bad}, carbon.Process7nm(), carbon.FabCoal, 380, nil, StreamOptions{Memo: memo})
	if err == nil || !strings.Contains(err.Error(), "memory die") {
		t.Fatalf("invalid config on a memo hit: err = %v, want the validation error", err)
	}
}

// A cancelled context fails the evaluation; it never yields a partial space.
func TestEvaluateCancelled(t *testing.T) {
	task := paperTask(t, workload.TaskAllKernels)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := Evaluate(ctx, task, accel.Grid(), carbon.Process7nm(), carbon.FabCoal, 380, nil, StreamOptions{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s != nil {
		t.Fatalf("cancelled evaluation returned a space of %d points", len(s.Points))
	}
}
