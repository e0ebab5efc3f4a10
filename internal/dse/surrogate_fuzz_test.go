package dse

import (
	"context"
	"encoding/json"
	"testing"

	"cordoba/internal/carbon"
)

// fuzzLattice is the 12-point golden lattice (3 MAC arrays × 2 SRAM × 2
// V_DD). Budgets below 12 stop the search short of the whole grid, so it
// runs adaptive generations and emits checkpoints.
func fuzzLattice() Grid {
	return Grid{MACArrays: []int{1, 8, 32}, SRAMMB: []float64{2, 16}, VDDScales: []float64{0.8, 1.0}}
}

func fuzzLatticeOptions(budget uint8) SurrogateOptions {
	return SurrogateOptions{Seed: 1, Budget: int64(budget), Population: 2, StreamOptions: StreamOptions{Workers: 2}}
}

// FuzzSurrogateCheckpoint resumes arbitrary checkpoint JSON on the 12-point
// lattice. The seed corpus is every checkpoint of real runs at budgets 9–11,
// each of which resumes cleanly. Whatever the bytes, the resume either
// returns an error or a result that keeps the search's contract — every
// envelope point was truly evaluated, and no more evaluations were paid
// than the budget allows — and it never panics (a panic in an evaluation
// worker would take the whole daemon down).
func FuzzSurrogateCheckpoint(f *testing.F) {
	task := paperTask(f, "All kernels")
	memo := NewMemoCache(0)
	resume := func(budget uint8, data []byte) (*SurrogateResult, error) {
		var cp SurrogateCheckpoint
		if err := json.Unmarshal(data, &cp); err != nil {
			return nil, err
		}
		o := fuzzLatticeOptions(budget)
		o.Resume = &cp
		o.Memo = memo
		return EvaluateSurrogate(context.Background(), task, fuzzLattice(), carbon.FabCoal, 380, o)
	}

	for budget := uint8(9); budget <= 11; budget++ {
		var cps [][]byte
		o := fuzzLatticeOptions(budget)
		o.Every = 1
		o.OnCheckpoint = func(cp *SurrogateCheckpoint) error {
			b, err := json.Marshal(cp)
			cps = append(cps, b)
			return err
		}
		if _, err := EvaluateSurrogate(context.Background(), task, fuzzLattice(), carbon.FabCoal, 380, o); err != nil {
			f.Fatal(err)
		}
		if len(cps) == 0 {
			f.Fatalf("budget %d: the search emitted no checkpoint", budget)
		}
		for _, b := range cps {
			if _, err := resume(budget, b); err != nil {
				f.Fatalf("budget %d: a real checkpoint does not resume: %v", budget, err)
			}
			f.Add(budget, b)
		}
	}

	f.Fuzz(func(t *testing.T, budget uint8, data []byte) {
		r, err := resume(budget, data)
		if err != nil {
			return
		}
		if r.Evaluations > r.Budget || r.Evaluations != int64(len(r.Evaluated)) {
			t.Fatalf("resume paid %d evaluations (%d listed) on a budget of %d", r.Evaluations, len(r.Evaluated), r.Budget)
		}
		evaluated := make(map[int64]bool, len(r.Evaluated))
		for _, id := range r.Evaluated {
			evaluated[id] = true
		}
		for _, id := range r.IDs {
			if !evaluated[id] {
				t.Fatalf("envelope id %d was never evaluated", id)
			}
		}
	})
}
