package dse

import (
	"context"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"cordoba/internal/carbon"
)

// refGrid105k is the 10⁵-point reference knob grid (50×30 shapes × 10 V_DD
// × 7 nodes = 105 000 configurations) — the same shape as the repo-level
// streaming benchmark grid, checked in here so the oracle-equivalence bar is
// pinned against a stable space.
func refGrid105k() Grid {
	macs := make([]int, 50)
	for i := range macs {
		macs[i] = 4 * (i + 1)
	}
	sram := make([]float64, 30)
	for i := range sram {
		sram[i] = 1 + 2*float64(i)
	}
	vdd := make([]float64, 10)
	for i := range vdd {
		vdd[i] = 0.55 + 0.05*float64(i)
	}
	return Grid{
		MACArrays: macs,
		SRAMMB:    sram,
		VDDScales: vdd,
		Nodes:     []string{"28nm", "20nm", "14nm", "10nm", "7nm", "5nm", "3nm"},
	}
}

// surrGrid is a mid-size grid (4 200 points) for the fast property tests.
func surrGrid() Grid {
	macs := make([]int, 10)
	for i := range macs {
		macs[i] = 8 * (i + 1)
	}
	sram := make([]float64, 12)
	for i := range sram {
		sram[i] = 1 + float64(i)
	}
	return Grid{
		MACArrays: macs,
		SRAMMB:    sram,
		VDDScales: []float64{0.7, 0.85, 1.0},
		Nodes:     []string{"14nm", "7nm", "3nm"},
		Models:    []string{"act", "chiplet"},
	}
}

// marshalSurrogate renders a result the way determinism is promised: the
// full JSON payload, byte for byte.
func marshalSurrogate(t *testing.T, r *SurrogateResult) []byte {
	t.Helper()
	b, err := json.MarshalIndent(struct {
		IDs       []int64 `json:"ids"`
		Points    []Point `json:"points"`
		Evaluated []int64 `json:"evaluated"`
		Evals     int64   `json:"evals"`
		Gens      int     `json:"gens"`
		Skipped   int64   `json:"skipped"`
		SumEDP    float64 `json:"sum_edp"`
		SumEmbD   float64 `json:"sum_embd"`
	}{r.IDs, r.Space.Points, r.Evaluated, r.Evaluations, r.Generations, r.Skipped, r.SumEDP, r.SumEmbD}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSurrogateEnvelopeIsEvaluatedSubset: every surviving point must be a
// truly evaluated grid point — the surrogate model may steer the search but
// can never place a point in the envelope.
func TestSurrogateEnvelopeIsEvaluatedSubset(t *testing.T) {
	task := paperTask(t, "All kernels")
	g := surrGrid()
	r, err := EvaluateSurrogate(context.Background(), task, g, carbon.FabCoal, 380, SurrogateOptions{
		Seed: 7, Budget: 600, StreamOptions: StreamOptions{Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Evaluations != int64(len(r.Evaluated)) {
		t.Fatalf("Evaluations = %d but %d evaluated ids", r.Evaluations, len(r.Evaluated))
	}
	if r.Evaluations > 600 {
		t.Fatalf("budget overrun: %d > 600 evaluations", r.Evaluations)
	}
	evaluated := make(map[int64]bool, len(r.Evaluated))
	for i, id := range r.Evaluated {
		if id < 0 || id >= r.GridPoints {
			t.Fatalf("evaluated id %d outside grid [0, %d)", id, r.GridPoints)
		}
		if i > 0 && r.Evaluated[i-1] >= id {
			t.Fatalf("evaluated ids not strictly ascending at %d", i)
		}
		evaluated[id] = true
	}
	if len(r.IDs) == 0 {
		t.Fatal("empty surrogate envelope")
	}
	cg, err := g.compile()
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range r.IDs {
		if !evaluated[id] {
			t.Fatalf("envelope id %d was never evaluated", id)
		}
		// Survivor payloads are bit-identical to a direct evaluation of the
		// same grid index.
		c, cell := cg.at(id)
		want, err := evalPointAcct(task, c, cell.process, carbon.FabCoal, cell.model, nil)
		if err != nil {
			t.Fatal(err)
		}
		want.Model = cell.modelName
		if got := r.Space.Points[i]; got != want {
			t.Fatalf("envelope point %d (id %d) drifted from direct evaluation:\n got %+v\nwant %+v", i, id, got, want)
		}
	}
}

// TestSurrogateFixedSeedDeterminism: same seed, same inputs → byte-identical
// results; a different seed explores differently.
func TestSurrogateFixedSeedDeterminism(t *testing.T) {
	task := paperTask(t, "All kernels")
	g := surrGrid()
	run := func(seed uint64, workers int) []byte {
		r, err := EvaluateSurrogate(context.Background(), task, g, carbon.FabCoal, 380, SurrogateOptions{
			Seed: seed, Budget: 500, StreamOptions: StreamOptions{Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		return marshalSurrogate(t, r)
	}
	a, b := run(42, 4), run(42, 1)
	if string(a) != string(b) {
		t.Fatalf("fixed seed 42 not byte-identical across runs/worker counts:\n%s\nvs\n%s", a, b)
	}
	if c := run(43, 4); string(a) == string(c) {
		t.Fatal("different seeds produced identical output — PRNG not wired through")
	}
}

// TestSurrogateCheckpointResume: interrupting the search at a checkpoint and
// resuming lands byte-identically on the uninterrupted result.
func TestSurrogateCheckpointResume(t *testing.T) {
	task := paperTask(t, "All kernels")
	g := surrGrid()
	opts := func() SurrogateOptions {
		return SurrogateOptions{Seed: 11, Budget: 500, StreamOptions: StreamOptions{Workers: 4}}
	}

	full, err := EvaluateSurrogate(context.Background(), task, g, carbon.FabCoal, 380, opts())
	if err != nil {
		t.Fatal(err)
	}
	want := marshalSurrogate(t, full)

	var cps []*SurrogateCheckpoint
	o := opts()
	o.Every = 2
	o.OnCheckpoint = func(cp *SurrogateCheckpoint) error {
		// Round-trip through JSON: resumes come from disk in production.
		b, err := json.Marshal(cp)
		if err != nil {
			return err
		}
		var back SurrogateCheckpoint
		if err := json.Unmarshal(b, &back); err != nil {
			return err
		}
		cps = append(cps, &back)
		return nil
	}
	ck, err := EvaluateSurrogate(context.Background(), task, g, carbon.FabCoal, 380, o)
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalSurrogate(t, ck); string(got) != string(want) {
		t.Fatal("checkpointing perturbed the result")
	}
	if len(cps) == 0 {
		t.Fatal("no checkpoints observed")
	}
	for i, cp := range cps {
		o := opts()
		o.Resume = cp
		resumed, err := EvaluateSurrogate(context.Background(), task, g, carbon.FabCoal, 380, o)
		if err != nil {
			t.Fatalf("resume from checkpoint %d (generation %d): %v", i, cp.Generation, err)
		}
		if got := marshalSurrogate(t, resumed); string(got) != string(want) {
			t.Fatalf("resume from generation %d diverged from the uninterrupted run", cp.Generation)
		}
	}
}

// TestSurrogateCheckpointValidation: checkpoints refuse to resume a run with
// different inputs.
func TestSurrogateCheckpointValidation(t *testing.T) {
	task := paperTask(t, "All kernels")
	g := surrGrid()
	var cp *SurrogateCheckpoint
	o := SurrogateOptions{Seed: 3, Budget: 400, Every: 1, StreamOptions: StreamOptions{Workers: 4}}
	o.OnCheckpoint = func(c *SurrogateCheckpoint) error {
		if cp == nil {
			cp = c
		}
		return nil
	}
	if _, err := EvaluateSurrogate(context.Background(), task, g, carbon.FabCoal, 380, o); err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no checkpoint observed")
	}
	cases := map[string]SurrogateOptions{
		"different seed":   {Seed: 4, Budget: 400, Resume: cp},
		"different budget": {Seed: 3, Budget: 401, Resume: cp},
		"different pop":    {Seed: 3, Budget: 400, Population: 24, Resume: cp},
	}
	for name, bad := range cases {
		if _, err := EvaluateSurrogate(context.Background(), task, g, carbon.FabCoal, 380, bad); err == nil {
			t.Errorf("%s: resume accepted a mismatched checkpoint", name)
		}
	}
	// Different task.
	if _, err := EvaluateSurrogate(context.Background(), paperTask(t, "AI (10 kernels)"), g, carbon.FabCoal, 380, SurrogateOptions{Seed: 3, Budget: 400, Resume: cp}); err == nil {
		t.Error("resume accepted a checkpoint from a different task")
	}

	// Tampered population index vectors. The search breeds from them, so an
	// off-lattice index would price a point outside the grid (a panic in an
	// evaluation worker) and an on-lattice but wrong one would silently
	// diverge from the uninterrupted run: both must be refused up front.
	tampers := map[string]func(*SurrogateCheckpoint){
		"index outside the lattice": func(c *SurrogateCheckpoint) { c.Population[0].Idx[0] = 99 }, // 10 MAC arrays
		"negative index":            func(c *SurrogateCheckpoint) { c.Population[0].Idx[1] = -1 },
		"index on an absent axis":   func(c *SurrogateCheckpoint) { c.Population[0].Idx[sgAxes-1] = 1 },
		"index not matching its id": func(c *SurrogateCheckpoint) {
			idx := &c.Population[0].Idx
			idx[0] = (idx[0] + 1) % len(g.MACArrays)
		},
		"duplicate member": func(c *SurrogateCheckpoint) { c.Population[1] = c.Population[0] },
		"empty population": func(c *SurrogateCheckpoint) { c.Population = nil },
		"evaluations over the budget": func(c *SurrogateCheckpoint) {
			// Pad the evaluated set past the 400 budget, keeping the
			// accumulator's counters consistent with it.
			listed := make(map[int64]bool, len(c.Evaluated))
			for _, id := range c.Evaluated {
				listed[id] = true
			}
			added := int64(401 - len(c.Evaluated))
			var ids []int64
			for id, extra := int64(0), int64(0); id < g.Size(); id++ {
				switch {
				case listed[id]:
					ids = append(ids, id)
				case extra < added:
					ids = append(ids, id)
					extra++
				}
			}
			c.Evaluated = ids
			c.Acc.Total += added
			c.Acc.PrePruned += added
		},
	}
	for name, tamper := range tampers {
		raw, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		var bad SurrogateCheckpoint
		if err := json.Unmarshal(raw, &bad); err != nil {
			t.Fatal(err)
		}
		tamper(&bad)
		if _, err := EvaluateSurrogate(context.Background(), task, g, carbon.FabCoal, 380, SurrogateOptions{
			Seed: 3, Budget: 400, Resume: &bad, StreamOptions: StreamOptions{Workers: 4},
		}); err == nil {
			t.Errorf("%s: resume accepted a tampered checkpoint", name)
		}
	}

	// Tampered objectives. The bookkeeping above is intact, but the search
	// ranks and breeds from X and Y: a seed-11, budget-500 checkpoint with
	// Population[0].X scaled by 1000 used to resume into a different
	// evaluated set and envelope. Resume re-prices the members and must
	// name the one that does not match.
	var first *SurrogateCheckpoint
	o = SurrogateOptions{Seed: 11, Budget: 500, Every: 1, StreamOptions: StreamOptions{Workers: 4}}
	o.OnCheckpoint = func(c *SurrogateCheckpoint) error {
		if first == nil {
			first = c
		}
		return nil
	}
	if _, err := EvaluateSurrogate(context.Background(), task, g, carbon.FabCoal, 380, o); err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("no checkpoint observed")
	}
	for name, tamper := range map[string]func(*SurrogateIndiv){
		"X scaled by 1000": func(m *SurrogateIndiv) { m.X *= 1000 },
		"Y one ulp off":    func(m *SurrogateIndiv) { m.Y = math.Nextafter(m.Y, math.Inf(1)) },
	} {
		bad := *first
		bad.Population = slices.Clone(first.Population)
		tamper(&bad.Population[0])
		_, err := EvaluateSurrogate(context.Background(), task, g, carbon.FabCoal, 380, SurrogateOptions{
			Seed: 11, Budget: 500, Resume: &bad, StreamOptions: StreamOptions{Workers: 4},
		})
		if err == nil || !strings.Contains(err.Error(), "population member 0 ") {
			t.Errorf("%s: resume returned %v, want an error naming population member 0", name, err)
		}
	}
	if _, err := EvaluateSurrogate(context.Background(), task, g, carbon.FabCoal, 380, SurrogateOptions{
		Seed: 11, Budget: 500, Resume: first, StreamOptions: StreamOptions{Workers: 4},
	}); err != nil {
		t.Fatalf("untampered checkpoint refused: %v", err)
	}
}

// TestSurrogateExhaustiveDegradation: a budget covering the whole grid must
// reproduce the exhaustive envelope exactly — the search degrades to the
// oracle, not an approximation of it.
func TestSurrogateExhaustiveDegradation(t *testing.T) {
	task := paperTask(t, "All kernels")
	g := fig8Grid() // 121 points
	oracle, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, StreamOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	r, err := EvaluateSurrogate(context.Background(), task, g, carbon.FabCoal, 380, SurrogateOptions{
		Seed: 1, Budget: g.Size(), StreamOptions: StreamOptions{Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Evaluations != g.Size() {
		t.Fatalf("evaluated %d of %d points with a full budget", r.Evaluations, g.Size())
	}
	if len(r.IDs) != len(oracle.IDs) {
		t.Fatalf("envelope sizes differ: surrogate %d, oracle %d", len(r.IDs), len(oracle.IDs))
	}
	for i := range r.IDs {
		if r.IDs[i] != oracle.IDs[i] || r.Space.Points[i] != oracle.Space.Points[i] {
			t.Fatalf("envelope diverges at %d: id %d vs %d", i, r.IDs[i], oracle.IDs[i])
		}
	}
	q := MeasureQuality(r.StreamResult, oracle)
	if q.HypervolumeRatio != 1 || q.Coverage != 1 || q.AdditiveEpsilon > 0 {
		t.Fatalf("full-budget quality not perfect: %+v", q)
	}
}

// TestSurrogateConcurrentWithExhaustive runs the surrogate search and the
// exhaustive stream at the same time over one shared memo cache — the
// server's steady state, where a surrogate job and an exhaustive request
// overlap — and checks both land on the same bytes as isolated runs. Under
// -race this doubles as the data-race proof for the shared profile cache
// and the independent envelope accumulators.
func TestSurrogateConcurrentWithExhaustive(t *testing.T) {
	task := paperTask(t, "All kernels")
	g := surrGrid()

	baseSurr, err := EvaluateSurrogate(context.Background(), task, g, carbon.FabCoal, 380, SurrogateOptions{
		Seed: 9, Budget: 400, StreamOptions: StreamOptions{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	baseOracle, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	memo := NewMemoCache(0)
	var wg sync.WaitGroup
	var surr *SurrogateResult
	var oracle *StreamResult
	var surrErr, oracleErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		surr, surrErr = EvaluateSurrogate(context.Background(), task, g, carbon.FabCoal, 380, SurrogateOptions{
			Seed: 9, Budget: 400, StreamOptions: StreamOptions{Workers: 2, Memo: memo},
		})
	}()
	go func() {
		defer wg.Done()
		oracle, oracleErr = EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, StreamOptions{Workers: 2, Memo: memo})
	}()
	wg.Wait()
	if surrErr != nil || oracleErr != nil {
		t.Fatalf("concurrent runs failed: surrogate %v, oracle %v", surrErr, oracleErr)
	}

	if got, want := marshalSurrogate(t, surr), marshalSurrogate(t, baseSurr); string(got) != string(want) {
		t.Fatal("surrogate result changed when run concurrently with the exhaustive engine")
	}
	if len(oracle.IDs) != len(baseOracle.IDs) {
		t.Fatalf("oracle envelope size changed under concurrency: %d vs %d", len(oracle.IDs), len(baseOracle.IDs))
	}
	for i := range oracle.IDs {
		if oracle.IDs[i] != baseOracle.IDs[i] || oracle.Space.Points[i] != baseOracle.Space.Points[i] {
			t.Fatalf("oracle envelope diverges at %d under concurrency", i)
		}
	}
}

// TestSurrogateOracleEquivalence105k is the acceptance bar from ROADMAP
// item 2: on the checked-in 10⁵-point reference grid, the surrogate search
// must reach ≥ 0.99 hypervolume ratio against the exhaustive oracle while
// paying ≤ 5 % (stretch: ≤ 2 %) of its evaluations.
func TestSurrogateOracleEquivalence105k(t *testing.T) {
	if testing.Short() {
		t.Skip("105k-point oracle run in -short mode")
	}
	task := paperTask(t, "All kernels")
	g := refGrid105k()
	memo := NewMemoCache(0)

	oracle, err := EvaluateStream(context.Background(), task, g, carbon.FabCoal, 380, StreamOptions{Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	r, err := EvaluateSurrogate(context.Background(), task, g, carbon.FabCoal, 380, SurrogateOptions{
		Seed: 1, StreamOptions: StreamOptions{Memo: memo},
	})
	if err != nil {
		t.Fatal(err)
	}

	frac := float64(r.Evaluations) / float64(r.GridPoints)
	if frac > 0.05 {
		t.Fatalf("surrogate paid %.2f%% of the grid, acceptance cap is 5%%", 100*frac)
	}
	if frac > 0.02 {
		t.Logf("note: %.2f%% of the grid evaluated — above the 2%% stretch goal", 100*frac)
	}
	q := MeasureQuality(r.StreamResult, oracle)
	t.Logf("surrogate: %d/%d evals (%.2f%%), %d generations, %d skipped, envelope %d/%d, HV ratio %.5f, ε %.4f, coverage %.3f",
		r.Evaluations, r.GridPoints, 100*frac, r.Generations, r.Skipped, len(r.IDs), len(oracle.IDs), q.HypervolumeRatio, q.AdditiveEpsilon, q.Coverage)
	if q.HypervolumeRatio < 0.99 {
		t.Fatalf("hypervolume ratio %.5f < 0.99 acceptance bar", q.HypervolumeRatio)
	}
	if q.HypervolumeRatio > 1+1e-9 {
		t.Fatalf("hypervolume ratio %.5f > 1: surrogate envelope is not a subset of the space", q.HypervolumeRatio)
	}
}
