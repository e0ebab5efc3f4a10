package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"cordoba/api"
	"cordoba/internal/job"
)

// surrBody is a 144-point knob grid (24 shapes × 6 cells) with a pinned seed
// and budget: large enough for several NSGA generations, small enough to run
// in milliseconds.
const surrBody = `{"task":"All kernels","search":"surrogate",` +
	`"knobs":{"mac_arrays":[1,2,4,8,16,32],"sram_mb":[1,2,4,8],"vdd_scales":[1.0,0.9,0.8],"nodes":["7nm","10nm"]},` +
	`"surrogate":{"seed":7,"budget":96,"population":8}}`

// TestDSESurrogateSync: the synchronous surrogate path answers with the
// engine's budget accounting and is deterministic across servers under the
// pinned seed.
func TestDSESurrogateSync(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: -1})
	w := do(t, s, "POST", "/v1/dse", surrBody)
	if w.Code != http.StatusOK {
		t.Fatalf("surrogate dse = %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[DSEResponse](t, w)
	if resp.Search != "surrogate" || resp.Surrogate == nil {
		t.Fatalf("response not marked surrogate: search=%q surrogate=%+v", resp.Search, resp.Surrogate)
	}
	info := resp.Surrogate
	if info.Seed != 7 || info.Budget != 96 || info.GridPoints != 144 {
		t.Fatalf("info = %+v, want seed 7 budget 96 grid 144", info)
	}
	if info.EvaluationsUsed <= 0 || info.EvaluationsUsed > info.Budget {
		t.Fatalf("evaluations_used = %d, want within (0, %d]", info.EvaluationsUsed, info.Budget)
	}
	if want := float64(info.EvaluationsUsed) / 144; math.Abs(info.EvalFraction-want) > 1e-12 {
		t.Fatalf("eval_fraction = %g, want %g", info.EvalFraction, want)
	}
	if resp.PointsStreamed != info.EvaluationsUsed {
		t.Fatalf("points_streamed = %d, want the %d true evaluations", resp.PointsStreamed, info.EvaluationsUsed)
	}
	if info.Generations <= 0 {
		t.Fatalf("generations = %d, want > 0", info.Generations)
	}
	if info.HypervolumeRatio != nil {
		t.Fatal("quality metrics present without surrogate.oracle")
	}
	if len(resp.Points) == 0 || len(resp.EverOptimal) != len(resp.Points) {
		t.Fatalf("envelope: %d points, %d ids", len(resp.Points), len(resp.EverOptimal))
	}

	// A fresh server (cold memo, no cache) answers byte-identically: the
	// fixed seed pins every stochastic choice.
	s2 := newTestServer(t, Config{CacheSize: -1})
	w2 := do(t, s2, "POST", "/v1/dse", surrBody)
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatalf("same seed, different bytes:\n%s\nvs\n%s", w.Body, w2.Body)
	}
}

// TestDSESurrogateOracle: surrogate.oracle runs the exhaustive engine too
// and reports quality; with the budget covering the whole grid the search
// degrades to the exact envelope, so every metric is perfect.
func TestDSESurrogateOracle(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{"task":"All kernels","search":"surrogate",` +
		`"knobs":{"mac_arrays":[1,4,16],"sram_mb":[2,8],"vdd_scales":[1.0,0.9],"nodes":["7nm","10nm"]},` +
		`"surrogate":{"seed":3,"budget":24,"oracle":true}}`
	w := do(t, s, "POST", "/v1/dse", body)
	if w.Code != http.StatusOK {
		t.Fatalf("oracle dse = %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[DSEResponse](t, w)
	info := resp.Surrogate
	if info == nil || info.HypervolumeRatio == nil || info.AdditiveEpsilon == nil || info.Coverage == nil {
		t.Fatalf("oracle metrics missing: %+v", info)
	}
	if *info.HypervolumeRatio != 1 || *info.Coverage != 1 || *info.AdditiveEpsilon > 1e-12 {
		t.Fatalf("budget=grid should be exact: hv=%g eps=%g cov=%g",
			*info.HypervolumeRatio, *info.AdditiveEpsilon, *info.Coverage)
	}
	if info.EvaluationsUsed != 24 {
		t.Fatalf("evaluations_used = %d, want the whole 24-point grid", info.EvaluationsUsed)
	}
}

// TestDSESurrogateAutoAboveCap: with no explicit search, a grid above
// -max-grid-points is served by the surrogate engine with the budget clamped
// to the cap — where it used to be a 400.
func TestDSESurrogateAutoAboveCap(t *testing.T) {
	s := newTestServer(t, Config{MaxGridPoints: 16})
	body := `{"task":"All kernels","knobs":{"mac_arrays":[1,2,4,8,16],"sram_mb":[1,2,4,8]}}`
	w := do(t, s, "POST", "/v1/dse", body)
	if w.Code != http.StatusOK {
		t.Fatalf("auto dse above cap = %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[DSEResponse](t, w)
	if resp.Search != "surrogate" || resp.Surrogate == nil {
		t.Fatalf("expected auto surrogate, got search=%q", resp.Search)
	}
	if resp.Surrogate.Budget != 16 || resp.Surrogate.EvaluationsUsed > 16 {
		t.Fatalf("budget not clamped to cap: %+v", resp.Surrogate)
	}
}

// TestDSESurrogateValidation pins the 400s for the new fields.
func TestDSESurrogateValidation(t *testing.T) {
	s := newTestServer(t, Config{MaxGridPoints: 64})
	knobs := `"knobs":{"mac_arrays":[1,4],"sram_mb":[2,8]}`
	tests := []struct {
		name, body, wantMsg string
	}{
		{"unknown search",
			`{"task":"All kernels","search":"genetic",` + knobs + `}`,
			"unknown search"},
		{"search without knobs",
			`{"task":"All kernels","search":"surrogate","configs":["a1"]}`,
			"search applies to knob-range requests"},
		{"surrogate without knobs",
			`{"task":"All kernels","surrogate":{"seed":1},"configs":["a1"]}`,
			"surrogate applies to knob-range requests"},
		{"surrogate with exhaustive",
			`{"task":"All kernels","search":"exhaustive","surrogate":{"seed":1},` + knobs + `}`,
			"drop it for exhaustive runs"},
		{"negative budget",
			`{"task":"All kernels","surrogate":{"budget":-1},` + knobs + `}`,
			"surrogate.budget must be non-negative"},
		{"oversized population",
			`{"task":"All kernels","surrogate":{"population":4096},` + knobs + `}`,
			"surrogate.population must be in [0, 1024]"},
		{"negative generations",
			`{"task":"All kernels","surrogate":{"generations":-2},` + knobs + `}`,
			"surrogate.generations must be non-negative"},
		{"surrogate with shard",
			`{"task":"All kernels","search":"surrogate","shard":{"first":0,"count":1},` + knobs + `}`,
			"mutually exclusive"},
		{"surrogate with shards",
			`{"task":"All kernels","surrogate":{"seed":1},"shards":2,` + knobs + `}`,
			"mutually exclusive"},
		{"budget above cap",
			`{"task":"All kernels","surrogate":{"budget":65},` + knobs + `}`,
			"above this server's cap of 64 evaluations"},
		{"oracle above cap",
			`{"task":"All kernels","search":"surrogate","surrogate":{"oracle":true,"budget":8},` +
				`"knobs":{"mac_arrays":[1,2,4,8,16],"sram_mb":[1,2,4,8],"vdd_scales":[1.0,0.9,0.8],"nodes":["7nm","10nm"]}}`,
			"surrogate.oracle also runs the exhaustive engine"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := do(t, s, "POST", "/v1/dse", tt.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", w.Code, w.Body)
			}
			env := decodeBody[errEnvelope](t, w)
			if !strings.Contains(env.Error.Message, tt.wantMsg) {
				t.Fatalf("message %q does not contain %q", env.Error.Message, tt.wantMsg)
			}
		})
	}
}

// TestSurrogateJobLifecycle: the async form routes to the dse-surrogate job
// kind, reports budget-based progress, exposes the surrogate counters, and
// its result is byte-identical to the synchronous endpoint.
func TestSurrogateJobLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	st := submitJob(t, s, surrBody)
	if st.Kind != "dse-surrogate" {
		t.Fatalf("kind = %q, want dse-surrogate", st.Kind)
	}
	fin := waitJobState(t, s, st.ID, api.JobSucceeded)
	if fin.Progress.EvalsBudget != 96 || fin.Progress.EvalsUsed <= 0 || fin.Progress.EvalsUsed > 96 {
		t.Fatalf("progress = %+v, want evals within (0, 96]", fin.Progress)
	}
	if fin.Progress.Generation <= 0 || fin.Progress.GridPoints != 144 {
		t.Fatalf("progress = %+v, want a generation counter over the 144-point grid", fin.Progress)
	}

	res := do(t, s, "GET", "/v1/jobs/"+st.ID+"/result", "")
	if res.Code != http.StatusOK {
		t.Fatalf("result = %d (body %s)", res.Code, res.Body)
	}
	sync := do(t, s, "POST", "/v1/dse", surrBody)
	if sync.Code != http.StatusOK {
		t.Fatalf("sync dse = %d (body %s)", sync.Code, sync.Body)
	}
	if !bytes.Equal(res.Body.Bytes(), sync.Body.Bytes()) {
		t.Fatalf("job result differs from the synchronous response:\njob:  %s\nsync: %s", res.Body, sync.Body)
	}

	m := do(t, s, "GET", "/metrics", "")
	for _, want := range []string{
		"cordobad_dse_surrogate_runs_total 2", // the job + the sync run
		"cordobad_dse_surrogate_evaluations_total",
		"cordobad_dse_surrogate_skipped_total",
		"cordobad_dse_surrogate_generations_total",
	} {
		if !strings.Contains(m.Body.String(), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, m.Body)
		}
	}
}

// TestSurrogateJobCrashResume: a surrogate job killed after its second
// per-generation checkpoint resumes on a fresh server and finishes
// byte-identical to an uninterrupted run — the engine's determinism
// guarantee surviving the full job-persistence round trip.
func TestSurrogateJobCrashResume(t *testing.T) {
	dir := t.TempDir()

	s1 := newTestServer(t, Config{JobDir: dir, JobWorkers: 1, CheckpointEvery: 1})
	hit := make(chan struct{})
	s1.Jobs().SetRunner("dse-surrogate", func(ctx context.Context, rc job.RunContext) (json.RawMessage, error) {
		return s1.dseRunner(jobKindSurrogateDSE)(ctx, &interruptAfterRC{RunContext: rc, ctx: ctx, after: 2, hit: hit})
	})

	st := submitJob(t, s1, surrBody)
	select {
	case <-hit:
	case <-time.After(10 * time.Second):
		t.Fatal("surrogate job never reached its second checkpoint")
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("stopping first server: %v", err)
	}

	s2 := newTestServer(t, Config{JobDir: dir, JobWorkers: 1, CheckpointEvery: 1})
	fin := waitJobState(t, s2, st.ID, api.JobSucceeded)
	if fin.Resumes < 1 {
		t.Fatalf("resumes = %d, want >= 1", fin.Resumes)
	}

	res := do(t, s2, "GET", "/v1/jobs/"+st.ID+"/result", "")
	if res.Code != http.StatusOK {
		t.Fatalf("result = %d (body %s)", res.Code, res.Body)
	}
	sync := do(t, s2, "POST", "/v1/dse", surrBody)
	if sync.Code != http.StatusOK {
		t.Fatalf("sync dse = %d", sync.Code)
	}
	if !bytes.Equal(res.Body.Bytes(), sync.Body.Bytes()) {
		t.Fatalf("resumed surrogate result is not byte-identical to the uninterrupted run:\njob:  %s\nsync: %s",
			res.Body, sync.Body)
	}
}
