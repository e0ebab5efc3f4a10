package server

import (
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"cordoba"
	"cordoba/internal/dse"
)

// knobBody is a small but non-trivial knob grid: 3×2×2×2 = 24 points across
// two technology nodes and two DVFS points.
const knobBody = `{"task":"All kernels","fab":"taiwan","ci_use":200,` +
	`"knobs":{"mac_arrays":[1,8,32],"sram_mb":[2,16],"vdd_scales":[0.8,1.0],"nodes":["7nm","10nm"]},` +
	`"sweep":{"lo":1,"hi":1e10,"points":7}}`

// TestDSEKnobsMatchesNaiveGrid holds the knob-range streaming path of
// POST /v1/dse equal to materializing the same grid through the direct per-layer path.
func TestDSEKnobsMatchesNaiveGrid(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, "POST", "/v1/dse", knobBody)
	if w.Code != http.StatusOK {
		t.Fatalf("dse knobs = %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[DSEResponse](t, w)

	task, err := cordoba.PaperTask(cordoba.TaskAllKernels)
	if err != nil {
		t.Fatal(err)
	}
	g := cordoba.KnobGrid{
		MACArrays: []int{1, 8, 32},
		SRAMMB:    []float64{2, 16},
		VDDScales: []float64{0.8, 1.0},
		Nodes:     []string{"7nm", "10nm"},
	}
	space, err := dse.EvaluateGrid(task, g, cordoba.FabTaiwan, 200)
	if err != nil {
		t.Fatal(err)
	}
	env := space.EverOptimal()

	if resp.PointsStreamed != g.Size() {
		t.Fatalf("points_streamed = %d, want %d", resp.PointsStreamed, g.Size())
	}
	if want := g.Size() - int64(len(env)); resp.PointsPruned != want {
		t.Fatalf("points_pruned = %d, want %d", resp.PointsPruned, want)
	}
	if want := 1 - float64(len(env))/float64(g.Size()); resp.EliminatedFraction != want {
		t.Fatalf("eliminated_fraction = %g, want %g", resp.EliminatedFraction, want)
	}

	// Points carries only the survivors, in envelope order (ascending E·D).
	if len(resp.Points) != len(env) {
		t.Fatalf("got %d points, want the %d survivors", len(resp.Points), len(env))
	}
	wantIDs := space.IDs(env)
	if fmt.Sprint(resp.EverOptimal) != fmt.Sprint(wantIDs) {
		t.Fatalf("ever_optimal = %v, want %v", resp.EverOptimal, wantIDs)
	}
	for i, idx := range env {
		p, got := space.Points[idx], resp.Points[i]
		if got.ID != p.Config.ID ||
			math.Abs(got.DelayS-p.Delay.Seconds()) > 1e-12 ||
			math.Abs(got.EnergyJ-p.Energy.Joules()) > 1e-12 ||
			math.Abs(got.EmbodiedG-p.Embodied.Grams()) > 1e-9 {
			t.Fatalf("survivor %d = %+v, want %+v", i, got, p)
		}
	}

	// The sweep optima agree with the brute force over the full grid, and
	// the mean covers the whole grid, not just the survivors.
	if len(resp.Sweep) != 7 {
		t.Fatalf("sweep has %d entries, want 7", len(resp.Sweep))
	}
	for _, e := range resp.Sweep {
		opt := space.OptimalAt(e.Inferences)
		if e.OptimalID != space.Points[opt].Config.ID {
			t.Fatalf("sweep at N=%g optimal = %q, want %q",
				e.Inferences, e.OptimalID, space.Points[opt].Config.ID)
		}
		if want := space.MeanTCDPAt(e.Inferences); math.Abs(e.MeanTCDPGS-want) > 1e-9*want {
			t.Fatalf("sweep at N=%g mean tCDP = %g, want %g", e.Inferences, e.MeanTCDPGS, want)
		}
	}

	// Process echoes the explored node axis.
	if resp.Process != "7nm,10nm" {
		t.Fatalf("process = %q, want the node list", resp.Process)
	}
}

// TestDSEKnobsCachedAndMetered: a repeated knob request is a byte-identical
// cache hit, and the streaming counters and memo gauges surface in /metrics.
func TestDSEKnobsCachedAndMetered(t *testing.T) {
	s := newTestServer(t, Config{})
	w1 := do(t, s, "POST", "/v1/dse", knobBody)
	if w1.Code != http.StatusOK {
		t.Fatalf("first dse knobs = %d: %s", w1.Code, w1.Body)
	}
	w2 := do(t, s, "POST", "/v1/dse", knobBody)
	if got := w2.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second X-Cache = %q, want hit", got)
	}
	if w1.Body.String() != w2.Body.String() {
		t.Fatal("cache hit is not byte-identical")
	}

	streamed := scrapeValue(t, s, "cordobad_dse_points_streamed_total")
	pruned := scrapeValue(t, s, "cordobad_dse_points_pruned_total")
	if streamed != 24 {
		t.Fatalf("streamed counter = %g, want 24", streamed)
	}
	if pruned <= 0 || pruned >= streamed {
		t.Fatalf("pruned counter = %g, want within (0, %g)", pruned, streamed)
	}
	if s.Memo().Len() == 0 {
		t.Fatal("shared memo cache is empty after a knob-grid request")
	}

	m := do(t, s, "GET", "/metrics", "")
	for _, want := range []string{
		"cordobad_dse_points_streamed_total 24",
		fmt.Sprintf("cordobad_dse_points_pruned_total %g", pruned),
		"cordobad_memo_hits_total",
		"cordobad_memo_misses_total",
		fmt.Sprintf("cordobad_memo_entries %d", s.Memo().Len()),
	} {
		if !strings.Contains(m.Body.String(), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, m.Body)
		}
	}
}

func TestDSEKnobsErrors(t *testing.T) {
	s := newTestServer(t, Config{MaxGridPoints: 16})
	tests := []struct {
		name    string
		body    string
		wantMsg string
	}{
		{"knobs and set",
			`{"task":"All kernels","set":"grid","knobs":{"mac_arrays":[1],"sram_mb":[2]}}`,
			"fields set, knobs are mutually exclusive"},
		{"knobs and configs",
			`{"task":"All kernels","configs":["a1"],"knobs":{"mac_arrays":[1],"sram_mb":[2]}}`,
			"fields configs, knobs are mutually exclusive"},
		{"empty axes",
			`{"task":"All kernels","knobs":{"mac_arrays":[],"sram_mb":[2]}}`,
			"non-empty mac_arrays and sram_mb"},
		{"over the grid cap",
			`{"task":"All kernels","search":"exhaustive","knobs":{"mac_arrays":[1,2,4,8,16],"sram_mb":[1,2,4,8]}}`,
			"above this server's cap of 16"},
		{"unknown node",
			`{"task":"All kernels","knobs":{"mac_arrays":[1],"sram_mb":[2],"nodes":["1nm"]}}`,
			"unknown technology node"},
		{"vdd below threshold",
			`{"task":"All kernels","knobs":{"mac_arrays":[1],"sram_mb":[2],"vdd_scales":[0.1]}}`,
			""},
		{"negative knob",
			`{"task":"All kernels","knobs":{"mac_arrays":[-4],"sram_mb":[2]}}`,
			""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := do(t, s, "POST", "/v1/dse", tt.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", w.Code, w.Body)
			}
			env := decodeBody[errEnvelope](t, w)
			if env.Error.Status != http.StatusBadRequest || env.Error.Message == "" {
				t.Fatalf("bad error envelope: %s", w.Body)
			}
			if tt.wantMsg != "" && !strings.Contains(env.Error.Message, tt.wantMsg) {
				t.Fatalf("message %q does not contain %q", env.Error.Message, tt.wantMsg)
			}
		})
	}
}

// TestDSEKnobsDefaultNodeFollowsProcess: with no nodes axis, the grid
// explores the request's scalar process.
func TestDSEKnobsDefaultNodeFollowsProcess(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, "POST", "/v1/dse",
		`{"task":"All kernels","process":"5nm","knobs":{"mac_arrays":[1,8],"sram_mb":[2]}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("dse knobs = %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[DSEResponse](t, w)
	if resp.Process != "5nm" {
		t.Fatalf("process = %q, want 5nm", resp.Process)
	}
	if resp.PointsStreamed != 2 {
		t.Fatalf("points_streamed = %d, want 2", resp.PointsStreamed)
	}
}
