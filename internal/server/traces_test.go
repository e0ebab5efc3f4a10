package server

import (
	"net/http"
	"strings"
	"testing"
)

func TestTracesList(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, "GET", "/v1/traces", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	infos := decodeBody[[]traceInfo](t, w)
	if len(infos) < 6 {
		t.Fatalf("got %d traces, want at least 6", len(infos))
	}
	seen := map[string]traceInfo{}
	for _, i := range infos {
		seen[i.Name] = i
		if i.MeanDayG <= 0 || i.MeanYearG <= 0 {
			t.Errorf("%s: non-positive mean CI", i.Name)
		}
		if i.MinDayG > i.MaxDayG {
			t.Errorf("%s: min %g > max %g", i.Name, i.MinDayG, i.MaxDayG)
		}
	}
	duck, ok := seen["california-duck"]
	if !ok {
		t.Fatal("registry is missing california-duck")
	}
	if duck.MinDayG >= duck.MaxDayG {
		t.Error("duck curve should swing over the day")
	}
	flat, ok := seen["paper-grid"]
	if !ok {
		t.Fatal("registry is missing paper-grid")
	}
	if flat.MeanDayG != 380 || flat.MeanYearG != 380 {
		t.Errorf("paper-grid means = (%g, %g), want exactly 380", flat.MeanDayG, flat.MeanYearG)
	}
}

func TestScheduleEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{"trace":"california-duck","duration_s":7200,"power_w":200,"deadline_s":86400,"step_s":900}`
	w := do(t, s, "POST", "/v1/schedule", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeBody[ScheduleResponse](t, w)
	if resp.Trace != "california-duck" {
		t.Errorf("trace = %q", resp.Trace)
	}
	if h := resp.Best.StartHour; h < 9 || h > 13 {
		t.Errorf("best start %.2fh, want the midday solar valley", h)
	}
	if resp.SavingsFraction <= 0.3 {
		t.Errorf("savings %.3f, want >0.3 on the duck curve", resp.SavingsFraction)
	}
	if resp.Best.CarbonG > resp.Immediate.CarbonG || resp.Best.CarbonG > resp.Worst.CarbonG {
		t.Error("best window is not minimal")
	}
	// 22h of slack at 15-min steps: 88 intervals + the run-now start.
	if resp.Candidates != 89 {
		t.Errorf("candidates = %d, want 89 for 15-min steps over 22h slack", resp.Candidates)
	}

	// Second identical request must come from the cache.
	w2 := do(t, s, "POST", "/v1/schedule", body)
	if w2.Header().Get("X-Cache") != "hit" {
		t.Error("identical schedule request should hit the cache")
	}
	if w2.Body.String() != w.Body.String() {
		t.Error("cached response differs")
	}

	// Metrics counted one search (the cached replay does not re-search).
	var prom strings.Builder
	if err := s.metrics.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"cordobad_schedule_searches_total 1\n",
		"cordobad_trace_lookups_total 1\n",
		"cordobad_schedule_windows_total 89\n",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func TestScheduleErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"missing trace", `{"duration_s":7200,"power_w":200,"deadline_s":86400}`},
		{"unknown trace", `{"trace":"nope","duration_s":7200,"power_w":200,"deadline_s":86400}`},
		{"zero duration", `{"trace":"paper-grid","duration_s":0,"power_w":200,"deadline_s":86400}`},
		{"deadline before finish", `{"trace":"paper-grid","duration_s":7200,"power_w":200,"deadline_s":60}`},
		{"negative power", `{"trace":"paper-grid","duration_s":7200,"power_w":-5,"deadline_s":86400}`},
		{"unknown field", `{"trace":"paper-grid","duration_s":7200,"power_w":200,"deadline_s":86400,"bogus":1}`},
	}
	for _, c := range cases {
		w := do(t, s, "POST", "/v1/schedule", c.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", c.name, w.Code, w.Body.String())
		}
	}
}

func TestDSEWithNamedTrace(t *testing.T) {
	s := newTestServer(t, Config{})

	// The solar-diurnal trace averages exactly its mean (380) over whole
	// days, so the sweep must match a scalar ci_use=380 run byte-for-byte in
	// its numeric results.
	scalar := do(t, s, "POST", "/v1/dse",
		`{"task":"AI (5 kernels)","configs":["a1","a48","a121"]}`)
	if scalar.Code != http.StatusOK {
		t.Fatalf("scalar status %d: %s", scalar.Code, scalar.Body.String())
	}
	traced := do(t, s, "POST", "/v1/dse",
		`{"task":"AI (5 kernels)","configs":["a1","a48","a121"],"ci_trace":"solar-diurnal","trace_life_s":86400}`)
	if traced.Code != http.StatusOK {
		t.Fatalf("traced status %d: %s", traced.Code, traced.Body.String())
	}
	sr := decodeBody[DSEResponse](t, scalar)
	tr := decodeBody[DSEResponse](t, traced)
	if tr.CITrace != "solar-diurnal" || tr.TraceLifeS != 86400 {
		t.Errorf("trace echo = (%q, %g)", tr.CITrace, tr.TraceLifeS)
	}
	if diff := tr.CIUse - sr.CIUse; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("resolved CI %g, want 380", tr.CIUse)
	}
	if len(tr.Sweep) != len(sr.Sweep) {
		t.Fatal("sweep lengths differ")
	}
	for i := range tr.Sweep {
		if tr.Sweep[i].OptimalID != sr.Sweep[i].OptimalID {
			t.Errorf("sweep %d: optimal %q vs scalar %q", i, tr.Sweep[i].OptimalID, sr.Sweep[i].OptimalID)
		}
	}

	// A decarbonizing trace must resolve to a lower average than the anchor.
	ramp := do(t, s, "POST", "/v1/dse",
		`{"task":"AI (5 kernels)","configs":["a48"],"ci_trace":"decarb-ramp","trace_life_s":315360000}`)
	if ramp.Code != http.StatusOK {
		t.Fatalf("ramp status %d: %s", ramp.Code, ramp.Body.String())
	}
	rr := decodeBody[DSEResponse](t, ramp)
	if rr.CIUse >= 380 || rr.CIUse <= 100 {
		t.Errorf("10y decarb-ramp average = %g, want inside (100, 380)", rr.CIUse)
	}

	// Error paths.
	for name, body := range map[string]string{
		"both ci fields":     `{"task":"AI (5 kernels)","ci_use":380,"ci_trace":"paper-grid"}`,
		"unknown trace":      `{"task":"AI (5 kernels)","ci_trace":"nope"}`,
		"life without trace": `{"task":"AI (5 kernels)","trace_life_s":86400}`,
		"negative life":      `{"task":"AI (5 kernels)","ci_trace":"paper-grid","trace_life_s":-5}`,
	} {
		w := do(t, s, "POST", "/v1/dse", body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, w.Code, w.Body.String())
		}
	}
}
