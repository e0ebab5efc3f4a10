package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"cordoba"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	s := New(cfg)
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// do runs one request through the full middleware stack and returns the
// recorded response.
func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rdr)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func decodeBody[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding response %q: %v", w.Body.String(), err)
	}
	return v
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, "GET", "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", w.Code)
	}
	if got := decodeBody[map[string]string](t, w); got["status"] != "ok" {
		t.Fatalf("healthz body = %v", got)
	}
}

func TestAccountingDie(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, "POST", "/v1/accounting",
		`{"process":"7nm","fab":"coal-heavy","area_cm2":1.0,"yield":0.95}`)
	if w.Code != http.StatusOK {
		t.Fatalf("accounting = %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[AccountingResponse](t, w)

	want, err := cordoba.EmbodiedDie(cordoba.Process7nm(), cordoba.FabCoal, 1.0, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resp.EmbodiedG-want.Grams()) > 1e-9 {
		t.Fatalf("embodied = %g, want %g", resp.EmbodiedG, want.Grams())
	}
}

func TestAccountingAccelerator(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, "POST", "/v1/accounting", `{"accelerator":{"id":"a48"}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("accounting = %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[AccountingResponse](t, w)

	cfg, err := cordoba.AcceleratorByID("a48")
	if err != nil {
		t.Fatal(err)
	}
	want, err := cfg.Embodied(cordoba.Process7nm(), cordoba.FabCoal)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resp.EmbodiedG-want.Grams()) > 1e-9 {
		t.Fatalf("embodied = %g, want %g", resp.EmbodiedG, want.Grams())
	}
	if resp.ConfigID != "a48" {
		t.Fatalf("config_id = %q", resp.ConfigID)
	}
}

func TestDSEMatchesLibrary(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, "POST", "/v1/dse",
		`{"task":"AI (5 kernels)","configs":["a1","a12","a48"],"sweep":{"lo":1,"hi":1e10,"points":5}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("dse = %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[DSEResponse](t, w)

	task, err := cordoba.PaperTask(cordoba.TaskAI5)
	if err != nil {
		t.Fatal(err)
	}
	var configs []cordoba.AcceleratorConfig
	for _, id := range []string{"a1", "a12", "a48"} {
		c, err := cordoba.AcceleratorByID(id)
		if err != nil {
			t.Fatal(err)
		}
		configs = append(configs, c)
	}
	space, err := cordoba.ExploreParallelAt(task, configs, cordoba.Process7nm(), cordoba.FabCoal, 380, 1)
	if err != nil {
		t.Fatal(err)
	}

	if len(resp.Points) != len(space.Points) {
		t.Fatalf("got %d points, want %d", len(resp.Points), len(space.Points))
	}
	for i, p := range space.Points {
		got := resp.Points[i]
		if got.ID != p.Config.ID ||
			math.Abs(got.DelayS-p.Delay.Seconds()) > 1e-12 ||
			math.Abs(got.EnergyJ-p.Energy.Joules()) > 1e-12 ||
			math.Abs(got.EmbodiedG-p.Embodied.Grams()) > 1e-9 {
			t.Fatalf("point %d = %+v, want %+v", i, got, p)
		}
	}
	wantEver := space.IDs(space.EverOptimal())
	if fmt.Sprint(resp.EverOptimal) != fmt.Sprint(wantEver) {
		t.Fatalf("ever_optimal = %v, want %v", resp.EverOptimal, wantEver)
	}
	if len(resp.Sweep) != 5 {
		t.Fatalf("sweep has %d entries, want 5", len(resp.Sweep))
	}
	if resp.Sweep[0].OptimalID != space.Points[space.OptimalAt(1)].Config.ID {
		t.Fatalf("sweep[0] optimal = %q", resp.Sweep[0].OptimalID)
	}
}

func TestDSECacheHitIsByteIdentical(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{"task":"All kernels"}`

	w1 := do(t, s, "POST", "/v1/dse", body)
	if w1.Code != http.StatusOK {
		t.Fatalf("first dse = %d: %s", w1.Code, w1.Body)
	}
	if got := w1.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first X-Cache = %q, want miss", got)
	}

	// Same request with different whitespace, field order, and defaults
	// spelled out: must be a canonical-key cache hit, byte-identical.
	w2 := do(t, s, "POST", "/v1/dse",
		` { "ci_use": 380, "set":"grid", "task" : "All kernels" } `)
	if w2.Code != http.StatusOK {
		t.Fatalf("second dse = %d: %s", w2.Code, w2.Body)
	}
	if got := w2.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("cache hit is not byte-identical to the original response")
	}

	// The hit must be visible in /metrics.
	hits := scrapeValue(t, s, "cordobad_cache_hits_total")
	misses := scrapeValue(t, s, "cordobad_cache_misses_total")
	if hits != 1 || misses != 1 {
		t.Fatalf("cache counts = (%g hits, %g misses), want (1, 1)", hits, misses)
	}
}

// errEnvelope mirrors the server's JSON error body for assertions.
type errEnvelope struct {
	Error struct {
		Status  int    `json:"status"`
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func TestErrorPaths(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 512})
	tests := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantMsg    string // substring of the envelope message; "" skips
	}{
		{"malformed JSON", "POST", "/v1/dse", `{"task":`, http.StatusBadRequest, "malformed JSON"},
		{"not JSON at all", "POST", "/v1/dse", `hello`, http.StatusBadRequest, "malformed JSON"},
		{"trailing garbage", "POST", "/v1/dse", `{"task":"All kernels"} {"again":1}`, http.StatusBadRequest, "trailing data"},
		{"unknown field", "POST", "/v1/dse", `{"task":"All kernels","nope":1}`, http.StatusBadRequest, "malformed JSON"},
		{"missing task", "POST", "/v1/dse", `{}`, http.StatusBadRequest, "missing task"},
		{"unknown task", "POST", "/v1/dse", `{"task":"bogus"}`, http.StatusBadRequest, `unknown task "bogus"`},
		{"unknown config id", "POST", "/v1/dse", `{"task":"All kernels","configs":["a999"]}`, http.StatusBadRequest, `unknown accelerator config "a999"`},
		{"unknown set", "POST", "/v1/dse", `{"task":"All kernels","set":"5d"}`, http.StatusBadRequest, "unknown config set"},
		{"set and configs", "POST", "/v1/dse", `{"task":"All kernels","set":"grid","configs":["a1"]}`, http.StatusBadRequest, "fields set, configs are mutually exclusive"},
		{"all three spaces", "POST", "/v1/dse", `{"task":"All kernels","set":"grid","configs":["a1"],"knobs":{"mac_arrays":[1],"sram_mb":[2]}}`, http.StatusBadRequest, "fields set, configs, knobs are mutually exclusive"},
		{"bad sweep", "POST", "/v1/dse", `{"task":"All kernels","sweep":{"lo":-1,"hi":10,"points":3}}`, http.StatusBadRequest, "sweep"},
		{"negative ci", "POST", "/v1/dse", `{"task":"All kernels","ci_use":-5}`, http.StatusBadRequest, "ci_use"},
		{"oversized body", "POST", "/v1/dse", `{"task":"` + strings.Repeat("x", 600) + `"}`, http.StatusRequestEntityTooLarge, "exceeds 512 bytes"},
		{"accounting unknown process", "POST", "/v1/accounting", `{"process":"1nm","area_cm2":1}`, http.StatusBadRequest, "unknown process"},
		{"accounting unknown fab", "POST", "/v1/accounting", `{"fab":"mars","area_cm2":1}`, http.StatusBadRequest, "unknown fab"},
		{"accounting no mode", "POST", "/v1/accounting", `{}`, http.StatusBadRequest, "area_cm2"},
		{"accounting bad yield", "POST", "/v1/accounting", `{"area_cm2":1,"yield":1.5}`, http.StatusBadRequest, "yield"},
		{"accounting bad accel", "POST", "/v1/accounting", `{"accelerator":{"id":"a999"}}`, http.StatusBadRequest, `unknown accelerator config "a999"`},
		{"unknown experiment", "GET", "/v1/experiments/nope", "", http.StatusNotFound, `unknown experiment "nope"`},
		{"unknown export format", "GET", "/v1/experiments/table2?format=xml", "", http.StatusBadRequest, `unknown format "xml"`},
		{"csv for non-tabular key", "GET", "/v1/experiments/table2?format=csv", "", http.StatusBadRequest, "no CSV form"},
		{"unknown configs set", "GET", "/v1/configs?set=5d", "", http.StatusBadRequest, "unknown config set"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := do(t, s, tt.method, tt.path, tt.body)
			if w.Code != tt.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", w.Code, tt.wantStatus, w.Body)
			}
			env := decodeBody[errEnvelope](t, w)
			if env.Error.Status != tt.wantStatus {
				t.Fatalf("envelope status = %d, want %d", env.Error.Status, tt.wantStatus)
			}
			wantCode := map[int]string{
				http.StatusBadRequest:            "invalid_request",
				http.StatusNotFound:              "not_found",
				http.StatusRequestEntityTooLarge: "payload_too_large",
			}[tt.wantStatus]
			if env.Error.Code != wantCode {
				t.Fatalf("envelope code = %q, want %q", env.Error.Code, wantCode)
			}
			if tt.wantMsg != "" && !strings.Contains(env.Error.Message, tt.wantMsg) {
				t.Fatalf("message %q does not contain %q", env.Error.Message, tt.wantMsg)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, Config{})
	if w := do(t, s, "GET", "/v1/dse", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/dse = %d, want 405", w.Code)
	}
	if w := do(t, s, "POST", "/healthz", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz = %d, want 405", w.Code)
	}
}

func TestCanceledContext(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the handler runs

	req := httptest.NewRequest("POST", "/v1/dse",
		strings.NewReader(`{"task":"All kernels","ci_use":7}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)

	if w.Code != StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d (body %s)", w.Code, StatusClientClosedRequest, w.Body)
	}
	env := decodeBody[errEnvelope](t, w)
	if !strings.Contains(env.Error.Message, "client closed request") {
		t.Fatalf("message = %q", env.Error.Message)
	}
}

func TestRequestTimeout(t *testing.T) {
	s := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	w := do(t, s, "POST", "/v1/dse", `{"task":"All kernels","ci_use":9}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", w.Code, w.Body)
	}
}

// TestConcurrentDSE fires 32 concurrent /v1/dse requests through the worker
// pool (run under -race by the ci target). Four request shapes alternate so
// both cache hits and misses execute concurrently.
func TestConcurrentDSE(t *testing.T) {
	s := newTestServer(t, Config{PoolSize: 2, EvalWorkers: 2})
	bodies := []string{
		`{"task":"AI (5 kernels)","configs":["a1","a12","a48"]}`,
		`{"task":"XR (5 kernels)","configs":["a1","a48"]}`,
		`{"task":"AI (5 kernels)","set":"3d"}`,
		`{"task":"All kernels","configs":["a37","a38"]}`,
	}

	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := do(t, s, "POST", "/v1/dse", bodies[i%len(bodies)])
			if w.Code != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d: %s", i, w.Code, w.Body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := scrapeValue(t, s, "cordobad_pool_inflight_evaluations"); got != 0 {
		t.Fatalf("pool inflight gauge = %g after drain, want 0", got)
	}
	if got := scrapeValue(t, s, "cordobad_pool_waiting_requests"); got != 0 {
		t.Fatalf("pool waiting gauge = %g after drain, want 0", got)
	}
	hits := scrapeValue(t, s, "cordobad_cache_hits_total")
	misses := scrapeValue(t, s, "cordobad_cache_misses_total")
	if hits+misses != n {
		t.Fatalf("cache hits+misses = %g, want %d", hits+misses, n)
	}
	if misses < float64(len(bodies)) {
		t.Fatalf("cache misses = %g, want >= %d (one per distinct request)", misses, len(bodies))
	}
}

func TestExperimentsEndpoints(t *testing.T) {
	s := newTestServer(t, Config{})

	list := do(t, s, "GET", "/v1/experiments", "")
	if list.Code != http.StatusOK {
		t.Fatalf("list = %d", list.Code)
	}
	infos := decodeBody[[]experimentInfo](t, list)
	if len(infos) != len(cordoba.ExperimentKeys()) {
		t.Fatalf("listed %d experiments, want %d", len(infos), len(cordoba.ExperimentKeys()))
	}

	js := do(t, s, "GET", "/v1/experiments/table2", "")
	if js.Code != http.StatusOK || !strings.Contains(js.Body.String(), "Rows") {
		t.Fatalf("table2 json = %d: %.120s", js.Code, js.Body)
	}

	csvw := do(t, s, "GET", "/v1/experiments/fig6?format=csv", "")
	if csvw.Code != http.StatusOK || !strings.HasPrefix(csvw.Body.String(), "domain,edp_js,tcdp_gs") {
		t.Fatalf("fig6 csv = %d: %.120s", csvw.Code, csvw.Body)
	}
	if got := csvw.Header().Get("Content-Type"); got != "text/csv" {
		t.Fatalf("csv content type = %q", got)
	}

	txt := do(t, s, "GET", "/v1/experiments/table1?format=text", "")
	if txt.Code != http.StatusOK || !strings.Contains(txt.Body.String(), "Table I") {
		t.Fatalf("table1 text = %d: %.120s", txt.Code, txt.Body)
	}
}

func TestDiscoveryEndpoints(t *testing.T) {
	s := newTestServer(t, Config{})

	tasks := decodeBody[[]taskInfo](t, do(t, s, "GET", "/v1/tasks", ""))
	if len(tasks) != 6 { // five Table IV tasks + the XR gaming session
		t.Fatalf("listed %d tasks, want 6", len(tasks))
	}
	if tasks[0].Name != cordoba.TaskAllKernels || len(tasks[0].Kernels) != 15 {
		t.Fatalf("first task = %+v", tasks[0])
	}

	grid := decodeBody[[]configInfo](t, do(t, s, "GET", "/v1/configs", ""))
	if len(grid) != 121 {
		t.Fatalf("grid has %d configs, want 121", len(grid))
	}
	threeD := decodeBody[[]configInfo](t, do(t, s, "GET", "/v1/configs?set=3d", ""))
	if len(threeD) != 7 {
		t.Fatalf("3d set has %d configs, want 7", len(threeD))
	}
	all := decodeBody[[]configInfo](t, do(t, s, "GET", "/v1/configs?set=all", ""))
	if len(all) != 128 {
		t.Fatalf("all set has %d configs, want 128", len(all))
	}
}

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

func TestMetricsPrometheusFormat(t *testing.T) {
	s := newTestServer(t, Config{})
	// Touch several routes so every series family has samples.
	do(t, s, "GET", "/healthz", "")
	do(t, s, "POST", "/v1/dse", `{"task":"AI (5 kernels)","configs":["a1"]}`)
	do(t, s, "POST", "/v1/dse", `{"task":"AI (5 kernels)","configs":["a1"]}`)
	do(t, s, "POST", "/v1/dse", `{"task":"bogus"}`)

	w := do(t, s, "GET", "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}

	body := w.Body.String()
	for _, want := range []string{
		`cordobad_requests_total{route="/healthz",code="200"} 1`,
		`cordobad_requests_total{route="/v1/dse",code="200"} 2`,
		`cordobad_requests_total{route="/v1/dse",code="400"} 1`,
		`cordobad_request_duration_seconds_bucket{route="/v1/dse",le="+Inf"} 3`,
		`cordobad_request_duration_seconds_count{route="/v1/dse"} 3`,
		"cordobad_cache_hits_total 1",
		"cordobad_cache_misses_total 2",
		"cordobad_inflight_requests 1", // the /metrics request itself
		"cordobad_pool_inflight_evaluations 0",
		"cordobad_pool_waiting_requests 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(body, "cordobad_pool_size ") {
		t.Error("/metrics missing cordobad_pool_size")
	}

	// Every non-comment line must be a well-formed sample.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed sample line: %q", line)
		}
	}
}

// TestGracefulShutdown verifies that canceling the serve context drains an
// in-flight /v1/dse request: the client still gets its 200 and Serve
// returns cleanly.
func TestGracefulShutdown(t *testing.T) {
	s := newTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())

	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln, 5*time.Second) }()

	url := "http://" + ln.Addr().String()
	// Wait for the listener to answer.
	for i := 0; ; i++ {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if i > 100 {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Launch an uncached full-grid evaluation, then immediately request
	// shutdown while it is (very likely) still in flight.
	type result struct {
		status int
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/v1/dse", "application/json",
			strings.NewReader(`{"task":"All kernels","ci_use":123}`))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		_, _ = io.ReadAll(resp.Body)
		resc <- result{status: resp.StatusCode}
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()

	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight request status = %d, want 200", res.status)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v, want nil", err)
	}

	// The listener is closed: new connections must fail.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}
