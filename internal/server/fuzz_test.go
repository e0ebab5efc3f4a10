package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"cordoba/internal/job"
)

// fuzzServer is the process-wide server the fuzz targets drive: response
// cache off so memory stays flat across millions of executions, a small
// knob-grid cap so a lucky mutation cannot make one execution explore a
// million-point space.
var (
	fuzzSrvOnce sync.Once
	fuzzSrv     *Server
)

func fuzzServer() *Server {
	fuzzSrvOnce.Do(func() {
		fuzzSrv = New(Config{CacheSize: -1, MaxGridPoints: 64, Logger: quietLogger()})
	})
	return fuzzSrv
}

// fuzzPost drives one fuzzer-supplied body through the full middleware stack
// and checks the contract every response must honor, valid or not: no panic
// (a panic would surface as the recovery middleware's 500), a JSON body, and
// on error the uniform envelope with a matching status code.
func fuzzPost(t *testing.T, path string, body []byte) {
	req := httptest.NewRequest("POST", path, strings.NewReader(string(body)))
	w := httptest.NewRecorder()
	fuzzServer().Handler().ServeHTTP(w, req)

	if w.Code >= 500 {
		t.Fatalf("%s returned %d for body %q:\n%s", path, w.Code, body, w.Body)
	}
	if !json.Valid(w.Body.Bytes()) {
		t.Fatalf("%s returned invalid JSON for body %q:\n%s", path, body, w.Body)
	}
	if w.Code != http.StatusOK {
		var env errEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s error response is not the envelope: %s", path, w.Body)
		}
		if env.Error.Status != w.Code || env.Error.Message == "" {
			t.Fatalf("%s envelope %+v does not match status %d", path, env, w.Code)
		}
	}
}

// dseRequestSeeds seeds FuzzDSERequest.
var dseRequestSeeds = []string{
	`{"task":"All kernels","configs":["a1","a12"]}`,
	`{"task":"AI (5 kernels)","set":"3d","ci_use":200,"sweep":{"lo":1,"hi":1e10,"points":5}}`,
	`{"task":"All kernels","knobs":{"mac_arrays":[1,8],"sram_mb":[2],"vdd_scales":[0.9],"nodes":["7nm","5nm"]}}`,
	`{"task":"All kernels","knobs":{"mac_arrays":[-1],"sram_mb":[1e308]}}`,
	`{"task":`,
	`null`,
	``,
	`{"task":"All kernels"} trailing`,
}

func FuzzDSERequest(f *testing.F) {
	for _, body := range dseRequestSeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, "/v1/dse", body)
	})
}

const surrogateSeedKnobs = `"knobs":{"mac_arrays":[1,4],"sram_mb":[2,8]}`

// surrogateRequestSeeds seeds FuzzSurrogateRequest.
var surrogateRequestSeeds = []string{
	`{"task":"All kernels","search":"surrogate",` + surrogateSeedKnobs + `,"surrogate":{"seed":7,"budget":8,"population":4}}`,
	`{"task":"All kernels","search":"auto",` + surrogateSeedKnobs + `}`,
	`{"task":"All kernels","search":"genetic",` + surrogateSeedKnobs + `}`,
	`{"task":"All kernels","search":"surrogate","configs":["a1"]}`,
	`{"task":"All kernels",` + surrogateSeedKnobs + `,"surrogate":{"budget":-1}}`,
	`{"task":"All kernels",` + surrogateSeedKnobs + `,"surrogate":{"budget":9223372036854775807}}`,
	`{"task":"All kernels",` + surrogateSeedKnobs + `,"surrogate":{"seed":-1}}`,
	`{"task":"All kernels",` + surrogateSeedKnobs + `,"surrogate":{"population":65536,"generations":-3}}`,
	`{"task":"All kernels",` + surrogateSeedKnobs + `,"surrogate":{"oracle":true},"shards":2}`,
	`{"task":"All kernels","search":"surrogate",` + surrogateSeedKnobs + `,"surrogate":{`,
}

// FuzzSurrogateRequest drives the surrogate-search fields through the full
// stack. Malformed knobs, seeds, budgets, and search values must answer 400
// with the uniform envelope — never a 500, a panic, or unbounded work (the
// fuzz server's 64-point cap bounds both the grid walk and the clamped
// budget of any execution).
func FuzzSurrogateRequest(f *testing.F) {
	for _, body := range surrogateRequestSeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, "/v1/dse", body)
	})
}

const partitionSeedKnobs = `"mac_arrays":[1,2],"sram_mb":[1,2]`

// partitionSpecSeeds seeds FuzzPartitionSpec.
var partitionSpecSeeds = []string{
	`{"task":"All kernels","knobs":{` + partitionSeedKnobs + `,"partition":{"integrations":["monolithic","2.5d"],"chiplets":[2,4],"chiplet_nodes":["14nm"],"carrier":"rdl-fanout"}}}`,
	`{"task":"All kernels","knobs":{` + partitionSeedKnobs + `,"partition":{"integrations":["3d"],"chiplets":[64],"carrier":"emib"}}}`,
	`{"task":"All kernels","knobs":{` + partitionSeedKnobs + `,"partition":{"integrations":["2.5d","2.5d"]}}}`,
	`{"task":"All kernels","knobs":{` + partitionSeedKnobs + `,"partition":{"integrations":["5d"]}}}`,
	`{"task":"All kernels","knobs":{` + partitionSeedKnobs + `,"partition":{"integrations":["3d"],"chiplet_nodes":["6nm"]}}}`,
	`{"task":"All kernels","knobs":{` + partitionSeedKnobs + `,"partition":{"integrations":["2.5d"],"carrier":"glass"}}}`,
	`{"task":"All kernels","knobs":{` + partitionSeedKnobs + `,"partition":{"chiplets":[4]}}}`,
	`{"task":"All kernels","knobs":{` + partitionSeedKnobs + `,"partition":{"integrations":["3d"],"chiplets":[-1,9223372036854775807]}}}`,
	`{"task":"All kernels","knobs":{` + partitionSeedKnobs + `,"models":["act"],"partition":{"integrations":["2.5d"]}}}`,
	`{"task":"All kernels","knobs":{` + partitionSeedKnobs + `,"partition":{"integrations":[`,
	`{"task":"All kernels","knobs":{` + partitionSeedKnobs + `,"partition":null}}`,
}

// FuzzPartitionSpec drives the partition knob axes through the full stack.
// Every malformed spec — duplicate axis values, unknown integration styles,
// chiplet nodes, or carriers, chiplet counts without an integration axis,
// negative or overflowing counts — must answer 400 with the uniform envelope
// and the invalid_knobs code path, never a 500 or a panic; valid specs are
// bounded by the fuzz server's 64-point grid cap. Seed corpus lives in
// testdata/fuzz/FuzzPartitionSpec.
func FuzzPartitionSpec(f *testing.F) {
	for _, body := range partitionSpecSeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, "/v1/dse", body)
	})
}

// FuzzJobListQuery drives fuzzer-supplied query strings through the
// paginated GET /v1/jobs listing. Malformed states, priorities, limits, and
// cursors must answer 400 with the uniform envelope — never a 500 or a
// panic — and any cursor the parser accepts must re-mint to the same
// position (the pagination walk depends on that round-trip). Seed corpus
// lives in testdata/fuzz/FuzzJobListQuery.
func FuzzJobListQuery(f *testing.F) {
	f.Add("state=queued&priority=interactive&limit=2")
	f.Add("state=succeeded&priority=batch&limit=500")
	f.Add("priority=deferrable&limit=1")
	f.Add("limit=0")
	f.Add("limit=99999999999999999999")
	f.Add("cursor=%21%21")
	f.Add("cursor=Z29vZA==")
	f.Add("cursor=" + jobListCursor(job.Status{ID: "j0ff00", Created: time.Unix(0, 1700000000000000000).UTC()}))
	f.Add("state=bogus&priority=&cursor=")
	f.Add(";=;&&=%zz")
	f.Fuzz(func(t *testing.T, raw string) {
		req := httptest.NewRequest("GET", "/v1/jobs", nil)
		req.URL.RawQuery = raw
		w := httptest.NewRecorder()
		fuzzServer().Handler().ServeHTTP(w, req)

		if w.Code >= 500 {
			t.Fatalf("/v1/jobs?%s returned %d:\n%s", raw, w.Code, w.Body)
		}
		if !json.Valid(w.Body.Bytes()) {
			t.Fatalf("/v1/jobs?%s returned invalid JSON:\n%s", raw, w.Body)
		}
		if w.Code != http.StatusOK {
			var env errEnvelope
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
				t.Fatalf("/v1/jobs?%s error response is not the envelope: %s", raw, w.Body)
			}
			if env.Error.Status != w.Code || env.Error.Message == "" {
				t.Fatalf("/v1/jobs?%s envelope %+v does not match status %d", raw, env, w.Code)
			}
		}

		// Cursor round-trip: a position the parser accepts survives re-minting.
		vals, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		q, err := parseJobListQuery(vals)
		if err != nil || q.cursorID == "" {
			return
		}
		again, err := parseJobListQuery(url.Values{
			"cursor": {jobListCursor(job.Status{ID: q.cursorID, Created: q.cursorCreated})},
		})
		if err != nil || !again.cursorCreated.Equal(q.cursorCreated) || again.cursorID != q.cursorID {
			t.Fatalf("cursor does not round-trip: %+v vs %+v (%v)", q, again, err)
		}
	})
}

func FuzzAccountingRequest(f *testing.F) {
	f.Add([]byte(`{"process":"7nm","fab":"coal-heavy","area_cm2":1.0,"yield":0.95}`))
	f.Add([]byte(`{"accelerator":{"id":"a48"}}`))
	f.Add([]byte(`{"accelerator":{"mac_arrays":16,"sram_mb":8,"is_3d":true,"mem_dies":4}}`))
	f.Add([]byte(`{"area_cm2":-1}`))
	f.Add([]byte(`{"area_cm2":1e308,"yield":1e-308}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, "/v1/accounting", body)
	})
}
