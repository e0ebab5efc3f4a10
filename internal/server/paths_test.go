package server

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cordoba/api"
)

// dseCounters returns the /metrics lines that account for DSE work: the
// cordobad_dse_* series and the per-backend evaluation counts.
func dseCounters(t *testing.T, s *Server) []string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(do(t, s, "GET", "/metrics", "").Body.String(), "\n") {
		if strings.HasPrefix(line, "cordobad_dse_") || strings.HasPrefix(line, "cordobad_model_evaluations_total") {
			out = append(out, line)
		}
	}
	return out
}

// TestSyncAndJobPathsAgree: every engine path answers POST /v1/dse and
// POST /v1/jobs with the same bytes and charges the same DSE counters. Each
// side runs on a fresh server with the response cache off, so the counters
// hold exactly one evaluation of the body.
func TestSyncAndJobPathsAgree(t *testing.T) {
	cases := []struct{ name, body string }{
		{"knobs", jobsBody},
		{"set", `{"task":"All kernels","set":"3d"}`},
		{"configs", `{"task":"All kernels","model":"chiplet","configs":["a1","a12","a48"]}`},
		{"models", `{"task":"All kernels","knobs":{"mac_arrays":[1,2,4],"sram_mb":[1,2],"models":["act","chiplet"]}}`},
		{"partition", `{"task":"All kernels","knobs":{"mac_arrays":[1,2],"sram_mb":[1,2],` +
			`"partition":{"integrations":["monolithic","2.5d"],"chiplets":[2,4]}}}`},
		{"trace", `{"task":"All kernels","ci_trace":"california-duck","knobs":{"mac_arrays":[1,2,4],"sram_mb":[1,2]}}`},
		{"surrogate", surrBody},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			syncSrv := newTestServer(t, Config{CacheSize: -1})
			sync := do(t, syncSrv, "POST", "/v1/dse", tc.body)
			if sync.Code != http.StatusOK {
				t.Fatalf("sync dse = %d (body %s)", sync.Code, sync.Body)
			}

			jobSrv := newTestServer(t, Config{CacheSize: -1})
			st := submitJob(t, jobSrv, tc.body)
			waitJobState(t, jobSrv, st.ID, api.JobSucceeded)
			res := do(t, jobSrv, "GET", "/v1/jobs/"+st.ID+"/result", "")
			if res.Code != http.StatusOK {
				t.Fatalf("job result = %d (body %s)", res.Code, res.Body)
			}
			if !bytes.Equal(res.Body.Bytes(), sync.Body.Bytes()) {
				t.Fatalf("job result differs from the synchronous response:\njob:  %s\nsync: %s", res.Body, sync.Body)
			}

			want, got := dseCounters(t, syncSrv), dseCounters(t, jobSrv)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("DSE counters differ:\njob:\n%s\nsync:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}

// fuzzCorpusBodies reads the []byte seed bodies checked in under
// testdata/fuzz/<target>.
func fuzzCorpusBodies(t *testing.T, target string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: not a one-value []byte corpus file", f)
		}
		body, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, body)
	}
	return out
}

// TestDSEAdmissionAgrees: POST /v1/dse answers 200 exactly when POST
// /v1/jobs answers 202 for the same body, and a rejection reads the same on
// both. The bodies are the DSE, surrogate and partition fuzz seeds (f.Add
// calls and the checked-in corpus), minus the shard forms, which only the
// job endpoint serves.
func TestDSEAdmissionAgrees(t *testing.T) {
	var bodies []string
	seen := map[string]bool{}
	for _, set := range [][]string{
		dseRequestSeeds, surrogateRequestSeeds, partitionSpecSeeds,
		fuzzCorpusBodies(t, "FuzzDSERequest"),
		fuzzCorpusBodies(t, "FuzzSurrogateRequest"),
		fuzzCorpusBodies(t, "FuzzPartitionSpec"),
	} {
		for _, body := range set {
			if seen[body] || strings.Contains(body, `"shard`) {
				continue
			}
			seen[body] = true
			bodies = append(bodies, body)
		}
	}
	if len(bodies) < 30 {
		t.Fatalf("only %d seed bodies collected", len(bodies))
	}

	syncSrv := newTestServer(t, Config{CacheSize: -1, MaxGridPoints: 64})
	jobSrv := newTestServer(t, Config{CacheSize: -1, MaxGridPoints: 64, JobQueue: 2 * len(bodies)})
	admitted := 0
	for _, body := range bodies {
		sync := do(t, syncSrv, "POST", "/v1/dse", body)
		sub := do(t, jobSrv, "POST", "/v1/jobs", body)
		switch {
		case sync.Code == http.StatusOK && sub.Code == http.StatusAccepted:
			admitted++
		case sync.Code == http.StatusOK || sub.Code == http.StatusAccepted:
			t.Errorf("%q: sync = %d, submit = %d (sync %s, submit %s)", body, sync.Code, sub.Code, sync.Body, sub.Body)
		case sync.Code != sub.Code || !bytes.Equal(sync.Body.Bytes(), sub.Body.Bytes()):
			t.Errorf("%q: rejections differ:\nsync   %d %s\nsubmit %d %s", body, sync.Code, sync.Body, sub.Code, sub.Body)
		}
	}
	t.Logf("%d bodies, %d admitted by both endpoints", len(bodies), admitted)
}
