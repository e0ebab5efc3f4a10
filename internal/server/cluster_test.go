package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"cordoba/api"
	"cordoba/internal/job"
)

// shardBody wraps jobsBody's knob grid (6 shapes × 2 cells) with extra
// request fields; callers append shard/shards selectors.
func shardBody(extra string) string {
	return fmt.Sprintf(`{"task":"All kernels","knobs":{"mac_arrays":[1,2,4],"sram_mb":[1,2],"vdd_scales":[1.0,0.9]}%s}`, extra)
}

// TestShardValidation pins the request-shape errors for the distributed
// fields: they are async-only, knob-range-only, and mutually exclusive.
func TestShardValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name, method, path, body, wantFrag string
		wantCode                           int
	}{
		{"sync shards rejected", "POST", "/v1/dse", shardBody(`,"shards":2`), "POST /v1/jobs", 400},
		{"sync shard rejected", "POST", "/v1/dse", shardBody(`,"shard":{"first":0,"count":2}`), "POST /v1/jobs", 400},
		{"shard and shards exclusive", "POST", "/v1/jobs", shardBody(`,"shards":2,"shard":{"first":0,"count":2}`), "mutually exclusive", 400},
		{"negative shards", "POST", "/v1/jobs", shardBody(`,"shards":-1`), "shards must be", 400},
		{"shard without knobs", "POST", "/v1/jobs", `{"task":"All kernels","shards":2}`, "knob-range", 400},
		{"shard out of grid", "POST", "/v1/jobs", shardBody(`,"shard":{"first":5,"count":2}`), "outside the grid's 6 shapes", 400},
		{"bad shard range", "POST", "/v1/jobs", shardBody(`,"shard":{"first":-1,"count":1}`), "first >= 0", 400},
		{"shards need coordinator", "POST", "/v1/jobs", shardBody(`,"shards":2`), "coordinator", 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, s, tc.method, tc.path, tc.body)
			if w.Code != tc.wantCode {
				t.Fatalf("code = %d, want %d (body %s)", w.Code, tc.wantCode, w.Body)
			}
			env := decodeBody[api.ErrorEnvelope](t, w)
			if !strings.Contains(env.Error.Message, tc.wantFrag) {
				t.Fatalf("error %q missing %q", env.Error.Message, tc.wantFrag)
			}
		})
	}
}

// TestClusterStatusByRole pins GET /v1/cluster on non-coordinator daemons:
// the role echoes back with no worker table.
func TestClusterStatusByRole(t *testing.T) {
	for _, role := range []string{"", "worker"} {
		s := newTestServer(t, Config{Role: role})
		w := do(t, s, "GET", "/v1/cluster", "")
		if w.Code != http.StatusOK {
			t.Fatalf("role %q: code = %d (body %s)", role, w.Code, w.Body)
		}
		st := decodeBody[api.ClusterStatus](t, w)
		wantRole := role
		if wantRole == "" {
			wantRole = "standalone"
		}
		if st.Role != wantRole || len(st.Workers) != 0 {
			t.Fatalf("role %q: status = %+v", role, st)
		}
	}
}

// TestShardCapIsPerNode verifies MaxGridPoints judges the largest per-node
// share, not the whole grid: a grid too big for one node still submits when
// sharded finely enough, and a single over-cap shard is rejected.
func TestShardCapIsPerNode(t *testing.T) {
	// 6 shapes × 2 cells = 12 points; cap of 8 rejects the whole grid and
	// any shard of ≥ 4 shapes, but accepts per-shard shares of ≤ 4 shapes.
	s := newTestServer(t, Config{MaxGridPoints: 8, Role: "coordinator", ClusterWorkers: []string{"http://127.0.0.1:1"}})
	w := do(t, s, "POST", "/v1/jobs", shardBody(`,"search":"exhaustive"`))
	if w.Code != 400 || !strings.Contains(w.Body.String(), "above this server's cap") {
		t.Fatalf("whole grid: code %d body %s", w.Code, w.Body)
	}
	w = do(t, s, "POST", "/v1/jobs", shardBody(`,"shard":{"first":0,"count":5}`))
	if w.Code != 400 || !strings.Contains(w.Body.String(), "largest shard covers 10 points") {
		t.Fatalf("big shard: code %d body %s", w.Code, w.Body)
	}
	w = do(t, s, "POST", "/v1/jobs", shardBody(`,"shard":{"first":2,"count":3}`))
	if w.Code != http.StatusAccepted {
		t.Fatalf("small shard: code %d body %s", w.Code, w.Body)
	}
	st := decodeBody[api.JobStatus](t, w)
	if st.Kind != "dse-shard" {
		t.Fatalf("kind = %q, want dse-shard", st.Kind)
	}
	// shards=3 → ceil(6/3)=2 shapes = 4 points per node: under the cap even
	// though the whole grid is not.
	w = do(t, s, "POST", "/v1/jobs", shardBody(`,"shards":3`))
	if w.Code != http.StatusAccepted {
		t.Fatalf("sharded grid: code %d body %s", w.Code, w.Body)
	}
	if st := decodeBody[api.JobStatus](t, w); st.Kind != "dse-cluster" {
		t.Fatalf("kind = %q, want dse-cluster", st.Kind)
	}
}

// TestShardJobEnvelope runs a shard job end to end through the worker-facing
// HTTP surface and checks the envelope covers exactly the requested shapes.
func TestShardJobEnvelope(t *testing.T) {
	s := newTestServer(t, Config{})
	st := submitJob(t, s, shardBody(`,"shard":{"first":2,"count":3}`))
	if st.Kind != "dse-shard" {
		t.Fatalf("kind = %q, want dse-shard", st.Kind)
	}
	fin := waitJobState(t, s, st.ID, api.JobSucceeded)
	if fin.Progress.GridPoints != 6 { // 3 shapes × 2 cells
		t.Fatalf("grid points = %d, want 6", fin.Progress.GridPoints)
	}
	w := do(t, s, "GET", "/v1/jobs/"+st.ID+"/result", "")
	if w.Code != http.StatusOK {
		t.Fatalf("result = %d (body %s)", w.Code, w.Body)
	}
	env := decodeBody[api.ShardEnvelope](t, w)
	if env.First != 2 || env.Count != 3 || env.PointsStreamed != 6 {
		t.Fatalf("envelope = first %d count %d streamed %d, want 2/3/6", env.First, env.Count, env.PointsStreamed)
	}
	if env.Task != "All kernels" || len(env.Survivors) == 0 {
		t.Fatalf("envelope task %q, %d survivors", env.Task, len(env.Survivors))
	}
	for _, sp := range env.Survivors {
		// Global IDs for shapes [2,5) of a 2-cell grid live in [4,10).
		if sp.Index < 4 || sp.Index >= 10 {
			t.Fatalf("survivor index %d outside shard's global range [4,10)", sp.Index)
		}
		var cfg map[string]any
		if err := json.Unmarshal(sp.Config, &cfg); err != nil || len(cfg) == 0 {
			t.Fatalf("survivor config %s: %v", sp.Config, err)
		}
	}
}

// TestJobCheckpointEndpoint drives GET /v1/jobs/{id}/checkpoint through all
// three outcomes — 404 unknown, 200 while a checkpoint exists, and 409 after
// success clears it — using a held runner so the timing is deterministic.
func TestJobCheckpointEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, "GET", "/v1/jobs/j000000000000/checkpoint", "")
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", w.Code)
	}

	saved := make(chan struct{})
	release := make(chan struct{})
	s.Jobs().SetRunner("hold", func(ctx context.Context, rc job.RunContext) (json.RawMessage, error) {
		if err := rc.SaveCheckpoint(json.RawMessage(`{"mark":1}`)); err != nil {
			return nil, err
		}
		close(saved)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return json.RawMessage(`{}`), nil
	})
	st, err := s.Jobs().SubmitJob(job.Submission{Kind: "hold", Request: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	<-saved
	w = do(t, s, "GET", "/v1/jobs/"+st.ID+"/checkpoint", "")
	if w.Code != http.StatusOK || strings.TrimSpace(w.Body.String()) != `{"mark":1}` {
		t.Fatalf("live checkpoint = %d %q", w.Code, w.Body)
	}
	close(release)
	waitJobState(t, s, st.ID, api.JobSucceeded)
	w = do(t, s, "GET", "/v1/jobs/"+st.ID+"/checkpoint", "")
	if w.Code != http.StatusConflict {
		t.Fatalf("after success = %d, want 409 (body %s)", w.Code, w.Body)
	}
	if env := decodeBody[api.ErrorEnvelope](t, w); env.Error.Code != api.CodeNotReady {
		t.Fatalf("error code = %q, want %q", env.Error.Code, api.CodeNotReady)
	}
}

// TestUnknownRolePanics pins the constructor's guard against typo'd roles.
func TestUnknownRolePanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "unknown role") {
			t.Fatalf("recover = %v, want unknown-role panic", r)
		}
	}()
	New(Config{Role: "manager", Logger: quietLogger()})
}
