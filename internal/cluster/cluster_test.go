package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cordoba"
	"cordoba/api"
	"cordoba/client"
	"cordoba/internal/cluster"
	"cordoba/internal/server"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newWorker assembles one in-process cordobad worker behind httptest.
func newWorker(t testing.TB, cfg server.Config) *httptest.Server {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close()
	})
	return ts
}

func workerURLs(t testing.TB, n int, cfg server.Config) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = newWorker(t, cfg).URL
	}
	return urls
}

// gatedWorker is an in-process worker whose job submissions wait until gate
// closes (or ten seconds pass). The failure tests use it so the faulty
// worker takes a shard before the healthy ones can run the whole plan:
// followed over SSE, a healthy shard of these grids finishes in
// milliseconds, before another dispatcher may even have started.
func gatedWorker(t testing.TB, cfg server.Config, gate <-chan struct{}) *httptest.Server {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	srv := server.New(cfg)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			select {
			case <-gate:
			case <-time.After(10 * time.Second):
			}
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close()
	})
	return ts
}

// newCoordinator builds a test-tuned coordinator over the given workers.
func newCoordinator(t testing.TB, urls []string, tune func(*cluster.Config)) *cluster.Coordinator {
	t.Helper()
	cfg := cluster.Config{
		Workers:        urls,
		HeartbeatEvery: 250 * time.Millisecond,
		Logger:         quietLogger(),
	}
	if tune != nil {
		tune(&cfg)
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

func allKernels(t testing.TB) cordoba.Task {
	t.Helper()
	task, err := cordoba.PaperTask(cordoba.TaskAllKernels)
	if err != nil {
		t.Fatal(err)
	}
	return task
}

// smallKnobs is a 12-shape, 48-point grid — big enough for several shards,
// small enough to run under the race detector.
func smallKnobs() *api.KnobRangeSpec {
	return &api.KnobRangeSpec{
		MACArrays: []int{1, 2, 4, 8},
		SRAMMB:    []float64{1, 2, 4},
		VDDScales: []float64{1.0, 0.9},
		Nodes:     []string{"7nm", "5nm"},
	}
}

// reqFor renders knobs as the fully defaulted request body a worker's shard
// job validates (the same defaults POST /v1/jobs applies on submission).
func reqFor(knobs *api.KnobRangeSpec) api.DSERequest {
	return api.DSERequest{
		Task:    "All kernels",
		Process: "7nm",
		Fab:     "coal-heavy",
		CIUse:   380,
		Knobs:   knobs,
		Sweep:   &api.SweepSpec{Lo: 1, Hi: 1e12, Points: 13},
	}
}

// gridFor mirrors the server's knobGrid resolution of the same knobs.
func gridFor(knobs *api.KnobRangeSpec) cordoba.KnobGrid {
	return cordoba.KnobGrid{
		MACArrays: knobs.MACArrays,
		SRAMMB:    knobs.SRAMMB,
		VDDScales: knobs.VDDScales,
		Nodes:     knobs.Nodes,
	}
}

// singleNode runs the whole grid on this process — the reference every
// sharded run must reproduce.
func singleNode(t testing.TB, g cordoba.KnobGrid) *cordoba.StreamResult {
	t.Helper()
	res, err := cordoba.ExploreStreamAt(context.Background(), allKernels(t), g, cordoba.FabCoal, 380, cordoba.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertMatchesSingleNode: the survivor envelope is byte-identical (points
// and global IDs), the integer counters exact, and the floating-point
// aggregate sums equal to within re-association.
func assertMatchesSingleNode(t testing.TB, merged, single *cordoba.StreamResult) {
	t.Helper()
	mb, err := json.Marshal(merged.Space.Points)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := json.Marshal(single.Space.Points)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mb, sb) {
		t.Fatalf("merged survivor envelope is not byte-identical to single node:\nmerged: %.200s\nsingle: %.200s", mb, sb)
	}
	if !reflect.DeepEqual(merged.IDs, single.IDs) {
		t.Fatalf("merged survivor IDs = %v, single node = %v", merged.IDs, single.IDs)
	}
	if merged.Total != single.Total || merged.PrePruned != single.PrePruned || merged.Offered != single.Offered {
		t.Fatalf("counters differ: merged total/prepruned/offered = %d/%d/%d, single = %d/%d/%d",
			merged.Total, merged.PrePruned, merged.Offered, single.Total, single.PrePruned, single.Offered)
	}
	if !closeRel(merged.SumEDP, single.SumEDP) || !closeRel(merged.SumEmbD, single.SumEmbD) {
		t.Fatalf("aggregate sums diverge: merged %g/%g, single %g/%g",
			merged.SumEDP, merged.SumEmbD, single.SumEDP, single.SumEmbD)
	}
}

func closeRel(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// TestShardedRunMatchesSingleNode: three in-process workers, five shards,
// merged result identical to one node running the whole grid.
func TestShardedRunMatchesSingleNode(t *testing.T) {
	urls := workerURLs(t, 3, server.Config{CheckpointEvery: 2})
	coord := newCoordinator(t, urls, nil)

	knobs := smallKnobs()
	res, err := coord.Run(context.Background(), reqFor(knobs), allKernels(t), 380, cluster.RunOptions{Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retried != 0 {
		t.Fatalf("healthy run retried %d shards", res.Retried)
	}
	if len(res.Envelopes) != 5 {
		t.Fatalf("got %d envelopes, want 5", len(res.Envelopes))
	}
	assertMatchesSingleNode(t, res.Merged, singleNode(t, gridFor(knobs)))

	st := coord.Stats()
	if st.Role != "coordinator" || st.ShardsDispatched != 5 || st.ShardsMerged != 5 || st.ShardsRetried != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestShardedRunMillionPoints is the scale acceptance check: a 2^20-point
// grid sharded across three workers merges byte-identically to a single-node
// ExploreStream. Progress and checkpoints flow the whole way. Skipped under
// the race detector, where the grid walk takes minutes.
func TestShardedRunMillionPoints(t *testing.T) {
	if raceEnabled {
		t.Skip("million-point grid is too slow under the race detector")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	knobs := millionKnobs()
	g := gridFor(knobs)
	if g.Size() != 1<<20 {
		t.Fatalf("grid has %d points, want %d", g.Size(), 1<<20)
	}

	urls := workerURLs(t, 3, server.Config{})
	coord := newCoordinator(t, urls, nil)

	var last cluster.Progress
	res, err := coord.Run(context.Background(), reqFor(knobs), allKernels(t), 380, cluster.RunOptions{
		Shards:     3,
		OnProgress: func(p cluster.Progress) { last = p },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Envelopes) != 3 || res.Retried != 0 {
		t.Fatalf("envelopes = %d, retried = %d", len(res.Envelopes), res.Retried)
	}
	if last.ShardsDone != 3 || last.ShardsTotal != 3 || last.Streamed != 1<<20 {
		t.Fatalf("final progress = %+v", last)
	}
	assertMatchesSingleNode(t, res.Merged, singleNode(t, g))
}

// millionKnobs is a 1024-shape × 1024-cell grid: exactly 2^20 points, the
// default single-node grid cap.
func millionKnobs() *api.KnobRangeSpec {
	macs := make([]int, 32)
	srams := make([]float64, 32)
	for i := range macs {
		macs[i] = i + 1
		srams[i] = float64(i + 1)
	}
	vdds := make([]float64, 512)
	for i := range vdds {
		vdds[i] = 0.75 + float64(i)/2048
	}
	return &api.KnobRangeSpec{MACArrays: macs, SRAMMB: srams, VDDScales: vdds, Nodes: []string{"7nm", "5nm"}}
}

// TestShardMergeFollowsSlowestShard: the coordinator learns of each shard's
// completion from the worker's event stream, not on a status-poll cadence,
// so a run of tiny shards merges within a few milliseconds of its slowest
// shard finishing. A 150 ms status poll would park every shard for at
// least one interval. The lag also covers the last envelope's fetch,
// decode and merge, so the race detector's slowdown gets twice the bound —
// still under one such interval.
func TestShardMergeFollowsSlowestShard(t *testing.T) {
	bound := 50 * time.Millisecond
	if raceEnabled {
		bound = 100 * time.Millisecond
	}
	urls := workerURLs(t, 2, server.Config{})
	coord, err := cluster.New(cluster.Config{Workers: urls, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	knobs := smallKnobs()
	res, err := coord.Run(context.Background(), reqFor(knobs), allKernels(t), 380, cluster.RunOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	merged := time.Now()
	assertMatchesSingleNode(t, res.Merged, singleNode(t, gridFor(knobs)))

	var slowest time.Time
	shards := 0
	for _, u := range urls {
		jobs, err := client.New(u).ListJobs(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if j.FinishedAt == nil {
				t.Fatalf("shard job %s has no finished_at: %+v", j.ID, j)
			}
			shards++
			if j.FinishedAt.After(slowest) {
				slowest = *j.FinishedAt
			}
		}
	}
	if shards != 4 {
		t.Fatalf("workers ran %d shard jobs, want 4", shards)
	}
	lag := merged.Sub(slowest)
	t.Logf("merge landed %v after the slowest shard finished", lag)
	if lag > bound {
		t.Fatalf("merge landed %v after the slowest shard finished, want <= %v", lag, bound)
	}
}

// TestWorkerLossRequeues kills one worker mid-shard (its transport starts
// aborting connections right after it accepts a shard) and checks the run
// still converges to the single-node result via requeue on the survivors.
func TestWorkerLossRequeues(t *testing.T) {
	dyingTook := make(chan struct{})
	urls := []string{
		gatedWorker(t, server.Config{CheckpointEvery: 2}, dyingTook).URL,
		gatedWorker(t, server.Config{CheckpointEvery: 2}, dyingTook).URL,
	}

	// The third worker accepts exactly one job submission, then drops every
	// connection — a process death right after taking a shard.
	dying := server.New(server.Config{Logger: quietLogger()})
	var killed atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if killed.Load() {
			panic(http.ErrAbortHandler)
		}
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			killed.Store(true) // serve this submit, abort everything after
			close(dyingTook)
		}
		dying.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		_ = dying.Close()
	})
	urls = append(urls, ts.URL)

	coord := newCoordinator(t, urls, nil)
	knobs := smallKnobs()
	res, err := coord.Run(context.Background(), reqFor(knobs), allKernels(t), 380, cluster.RunOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !killed.Load() {
		t.Fatal("the dying worker never received a shard — the test exercised nothing")
	}
	if res.Retried < 1 {
		t.Fatalf("retried = %d, want >= 1 after a worker death", res.Retried)
	}
	assertMatchesSingleNode(t, res.Merged, singleNode(t, gridFor(knobs)))
}

// genCheckpoint runs a shard locally until its first checkpoint and returns
// that snapshot's JSON — a real mid-shard checkpoint for the fake worker to
// serve.
func genCheckpoint(t *testing.T, g cordoba.KnobGrid, first, count int) json.RawMessage {
	t.Helper()
	var captured json.RawMessage
	errStop := errors.New("captured")
	_, err := cordoba.ExploreStreamCheckpointed(context.Background(), allKernels(t), g, cordoba.FabCoal, 380,
		cordoba.CheckpointOptions{
			Every: 1,
			Shard: &cordoba.StreamShard{First: first, Count: count},
			OnCheckpoint: func(st *cordoba.StreamCheckpoint) error {
				b, err := json.Marshal(st)
				if err != nil {
					return err
				}
				captured = b
				return errStop
			},
		})
	if !errors.Is(err, errStop) {
		t.Fatalf("expected the capture sentinel, got %v", err)
	}
	return captured
}

// TestStallSalvagesCheckpoint: a worker that accepts a shard and then stops
// making progress gets its checkpoint salvaged and its shard requeued; the
// replacement resumes from the salvage and the run converges to the
// single-node result.
func TestStallSalvagesCheckpoint(t *testing.T) {
	knobs := smallKnobs()
	g := gridFor(knobs)

	// Mid-shard checkpoints for both halves of a 2-shard plan — the fake
	// worker serves whichever shard it is assigned.
	checkpoints := map[int]json.RawMessage{
		0: genCheckpoint(t, g, 0, 6),
		6: genCheckpoint(t, g, 6, 6),
	}

	var (
		submitted  atomic.Bool
		shardFirst atomic.Int64
		cpFetches  atomic.Int64
		fakeTook   = make(chan struct{}) // closed on the fake worker's first submission
	)
	writeStatus := func(w http.ResponseWriter, code int, st api.JobStatus) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(st)
	}
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
			w.Write([]byte(`{"status":"ok"}`))
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			if submitted.Swap(true) {
				// Second assignment: this worker is done pretending — abort
				// so the coordinator retires it and the real worker finishes.
				panic(http.ErrAbortHandler)
			}
			var req api.DSERequest
			body, _ := io.ReadAll(r.Body)
			_ = json.Unmarshal(body, &req)
			shardFirst.Store(int64(req.Shard.First))
			close(fakeTook)
			writeStatus(w, http.StatusAccepted, api.JobStatus{ID: "stall-1", Kind: "dse-shard", State: api.JobQueued})
		case r.Method == http.MethodGet && r.URL.Path == "/v1/jobs/stall-1/events":
			// Running, forever, with frozen progress: a stalled shard. The
			// stream sends its snapshot, then stays open and silent.
			w.Header().Set("Content-Type", "text/event-stream")
			w.WriteHeader(http.StatusOK)
			b, _ := json.Marshal(api.JobEvent{Seq: 1, Type: api.EventState, Job: api.JobStatus{ID: "stall-1", Kind: "dse-shard",
				State: api.JobRunning, Progress: api.JobProgress{ShapesDone: 1, ShapesTotal: 6}}})
			fmt.Fprintf(w, "id: 1\nevent: %s\ndata: %s\n\n", api.EventState, b)
			w.(http.Flusher).Flush()
			<-r.Context().Done()
		case r.Method == http.MethodGet && r.URL.Path == "/v1/jobs/stall-1/checkpoint":
			cpFetches.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.Write(checkpoints[int(shardFirst.Load())])
		case r.Method == http.MethodDelete && r.URL.Path == "/v1/jobs/stall-1":
			writeStatus(w, http.StatusOK, api.JobStatus{ID: "stall-1", Kind: "dse-shard", State: api.JobCanceled})
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(fake.Close)

	urls := []string{gatedWorker(t, server.Config{CheckpointEvery: 2}, fakeTook).URL, fake.URL}
	coord := newCoordinator(t, urls, func(cfg *cluster.Config) {
		cfg.ShardTimeout = 200 * time.Millisecond
	})

	res, err := coord.Run(context.Background(), reqFor(knobs), allKernels(t), 380, cluster.RunOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !submitted.Load() {
		t.Fatal("the stalling worker never received a shard — the test exercised nothing")
	}
	if cpFetches.Load() < 1 {
		t.Fatal("the coordinator never salvaged the stalled worker's checkpoint")
	}
	if res.Retried < 1 {
		t.Fatalf("retried = %d, want >= 1 after a stall", res.Retried)
	}
	assertMatchesSingleNode(t, res.Merged, singleNode(t, g))
}

// TestCoordinatorResume: a run interrupted after its first finished shard
// resumes from the coordinator checkpoint, skipping the finished shard, and
// still merges to the single-node result. A checkpoint from a different
// request is rejected by fingerprint.
func TestCoordinatorResume(t *testing.T) {
	urls := workerURLs(t, 2, server.Config{CheckpointEvery: 2})
	coord := newCoordinator(t, urls, nil)

	knobs := smallKnobs()
	req := reqFor(knobs)
	task := allKernels(t)

	var captured *cluster.Checkpoint
	errStop := errors.New("interrupted")
	_, err := coord.Run(context.Background(), req, task, 380, cluster.RunOptions{
		Shards: 4,
		OnShardDone: func(cp *cluster.Checkpoint) error {
			captured = cp
			return errStop
		},
	})
	if err == nil || !errors.Is(err, errStop) {
		t.Fatalf("interrupted run returned %v", err)
	}
	if captured == nil || len(captured.Done) != 1 || captured.Shards != 4 {
		t.Fatalf("captured checkpoint = %+v", captured)
	}

	res, err := coord.Run(context.Background(), req, task, 380, cluster.RunOptions{Shards: 4, Resume: captured})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Envelopes) != 4 {
		t.Fatalf("resumed run has %d envelopes, want 4", len(res.Envelopes))
	}
	assertMatchesSingleNode(t, res.Merged, singleNode(t, gridFor(knobs)))

	// A checkpoint taken for different parameters must not resume this run.
	other := *captured
	other.Fingerprint = "0000"
	if _, err := coord.Run(context.Background(), req, task, 380, cluster.RunOptions{Shards: 4, Resume: &other}); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("mismatched checkpoint resumed anyway: %v", err)
	}
}

// TestHeartbeatMembership: the membership listing tracks which workers
// answer /healthz.
func TestHeartbeatMembership(t *testing.T) {
	up := newWorker(t, server.Config{})
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close() // a worker that is already gone

	coord := newCoordinator(t, []string{up.URL, down.URL}, func(cfg *cluster.Config) {
		cfg.HeartbeatEvery = 50 * time.Millisecond
	})

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := coord.Stats()
		if len(st.Workers) == 2 && st.Workers[0].State == "up" && st.Workers[1].State == "down" &&
			st.Workers[0].LastHeartbeat != nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("membership never settled: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterEndToEnd drives the whole distributed surface over HTTP: a
// typed client submits a sharded job to a coordinator daemon, which fans it
// out to two worker daemons; the job's streamed progress reports the shard
// fan-out, the merged result matches a standalone daemon's synchronous
// answer, and the coordinator's metrics account for every shard.
func TestClusterEndToEnd(t *testing.T) {
	workers := workerURLs(t, 2, server.Config{Role: "worker"})
	coordSrv := server.New(server.Config{
		Role:           "coordinator",
		ClusterWorkers: workers,
		HeartbeatEvery: 50 * time.Millisecond,
		Logger:         quietLogger(),
	})
	ts := httptest.NewServer(coordSrv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = coordSrv.Close()
	})
	cli := client.New(ts.URL, client.WithPollInterval(10*time.Millisecond))
	ctx := context.Background()

	cs, err := cli.ClusterStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Role != "coordinator" || len(cs.Workers) != 2 {
		t.Fatalf("cluster status = %+v", cs)
	}

	req := reqFor(smallKnobs())
	req.Shards = 5
	st, err := cli.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != "dse-cluster" {
		t.Fatalf("job kind = %q, want dse-cluster", st.Kind)
	}
	var shardsTotal int
	fin, err := cli.WaitJobProgress(ctx, st.ID, func(s api.JobStatus) {
		if s.Progress.ShardsTotal > shardsTotal {
			shardsTotal = s.Progress.ShardsTotal
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != api.JobSucceeded {
		t.Fatalf("job ended %q: %s", fin.State, fin.Error)
	}
	if shardsTotal != 5 || fin.Progress.ShardsDone != 5 {
		t.Fatalf("shard progress: saw total %d, final done %d, want 5/5", shardsTotal, fin.Progress.ShardsDone)
	}
	got, err := cli.JobResult(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	// The reference: the same request answered synchronously by a
	// standalone daemon that never heard of shards.
	standalone := client.New(newWorker(t, server.Config{}).URL)
	want, err := standalone.DSE(ctx, reqFor(smallKnobs()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Points, want.Points) {
		t.Fatalf("merged points differ from standalone:\ngot:  %+v\nwant: %+v", got.Points, want.Points)
	}
	if !reflect.DeepEqual(got.EverOptimal, want.EverOptimal) {
		t.Fatalf("ever-optimal sets differ: %v vs %v", got.EverOptimal, want.EverOptimal)
	}
	if got.PointsStreamed != want.PointsStreamed || got.PointsPruned != want.PointsPruned ||
		got.EliminatedFraction != want.EliminatedFraction {
		t.Fatalf("counters differ: %d/%d/%g vs %d/%d/%g",
			got.PointsStreamed, got.PointsPruned, got.EliminatedFraction,
			want.PointsStreamed, want.PointsPruned, want.EliminatedFraction)
	}
	if len(got.Sweep) != len(want.Sweep) {
		t.Fatalf("sweep lengths differ: %d vs %d", len(got.Sweep), len(want.Sweep))
	}
	for i := range got.Sweep {
		g, w := got.Sweep[i], want.Sweep[i]
		if g.OptimalID != w.OptimalID || g.TCDPGS != w.TCDPGS || !closeRel(g.MeanTCDPGS, w.MeanTCDPGS) {
			t.Fatalf("sweep[%d] differs: %+v vs %+v", i, g, w)
		}
	}

	cs, err = cli.ClusterStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cs.ShardsMerged != 5 || cs.ShardsDispatched != 5 {
		t.Fatalf("post-run stats = %+v", cs)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"cordobad_cluster_shards_merged_total 5",
		"cordobad_cluster_shards_dispatched_total 5",
		`cordobad_cluster_worker_up{worker="` + workers[0] + `"} 1`,
	} {
		if !strings.Contains(string(body), frag) {
			t.Fatalf("metrics missing %q:\n%s", frag, body)
		}
	}

	// A worker also answers shard jobs directly through the typed client.
	wcli := client.New(workers[0], client.WithPollInterval(10*time.Millisecond))
	sreq := reqFor(smallKnobs())
	sreq.Shard = &api.ShardSpec{First: 3, Count: 2}
	sst, err := wcli.SubmitJob(ctx, sreq)
	if err != nil {
		t.Fatal(err)
	}
	if sst.Kind != "dse-shard" {
		t.Fatalf("worker job kind = %q, want dse-shard", sst.Kind)
	}
	if _, err := wcli.WaitJob(ctx, sst.ID); err != nil {
		t.Fatal(err)
	}
	env, err := wcli.ShardResult(ctx, sst.ID)
	if err != nil {
		t.Fatal(err)
	}
	cells := gridFor(smallKnobs()).Size() / 12
	if env.First != 3 || env.Count != 2 || env.PointsStreamed != 2*cells {
		t.Fatalf("shard envelope = first %d count %d streamed %d, want 3/2/%d",
			env.First, env.Count, env.PointsStreamed, 2*cells)
	}
}

// TestClusterTraceJobMatchesStandalone pins what a sharded run reproduces
// of a standalone one, on a ci_trace request: the points, ever-optimal set,
// sweep optima, counters and every echoed request field exactly, and each
// sweep entry's mean_tcdp_gs to a relative 1e-12 (the shard sums
// re-associate floating-point additions). It also guards the coordinator's
// forwarding: workers receive the unresolved body, so they resolve the trace
// themselves rather than rejecting ci_trace next to a resolved ci_use.
func TestClusterTraceJobMatchesStandalone(t *testing.T) {
	workers := workerURLs(t, 2, server.Config{Role: "worker"})
	coordSrv := server.New(server.Config{
		Role:           "coordinator",
		ClusterWorkers: workers,
		HeartbeatEvery: 50 * time.Millisecond,
		Logger:         quietLogger(),
	})
	ts := httptest.NewServer(coordSrv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = coordSrv.Close()
	})
	ctx := context.Background()

	req := reqFor(smallKnobs())
	req.CIUse = 0
	req.CITrace = "california-duck"
	standalone := client.New(newWorker(t, server.Config{}).URL)
	want, err := standalone.DSE(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	req.Shards = 3
	cli := client.New(ts.URL, client.WithPollInterval(10*time.Millisecond))
	st, err := cli.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := cli.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != api.JobSucceeded {
		t.Fatalf("job ended %q: %s", fin.State, fin.Error)
	}
	got, err := cli.JobResult(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	if got.CITrace != "california-duck" || got.CIUse <= 0 || got.CIUse == 380 {
		t.Fatalf("response ci_trace %q ci_use %g, want the trace's average intensity", got.CITrace, got.CIUse)
	}
	if len(got.Sweep) != len(want.Sweep) {
		t.Fatalf("sweep lengths differ: %d vs %d", len(got.Sweep), len(want.Sweep))
	}
	for i := range got.Sweep {
		if !closeRel(got.Sweep[i].MeanTCDPGS, want.Sweep[i].MeanTCDPGS) {
			t.Fatalf("sweep[%d] mean_tcdp_gs %g vs %g", i, got.Sweep[i].MeanTCDPGS, want.Sweep[i].MeanTCDPGS)
		}
		got.Sweep[i].MeanTCDPGS, want.Sweep[i].MeanTCDPGS = 0, 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded response differs from standalone beyond the means:\ngot:  %+v\nwant: %+v", got, want)
	}
}
