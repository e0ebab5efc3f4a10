package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"cordoba"
	"cordoba/api"
	"cordoba/client"
	"cordoba/internal/cluster"
	"cordoba/internal/job"
	"cordoba/internal/server"
)

// setups is how many times each run builds its daemons; setup_s is the
// median.
const setups = 9

// jobRig is the daemon set behind batch and cluster: one daemon with a dir
// checkpoint store, or a coordinator with that store fronting two workers.
type jobRig struct {
	coord   *daemon
	workers []*daemon
	cl      *client.Client
	shards  int
}

func (r *jobRig) daemons() []*daemon { return append([]*daemon{r.coord}, r.workers...) }

func (r *jobRig) stop() error {
	var first error
	for _, d := range r.daemons() {
		if d == nil {
			continue
		}
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// setupJobs builds the daemons, waits for cluster membership, and runs one
// small warm-up job end to end. jobDir persists across a run's set-ups, so
// later set-ups scan the job records earlier ones left.
func setupJobs(clustered, traced bool, jobDir string) (*jobRig, time.Duration, error) {
	start := time.Now()
	r := &jobRig{}
	cfg := server.Config{JobWorkers: 1, PoolSize: 1, EvalWorkers: 2, JobDir: jobDir}
	if clustered {
		r.shards = 2
		for i := 0; i < 2; i++ {
			w, err := startDaemon(server.Config{Role: "worker", JobWorkers: 1, PoolSize: 1, EvalWorkers: 1}, traced)
			if err != nil {
				r.stop()
				return nil, 0, err
			}
			r.workers = append(r.workers, w)
			cfg.ClusterWorkers = append(cfg.ClusterWorkers, w.url)
		}
		cfg.Role = "coordinator"
	}
	coord, err := startDaemon(cfg, traced)
	if err != nil {
		r.stop()
		return nil, 0, err
	}
	r.coord = coord
	r.cl = newClient(coord.url, conns)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for clustered {
		st, err := r.cl.ClusterStatus(ctx)
		if err != nil {
			r.stop()
			return nil, 0, fmt.Errorf("cluster status: %w", err)
		}
		up := 0
		for _, w := range st.Workers {
			if w.State == "up" {
				up++
			}
		}
		if up == len(r.workers) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := runJob(ctx, r.cl, warmJob(r.shards)); err != nil {
		r.stop()
		return nil, 0, fmt.Errorf("warm-up job: %w", err)
	}
	return r, time.Since(start), nil
}

// memoSnap is the summed memo counters of a rig's daemons.
type memoSnap struct{ hits, misses, evictions int64 }

func memoOf(ds []*daemon) memoSnap {
	var m memoSnap
	for _, d := range ds {
		h, mi := d.srv.Memo().Stats()
		m.hits += h
		m.misses += mi
		m.evictions += d.srv.Memo().Evictions()
	}
	return m
}

// jobPhase is one closed-loop job phase as measured.
type jobPhase struct {
	specs    []jobSpec
	runs     []*jobRun
	errs     []error
	wall     time.Duration
	cpu      float64
	before   []map[string]float64 // per daemon, coordinator first
	after    []map[string]float64
	memo     [2]memoSnap
	waiting  samples // pool waiting gauge, sampled (traced only)
	rssPeakM float64
}

// runJobPhase submits jobs back to back from one client until dur has
// passed, following each over SSE and reading its result.
func runJobPhase(ctx context.Context, r *jobRig, seed int64, dur time.Duration, sample bool) (*jobPhase, error) {
	ph := &jobPhase{}
	for _, d := range r.daemons() {
		m, err := scrape(d.url)
		if err != nil {
			return nil, err
		}
		ph.before = append(ph.before, m)
	}
	ph.memo[0] = memoOf(r.daemons())
	stopSampling := sampleWaiting(r.coord.url, sample, &ph.waiting)
	cpu0 := cpuSeconds()
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		spec := jobAt(seed, i, r.shards)
		jr, err := runJob(ctx, r.cl, spec.body)
		ph.specs = append(ph.specs, spec)
		ph.runs = append(ph.runs, jr)
		ph.errs = append(ph.errs, err)
	}
	ph.wall = time.Since(start)
	ph.cpu = cpuSeconds() - cpu0
	ph.rssPeakM = peakRSSMB()
	stopSampling()
	ph.memo[1] = memoOf(r.daemons())
	for _, d := range r.daemons() {
		m, err := scrape(d.url)
		if err != nil {
			return nil, err
		}
		ph.after = append(ph.after, m)
	}
	return ph, nil
}

// sampleWaiting polls cordobad_pool_waiting_requests every 50 ms until the
// returned stop is called; without sample it does nothing.
func sampleWaiting(url string, sample bool, into *samples) (stop func()) {
	if !sample {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if m, err := scrape(url); err == nil {
					*into = append(*into, m["cordobad_pool_waiting_requests"])
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// phaseStats are the end-to-end numbers of a job phase.
type phaseStats struct {
	exh, sur  samples // job latencies, seconds
	points    int64
	completed int
}

func statsOf(ph *jobPhase) phaseStats {
	var s phaseStats
	for i, jr := range ph.runs {
		if ph.errs[i] != nil {
			continue
		}
		s.completed++
		if ph.specs[i].kind == jobSurrogate {
			s.sur = append(s.sur, jr.latency.Seconds())
			continue
		}
		s.exh = append(s.exh, jr.latency.Seconds())
		s.points += jr.resp.PointsStreamed
	}
	return s
}

// runJobs runs the batch workload, or with clustered the cluster workload.
func runJobs(o opts, clustered bool) (*report, error) {
	name := "batch"
	if clustered {
		name = "cluster"
	}
	rep := &report{workload: name}
	ctx := context.Background()
	jobDir := filepath.Join(o.dir, "jobs")

	var overheadRef float64
	if o.traced {
		// Reference pass without the timing wrapper: trace.overhead_pct
		// compares the traced pass's job_p50_s against it.
		r, _, err := setupJobs(clustered, false, filepath.Join(o.dir, "jobs-ref"))
		if err != nil {
			return nil, err
		}
		ph, err := runJobPhase(ctx, r, o.seed, o.dur, false)
		r.stop()
		if err != nil {
			return nil, err
		}
		overheadRef = statsOf(ph).exh.median()
	}

	var setupS samples
	var r *jobRig
	for i := 0; i < setups; i++ {
		rig, d, err := setupJobs(clustered, o.traced, jobDir)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
		if i < setups-1 {
			if err := rig.stop(); err != nil {
				return nil, err
			}
			continue
		}
		r = rig
	}
	ph, err := runJobPhase(ctx, r, o.seed, o.dur, o.traced)
	if err != nil {
		r.stop()
		return nil, err
	}
	st := statsOf(ph)

	rep.attempted = len(ph.runs)
	kinds := map[string]int{}
	for i, err := range ph.errs {
		kinds[ph.specs[i].kind.String()]++
		if err != nil {
			rep.failOp("job %d (%v): %v", i, ph.specs[i].kind, err)
		}
	}
	rep.note("phase: %d jobs in %.2fs (closed loop, 1 client) %v", len(ph.runs), ph.wall.Seconds(), kinds)
	var submits, reads samples
	for i, jr := range ph.runs {
		if ph.errs[i] == nil {
			submits = append(submits, ms(jr.submit))
			reads = append(reads, ms(jr.resultDur))
		}
	}
	rep.note("job control: submit p50 %.3f ms p99 %.3f ms; result read p50 %.3f ms p99 %.3f ms (n=%d each)",
		submits.median(), submits.pctOnly(99), reads.median(), reads.pctOnly(99), len(reads))

	rep.e2e("setup_s", "s", setupS.median(), len(setupS))
	// A batch client's request is a job: req_* are the exhaustive jobs'
	// latencies, in milliseconds.
	rep.e2ePct("req_p50_ms", "ms", st.exh, 50, 1000)
	rep.e2ePct("req_p99_ms", "ms", st.exh, 99, 1000)
	rep.e2e("capacity_rps", "1/s", float64(st.completed)/ph.wall.Seconds(), st.completed)
	rep.e2ePct("job_p50_s", "s", st.exh, 50, 1)
	rep.e2e("points_per_s", "1/s", float64(st.points)/ph.wall.Seconds(), len(st.exh))
	rep.e2ePct("surrogate_job_p50_s", "s", st.sur, 50, 1)
	rep.e2e("peak_rss_mb", "MB", ph.rssPeakM, 1)

	// Everything below runs outside the timed window.
	jobChecks(ctx, rep, r, ph, o, clustered)
	counterChecks(rep, r, ph, st)

	if o.traced {
		if err := jobLayers(ctx, rep, r, ph, st, o, clustered, overheadRef); err != nil {
			r.stop()
			return nil, err
		}
	}
	acceptanceCheck(ctx, rep, r.cl)
	if err := r.stop(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	return rep, nil
}

// jobChecks compares served results with in-process oracles: one sampled
// exhaustive job (every one on cluster, against the single-node engine),
// and up to checkedSurrogates surrogate jobs for envelope replay, subset and
// hypervolume.
func jobChecks(ctx context.Context, rep *report, r *jobRig, ph *jobPhase, o opts, clustered bool) {
	var exh, sur []int
	for i, err := range ph.errs {
		if err != nil {
			continue
		}
		if ph.specs[i].kind == jobSurrogate {
			sur = append(sur, i)
		} else {
			exh = append(exh, i)
		}
	}
	check := exh
	if !clustered && len(exh) > 0 {
		k := int(o.seed % int64(len(exh)))
		if k < 0 {
			k = -k
		}
		check = exh[k : k+1]
	}
	for _, i := range check {
		want, err := oracle(ctx, ph.specs[i].body, 2)
		if err == nil {
			err = matchOracle(ph.runs[i].resp, want, ph.specs[i].body, true)
		}
		rep.check(err == nil, "job %d result equals the single-node ExploreStream oracle: %v", i, errText(err))
	}
	var hv samples
	for _, i := range sur[:min(len(sur), checkedSurrogates)] {
		v, err := checkSurrogate(ctx, ph.runs[i].resp, ph.specs[i].body, 2)
		rep.check(err == nil, "surrogate job %d: envelope equals the replay, every design evaluated (hv %.5f): %v", i, v, errText(err))
		if err == nil {
			hv = append(hv, v)
		}
	}
	hvReport(rep, hv)
}

func errText(err error) string {
	if err == nil {
		return "yes"
	}
	return err.Error()
}

// counterChecks reconciles /metrics deltas with what the client saw.
func counterChecks(rep *report, r *jobRig, ph *jobPhase, st phaseStats) {
	streamed := counterDelta(ph.before[0], ph.after[0], "cordobad_dse_points_streamed_total")
	rep.note("counters: coordinator streamed=%.0f pruned=%.0f checkpoints=%.0f submitted=%.0f finished=%.0f",
		streamed,
		counterDelta(ph.before[0], ph.after[0], "cordobad_dse_points_pruned_total"),
		counterDelta(ph.before[0], ph.after[0], "cordobad_jobs_checkpoints_total"),
		counterDelta(ph.before[0], ph.after[0], "cordobad_jobs_submitted_total"),
		counterDelta(ph.before[0], ph.after[0], "cordobad_jobs_finished_total"))
	rep.note("memo: hits=%d misses=%d evictions=%d", ph.memo[1].hits-ph.memo[0].hits,
		ph.memo[1].misses-ph.memo[0].misses, ph.memo[1].evictions-ph.memo[0].evictions)
	rep.check(int64(streamed) == st.points, "client points_streamed sum %d equals cordobad_dse_points_streamed_total delta %.0f", st.points, streamed)
	if len(r.workers) > 0 {
		var ws float64
		for i := 1; i < len(ph.after); i++ {
			ws += counterDelta(ph.before[i], ph.after[i], "cordobad_dse_points_streamed_total")
		}
		retried := counterDelta(ph.before[0], ph.after[0], "cordobad_cluster_shards_retried_total")
		rep.note("counters: workers streamed=%.0f shards dispatched=%.0f merged=%.0f retried=%.0f", ws,
			counterDelta(ph.before[0], ph.after[0], "cordobad_cluster_shards_dispatched_total"),
			counterDelta(ph.before[0], ph.after[0], "cordobad_cluster_shards_merged_total"), retried)
		rep.check(int64(ws) == st.points, "workers' streamed delta %.0f equals the merged total %d", ws, st.points)
		rep.check(retried == 0, "no shard retried (%.0f)", retried)
	}
}

// shardRuns returns the shard jobs the workers ran for a coordinator job
// that ran from..to, per worker.
func shardRuns(r *jobRig, from, to time.Time) [][]job.Status {
	out := make([][]job.Status, len(r.workers))
	for wi, w := range r.workers {
		for _, s := range w.srv.Jobs().List() {
			if s.Kind == "dse-shard" && !s.Created.Before(from) && !s.Created.After(to) {
				out[wi] = append(out[wi], s)
			}
		}
	}
	return out
}

// clusterLayers measures the coordinator's own cost on each sharded job and
// replays the envelope decode and merge of the first one. It returns the
// median decode+merge time in seconds.
func clusterLayers(ctx context.Context, rep *report, r *jobRig, ph *jobPhase) (float64, error) {
	var overhead, skew samples
	firstIdx := -1
	for i, jr := range ph.runs {
		st := jr.status
		if ph.errs[i] != nil || ph.specs[i].kind == jobSurrogate || st.StartedAt == nil || st.FinishedAt == nil {
			continue
		}
		var slowest, fastest time.Duration
		for _, list := range shardRuns(r, *st.StartedAt, *st.FinishedAt) {
			for _, s := range list {
				d := s.Finished.Sub(s.Started)
				slowest = max(slowest, d)
				if fastest == 0 || d < fastest {
					fastest = d
				}
			}
		}
		if slowest == 0 {
			continue
		}
		overhead = append(overhead, (st.FinishedAt.Sub(*st.StartedAt) - slowest).Seconds())
		skew = append(skew, slowest.Seconds()/fastest.Seconds())
		if firstIdx < 0 {
			firstIdx = i
		}
	}
	rep.layerPct("cluster.overhead_s", "s", overhead, 50)
	rep.layerPct("cluster.shard_skew", "ratio", skew, 50)
	if firstIdx < 0 {
		return 0, fmt.Errorf("no sharded job completed")
	}
	st := ph.runs[firstIdx].status
	var raws [][]byte
	for wi, list := range shardRuns(r, *st.StartedAt, *st.FinishedAt) {
		wcl := newClient(r.workers[wi].url, 1)
		for _, s := range list {
			c := &call{capture: true}
			if _, err := wcl.ShardResult(withCall(ctx, c), s.ID); err != nil {
				return 0, fmt.Errorf("shard envelope %s: %w", s.ID, err)
			}
			raws = append(raws, c.body.Bytes())
		}
	}
	task, _, ci, err := engineInputs(ph.specs[firstIdx].body)
	if err != nil {
		return 0, err
	}
	var dec, merge samples
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		var parts []*cordoba.StreamResult
		for _, raw := range raws {
			var env api.ShardEnvelope
			if err := json.Unmarshal(raw, &env); err != nil {
				return 0, err
			}
			res, err := cluster.ResultFromEnvelope(env, task, ci)
			if err != nil {
				return 0, err
			}
			parts = append(parts, res)
		}
		t1 := time.Now()
		if _, err := cordoba.MergeStreamResults(parts); err != nil {
			return 0, err
		}
		dec = append(dec, ms(t1.Sub(t0)))
		merge = append(merge, ms(time.Since(t1)))
	}
	rep.layer("cluster.envelope_decode_ms", "ms", dec.median(), len(raws))
	rep.layer("cluster.merge_ms", "ms", merge.median(), len(raws))
	return (dec.median() + merge.median()) / 1000, nil
}

// jobLayers is the traced run's per-layer breakdown of a job phase and its
// reconciliation against the end-to-end time.
func jobLayers(ctx context.Context, rep *report, r *jobRig, ph *jobPhase, st phaseStats, o opts, clustered bool, overheadRef float64) error {
	var handler, wire, queue, run, doneLag, resultRead samples
	var sums struct{ e2e, submit, queue, run, lag, result float64 }
	var reqs, resps [][]byte
	var evals int64
	for i, jr := range ph.runs {
		reqs = append(reqs, []byte(mustJSON(ph.specs[i].body)))
		if ph.errs[i] != nil {
			continue
		}
		resps = append(resps, jr.raw)
		// The submit and result calls; the event stream's handler time is
		// the job's whole run.
		for _, c := range []struct {
			rt   time.Duration
			call *call
		}{{jr.submit, jr.calls[0]}, {jr.resultDur, jr.calls[2]}} {
			if h, ok := r.coord.timer.get(c.call.seq); ok {
				handler = append(handler, ms(h.dur))
				wire = append(wire, ms(c.rt-h.dur))
			}
		}
		s := jr.status
		q, rn := s.StartedAt.Sub(s.CreatedAt), s.FinishedAt.Sub(*s.StartedAt)
		lag := jr.doneAt.Sub(*s.FinishedAt)
		queue = append(queue, ms(q))
		run = append(run, rn.Seconds())
		doneLag = append(doneLag, ms(lag))
		resultRead = append(resultRead, ms(jr.resultDur))
		sums.e2e += jr.latency.Seconds()
		sums.submit += jr.submit.Seconds()
		sums.queue += q.Seconds()
		sums.run += rn.Seconds()
		sums.lag += lag.Seconds()
		sums.result += jr.resultDur.Seconds()
		if jr.resp.Surrogate != nil {
			evals += jr.resp.Surrogate.EvaluationsUsed
		}
	}
	b, a := ph.before[0], ph.after[0]
	hits := counterDelta(b, a, "cordobad_cache_hits_total")
	lookups := hits + counterDelta(b, a, "cordobad_cache_misses_total")
	// Summed over the daemons: on cluster the workers stream and checkpoint
	// the shards, and the coordinator counts the merged totals again.
	streamed, pruned, checkpoints := 0.0, 0.0, 0.0
	for i := range ph.after {
		streamed += counterDelta(ph.before[i], ph.after[i], "cordobad_dse_points_streamed_total")
		pruned += counterDelta(ph.before[i], ph.after[i], "cordobad_dse_points_pruned_total")
		checkpoints += counterDelta(ph.before[i], ph.after[i], "cordobad_jobs_checkpoints_total")
	}
	memoHits := ph.memo[1].hits - ph.memo[0].hits
	memoMisses := ph.memo[1].misses - ph.memo[0].misses

	rep.layerPct("server.handler_ms_p50", "ms", handler, 50)
	rep.layerPct("server.wire_ms_p50", "ms", wire, 50)
	rep.layer("server.cache_hit_ratio", "ratio", ratio(hits, lookups), int(lookups))
	rep.layer("server.pool_waiting_mean", "count", ph.waiting.mean(), len(ph.waiting))
	rep.layer("dse.memo_hit_ratio", "ratio", ratio(float64(memoHits), float64(memoHits+memoMisses)), int(memoHits+memoMisses))
	rep.layer("dse.memo_evictions", "count", float64(ph.memo[1].evictions-ph.memo[0].evictions), 1)
	rep.layer("dse.pruned_ratio", "ratio", ratio(pruned, streamed), int(streamed))
	rep.layerPct("job.queue_wait_ms", "ms", queue, 50)
	rep.layerPct("job.run_s", "s", run, 50)
	rep.layer("job.checkpoints", "count", checkpoints, 1)
	rep.layerPct("client.done_lag_ms", "ms", doneLag, 50)
	rep.layerPct("client.result_read_ms", "ms", resultRead, 50)
	rep.layer("cluster.shards_retried", "count", counterDelta(b, a, "cordobad_cluster_shards_retried_total"), 1)

	// Replays: the first flat and the first partition grid, the first
	// surrogate grid, every request body and result.
	var ers []*engineReplay
	var sts []*surrogateTiming
	byKind := map[jobKind]*engineReplay{}
	seen := map[jobKind]bool{}
	for i, spec := range ph.specs {
		if ph.errs[i] != nil || seen[spec.kind] {
			continue
		}
		seen[spec.kind] = true
		if spec.kind == jobSurrogate {
			t, err := replaySurrogate(ctx, spec.body, 2)
			if err != nil {
				return err
			}
			sts = append(sts, t)
			continue
		}
		er, err := replayEngine(ctx, spec.body, 2, nil)
		if err != nil {
			return err
		}
		ers = append(ers, er)
		byKind[spec.kind] = er
	}
	if len(ers) == 0 || len(sts) == 0 {
		return fmt.Errorf("traced run completed no exhaustive or no surrogate job")
	}
	engineLayers(rep, ers, memoMisses)
	surrogateLayers(rep, sts)
	decUs, encUs, err := replayAPI(reqs, resps)
	if err != nil {
		return err
	}
	rep.layer("api.decode_us", "us", decUs, len(reqs))
	rep.layer("api.encode_us", "us", encUs, len(resps))
	putMs, err := replayPut(filepath.Join(o.dir, "put"), ph.specs[0].body, ers[0].ckpt)
	if err != nil {
		return err
	}
	rep.layer("job.checkpoint_put_ms", "ms", putMs, 20)
	clusterS := 0.0
	if clustered {
		if clusterS, err = clusterLayers(ctx, rep, r, ph); err != nil {
			return err
		}
	}
	traced := st.exh.median()
	rep.layer("trace.overhead_pct", "%", 100*(traced-overheadRef)/overheadRef, 2)

	// Reconciliation. Wall stages are sequential per job, so they sum to the
	// end-to-end time; the engine runs on parallel eval workers, so its
	// stages reconcile against process CPU seconds instead.
	jobs := float64(len(resps))
	rep.note("reconciliation, wall seconds summed over %d completed jobs:", len(resps))
	rep.note("  %-44s %10.4f", "end-to-end (submit -> result bytes)", sums.e2e)
	rep.note("  %-44s %10.4f", "client submit round trip", sums.submit)
	rep.note("  %-44s %10.4f", "job queue wait", sums.queue)
	rep.note("  %-44s %10.4f", "job run", sums.run)
	rep.note("  %-44s %10.4f", "SSE done lag", sums.lag)
	rep.note("  %-44s %10.4f", "result read", sums.result)
	rep.note("  %-44s %10.4f", "unexplained remainder", sums.e2e-sums.submit-sums.queue-sums.run-sums.lag-sums.result)
	// Each exhaustive job is charged its own kind's replayed CPU per point.
	var exhCPU float64
	for i, jr := range ph.runs {
		if ph.errs[i] != nil || ph.specs[i].kind == jobSurrogate {
			continue
		}
		er := byKind[ph.specs[i].kind]
		if er == nil {
			er = ers[0]
		}
		exhCPU += float64(jr.resp.PointsStreamed) * er.streamCPU / float64(er.points)
	}
	var surCPU float64
	for _, t := range sts {
		surCPU += t.cpu / float64(t.evals)
	}
	surCPU *= float64(evals) / float64(len(sts))
	ckptCPU := checkpoints * putMs / 1000
	apiCPU := jobs * (decUs + encUs) / 1e6
	clusterCPU := float64(len(st.exh)) * clusterS
	rep.note("reconciliation, process CPU seconds over the phase (%.2f s wall):", ph.wall.Seconds())
	rep.note("  %-44s %10.4f", "process CPU", ph.cpu)
	rep.note("  %-44s %10.4f", "exhaustive engine (replayed CPU/point by kind)", exhCPU)
	e := ers[0]
	perPoint := func(d time.Duration, calls int64) float64 { return d.Seconds() / float64(calls) }
	rep.note("  %-44s %10.4f", "  of which accel shape profiles", float64(memoMisses)*perPoint(e.profileDur, int64(e.profileCalls)))
	rep.note("  %-44s %10.4f", "  of which accel cell costs", float64(st.points)*float64(e.kernels)*perPoint(e.costDur, e.costCalls))
	rep.note("  %-44s %10.4f", "  of which carbon embodied", float64(st.points)*float64(e.embCalls)/float64(e.points)*perPoint(e.embDur, int64(e.embCalls)))
	rep.note("  %-44s %10.4f", "  of which pareto offers", float64(st.points)*float64(e.offers)/float64(e.points)*perPoint(e.offerDur, e.offers))
	rep.note("  %-44s %10.4f", "surrogate engine (replayed CPU/eval)", surCPU)
	rep.note("  %-44s %10.4f", "checkpoint writes", ckptCPU)
	rep.note("  %-44s %10.4f", "api decode+encode", apiCPU)
	rep.note("  %-44s %10.4f", "cluster envelope decode+merge", clusterCPU)
	rep.note("  %-44s %10.4f", "unexplained remainder", ph.cpu-exhCPU-surCPU-ckptCPU-apiCPU-clusterCPU)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
