package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"cordoba"
	"cordoba/api"
	"cordoba/client"
	"cordoba/internal/server"
)

const (
	// openLoopRPS is the open-loop arrival rate, about a fifth of the
	// closed-loop capacity_rps measured on a 2-vCPU host. It is a constant,
	// not derived from each run's capacity, so a change in capacity shows
	// up as a change in latency at the same load.
	openLoopRPS = 60
	// capacityShare, openShare and companionShare split a run between the
	// closed-loop phase, the open-loop phase and the companion jobs.
	capacityShare  = 0.75
	openShare      = 0.10
	companionShare = 0.15
	// conns is the client's connection cap and the daemon's evaluation
	// slots: the host's two CPUs.
	conns = 2
)

type interRig struct {
	d  *daemon
	cl *client.Client
}

// setupInteractive builds the daemon and warms its memo over the whole
// shape pool.
func setupInteractive(pool shapePool, traced bool) (*interRig, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(server.Config{PoolSize: conns, EvalWorkers: 1}, traced)
	if err != nil {
		return nil, 0, err
	}
	cl := newClient(d.url, conns)
	if _, err := cl.DSE(context.Background(), pool.warmBody()); err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return &interRig{d, cl}, time.Since(start), nil
}

// reqRecord is one request as the load generator saw it.
type reqRecord struct {
	req               interReq
	sched, sent, done time.Time
	c                 *call
	resp              *api.DSEResponse // kept for open-loop requests only
	points            int64            // points_streamed of a /v1/dse answer
	err               error
	sum               [32]byte // sha256 of the response body
	raw               []byte   // response body, kept for a sample
}

func (r *reqRecord) latency() time.Duration { return r.done.Sub(r.sched) }

func send(ctx context.Context, cl *client.Client, r interReq, keep bool) *reqRecord {
	rec := &reqRecord{req: r, c: &call{capture: true}}
	rec.sent = time.Now()
	if rec.sched.IsZero() {
		rec.sched = rec.sent
	}
	if r.dse != nil {
		rec.resp, rec.err = cl.DSE(withCall(ctx, rec.c), *r.dse)
		if rec.resp != nil {
			rec.points = rec.resp.PointsStreamed
		}
	} else {
		_, rec.err = cl.Accounting(withCall(ctx, rec.c), *r.acct)
	}
	rec.done = time.Now()
	rec.sum = sha256.Sum256(rec.c.body.Bytes())
	if keep && r.dse != nil {
		rec.raw = append([]byte(nil), rec.c.body.Bytes()...)
	}
	rec.c.body = bytes.Buffer{}
	return rec
}

// closedLoop runs conns clients back to back for dur.
func closedLoop(ctx context.Context, cl *client.Client, gen *interGen, dur time.Duration) ([]*reqRecord, time.Duration) {
	var mu sync.Mutex
	var recs []*reqRecord
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				rec := send(ctx, cl, gen.next(), false)
				// Dropped so that the load generator's own memory, which
				// peak_rss_mb includes, does not grow with the request rate.
				rec.resp = nil
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(start)
}

// openLoop sends requests on a Poisson schedule at rate per second for dur,
// from conns sender goroutines; each request is timed from when it was due.
// The schedule is part of the workload's structure: it is the same for
// every seed, like the request kinds and grid sizes.
func openLoop(ctx context.Context, cl *client.Client, gen *interGen, rate float64, dur time.Duration, keep int) []*reqRecord {
	arrivals := rand.New(rand.NewSource(0xa11))
	var sched []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(arrivals.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			break
		}
		sched = append(sched, t)
	}
	recs := make([]*reqRecord, len(sched))
	reqs := make([]interReq, len(sched))
	for i := range reqs {
		reqs[i] = gen.next()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(sched) {
					return
				}
				due := start.Add(sched[k])
				time.Sleep(time.Until(due))
				rec := send(ctx, cl, reqs[k], k < keep)
				rec.sched = due
				recs[k] = rec
			}
		}()
	}
	wg.Wait()
	return recs
}

// loadPass is one closed-loop plus open-loop pass over a daemon.
type loadPass struct {
	capRecs, openRecs []*reqRecord
	capWall           time.Duration
	capCPU            float64 // process CPU seconds over the closed loop
	openWall          time.Duration
	before, after     map[string]float64
	memo              [2]memoSnap
	waiting           samples
}

func runLoadPass(ctx context.Context, r *interRig, gen *interGen, o opts) (*loadPass, error) {
	lp := &loadPass{}
	var err error
	if lp.before, err = scrape(r.d.url); err != nil {
		return nil, err
	}
	lp.memo[0] = memoOf([]*daemon{r.d})
	capDur := time.Duration(float64(o.dur) * capacityShare)
	stop := sampleWaiting(r.d.url, o.traced, &lp.waiting)
	c0 := cpuSeconds()
	lp.capRecs, lp.capWall = closedLoop(ctx, r.cl, gen, capDur)
	lp.capCPU = cpuSeconds() - c0
	stop()
	t0 := time.Now()
	lp.openRecs = openLoop(ctx, r.cl, gen, openLoopRPS, time.Duration(float64(o.dur)*openShare), 64)
	lp.openWall = time.Since(t0)
	lp.memo[1] = memoOf([]*daemon{r.d})
	if lp.after, err = scrape(r.d.url); err != nil {
		return nil, err
	}
	return lp, nil
}

// knobMiss reports a knob-grid request the daemon evaluated.
func knobMiss(rec *reqRecord) bool {
	return rec.err == nil && rec.c.xcache == "miss" && rec.req.dse != nil && rec.req.dse.Knobs != nil
}

func runInteractive(o opts) (*report, error) {
	rep := &report{workload: "interactive"}
	ctx := context.Background()
	pool := newShapePool(rand.New(rand.NewSource(o.seed ^ 0x9001)))

	var overheadRef float64
	if o.traced {
		// Reference pass without the timing wrapper, for trace.overhead_pct.
		r, _, err := setupInteractive(pool, false)
		if err != nil {
			return nil, err
		}
		lp, err := runLoadPass(ctx, r, newInterGen(o.seed, pool), opts{seed: o.seed, dur: o.dur})
		r.d.stop()
		if err != nil {
			return nil, err
		}
		overheadRef = latencies(lp.capRecs).median()
	}

	var setupS samples
	var r *interRig
	for i := 0; i < setups; i++ {
		rig, d, err := setupInteractive(pool, o.traced)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
		if i < setups-1 {
			if err := rig.d.stop(); err != nil {
				return nil, err
			}
			continue
		}
		r = rig
	}
	defer r.d.stop()
	gen := newInterGen(o.seed, pool)
	lp, err := runLoadPass(ctx, r, gen, o)
	if err != nil {
		return nil, err
	}
	// Read before the companion jobs: two concurrent surrogate searches make
	// the peak depend on how their allocations overlap.
	rss := peakRSSMB()

	all := append(append([]*reqRecord(nil), lp.capRecs...), lp.openRecs...)
	rep.attempted = len(all)
	closed, open := latencies(lp.capRecs), latencies(lp.openRecs)
	byKind := map[string]int{}
	for _, rec := range all {
		byKind[rec.req.kind.String()]++
		if rec.err != nil {
			rep.failOp("%s request: %v", rec.req.kind, rec.err)
		}
	}
	var exh samples
	var capPoints int64
	completedCap := 0
	for _, rec := range lp.capRecs {
		if rec.err == nil {
			completedCap++
		}
		if knobMiss(rec) {
			exh = append(exh, rec.latency().Seconds())
			capPoints += rec.points
		}
	}
	rep.note("closed loop: %d requests in %.2fs from %d clients; open loop: %d requests at %d/s over %.2fs; mix %v",
		len(lp.capRecs), lp.capWall.Seconds(), conns, len(lp.openRecs), openLoopRPS, lp.openWall.Seconds(), byKind)

	p50, b50 := open.pct(50)
	p99, b99 := open.pct(99)
	rep.note("open loop, timed from due time: p50 %.3f ms (n=%d beyond=%d), p99 %.3f ms (beyond=%d)",
		1000*p50, len(open), b50, 1000*p99, b99)
	perKind := map[string]samples{}
	for _, rec := range lp.openRecs {
		if rec.err == nil {
			k := rec.req.kind.String() + "/" + rec.c.xcache
			perKind[k] = append(perKind[k], ms(rec.latency()))
		}
	}
	for _, k := range sortedKeys(perKind) {
		s := perKind[k]
		rep.note("open loop %-18s n=%-5d p50 %8.3f ms  p99 %8.3f ms", k, len(s), s.median(), s.pctOnly(99))
	}

	// The companion jobs: surrogate searches after the request phases for
	// the rest of the run, two at a time so both CPUs stay busy; the first
	// checkedSurrogates are checked, as on cluster.
	var sur samples
	var jobs []*jobRun
	var jobSpecs []jobSpec
	jobStart := time.Now()
	jobDur := time.Duration(float64(o.dur) * companionShare)
	for k := 0; k < 2 || time.Since(jobStart) < jobDur; k += 2 {
		// The cluster sequence's surrogate slots.
		specs := [2]jobSpec{jobAt(o.seed, 2+3*k, 0), jobAt(o.seed, 5+3*k, 0)}
		var pair [2]*jobRun
		var errs [2]error
		var wg sync.WaitGroup
		for p := range pair {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				pair[p], errs[p] = runJob(ctx, r.cl, specs[p].body)
			}(p)
		}
		wg.Wait()
		for p, jr := range pair {
			rep.attempted++
			if errs[p] != nil {
				rep.failOp("companion surrogate job: %v", errs[p])
				continue
			}
			sur = append(sur, jr.latency.Seconds())
			jobs = append(jobs, jr)
			jobSpecs = append(jobSpecs, specs[p])
		}
	}

	afterJobs, err := scrape(r.d.url)
	if err != nil {
		return nil, err
	}

	rep.e2e("setup_s", "s", setupS.median(), len(setupS))
	rep.e2ePct("req_p50_ms", "ms", closed, 50, 1000)
	rep.e2ePct("req_p99_ms", "ms", closed, 99, 1000)
	rep.e2e("capacity_rps", "1/s", float64(completedCap)/lp.capWall.Seconds(), completedCap)
	rep.e2ePct("job_p50_s", "s", exh, 50, 1)
	rep.e2e("points_per_s", "1/s", float64(capPoints)/lp.capWall.Seconds(), completedCap)
	rep.e2ePct("surrogate_job_p50_s", "s", sur, 50, 1)
	rep.e2e("peak_rss_mb", "MB", rss, 1)

	// Checks, outside the timed window.
	interChecks(ctx, rep, r, lp, all, o)
	var hv samples
	for k, jr := range jobs[:min(len(jobs), checkedSurrogates)] {
		v, err := checkSurrogate(ctx, jr.resp, jobSpecs[k].body, 2)
		rep.check(err == nil, "companion surrogate job: envelope equals the replay, every design evaluated (hv %.5f): %v", v, errText(err))
		if err == nil {
			hv = append(hv, v)
		}
	}
	hvReport(rep, hv)

	if o.traced {
		ckpts := counterDelta(lp.after, afterJobs, "cordobad_jobs_checkpoints_total")
		if err := interLayers(ctx, rep, r, lp, pool, jobs, jobSpecs, ckpts, o, overheadRef); err != nil {
			return nil, err
		}
	}
	acceptanceCheck(ctx, rep, r.cl)
	return rep, nil
}

// latencies returns each successful request's latency in seconds.
func latencies(recs []*reqRecord) samples {
	var s samples
	for _, rec := range recs {
		if rec.err == nil {
			s = append(s, rec.latency().Seconds())
		}
	}
	return s
}

// interChecks verifies cache replays, the paper anchor, one sampled knob
// grid against the oracle, and the counter deltas.
func interChecks(ctx context.Context, rep *report, r *interRig, lp *loadPass, all []*reqRecord, o opts) {
	missSum := map[string][32]byte{}
	var hits, paired, mismatched int
	var missPoints int64
	for _, rec := range all {
		if rec.err != nil {
			continue
		}
		switch rec.c.xcache {
		case "miss":
			if _, ok := missSum[rec.req.key]; !ok {
				missSum[rec.req.key] = rec.sum
			}
			if rec.req.dse != nil && rec.req.dse.Knobs != nil {
				missPoints += rec.points
			}
		case "hit":
			hits++
		}
	}
	for _, rec := range all {
		if rec.err != nil || rec.c.xcache != "hit" {
			continue
		}
		want, ok := missSum[rec.req.key]
		if !ok {
			continue
		}
		paired++
		if want != rec.sum {
			mismatched++
		}
	}
	rep.check(mismatched == 0 && paired == hits,
		"every X-Cache hit body is byte-identical to its miss (%d of %d hits paired, %d differ)", paired, hits, mismatched)

	cacheHits := counterDelta(lp.before, lp.after, "cordobad_cache_hits_total")
	streamed := counterDelta(lp.before, lp.after, "cordobad_dse_points_streamed_total")
	rep.note("counters: cache hits=%.0f misses=%.0f streamed=%.0f pruned=%.0f memo hits=%d misses=%d evictions=%d",
		cacheHits, counterDelta(lp.before, lp.after, "cordobad_cache_misses_total"), streamed,
		counterDelta(lp.before, lp.after, "cordobad_dse_points_pruned_total"),
		lp.memo[1].hits-lp.memo[0].hits, lp.memo[1].misses-lp.memo[0].misses, lp.memo[1].evictions-lp.memo[0].evictions)
	rep.check(float64(hits) == cacheHits, "X-Cache hits %d equal the cordobad_cache_hits_total delta %.0f", hits, cacheHits)
	rep.check(float64(missPoints) == streamed, "points_streamed summed over misses %d equals the cordobad_dse_points_streamed_total delta %.0f", missPoints, streamed)

	resp, err := r.cl.DSE(ctx, api.DSERequest{Task: cordoba.TaskAllKernels, Set: "grid", CIUse: 380})
	ok := err == nil && sameSet(resp.EverOptimal, anchorEverOptimal)
	got := []string(nil)
	if err == nil {
		got = resp.EverOptimal
	}
	rep.check(ok, "set grid, All kernels, CI 380 ever-optimal %v is the documented anchor %v (%v)", got, anchorEverOptimal, errText(err))

	var cands []*reqRecord
	for _, rec := range lp.openRecs {
		if knobMiss(rec) && rec.req.dse.CITrace == "" {
			cands = append(cands, rec)
		}
	}
	if len(cands) == 0 {
		rep.check(false, "no knob-grid miss to compare with the oracle")
		return
	}
	k := int(o.seed % int64(len(cands)))
	if k < 0 {
		k = -k
	}
	rec := cands[k]
	want, err := oracle(ctx, *rec.req.dse, 1)
	if err == nil {
		err = matchOracle(rec.resp, want, *rec.req.dse, true)
	}
	rep.check(err == nil, "sampled knob grid (%d points) equals the ExploreStream oracle: %v", rec.resp.PointsStreamed, errText(err))
}

// interLayers is the traced run's per-layer breakdown of the closed-loop
// phase, which the gated request metrics come from, and its reconciliation.
func interLayers(ctx context.Context, rep *report, r *interRig, lp *loadPass, pool shapePool, jobs []*jobRun, jobSpecs []jobSpec, ckpts float64, o opts, overheadRef float64) error {
	var handler, wire, hitMS, missMS, lag samples
	var sums struct{ e2e, handler, wire float64 }
	var reqs, resps [][]byte
	var knobMisses, setMisses []*reqRecord
	for _, rec := range lp.openRecs {
		if rec.err == nil {
			lag = append(lag, ms(rec.sent.Sub(rec.sched)))
		}
		if rec.raw != nil {
			resps = append(resps, rec.raw)
		}
	}
	for _, rec := range lp.capRecs {
		if rec.err != nil {
			continue
		}
		h, ok := r.d.timer.get(rec.c.seq)
		if !ok {
			continue
		}
		rt := rec.done.Sub(rec.sent)
		handler = append(handler, ms(h.dur))
		wire = append(wire, ms(rt-h.dur))
		switch h.xcache {
		case "hit":
			hitMS = append(hitMS, ms(h.dur))
		case "miss":
			missMS = append(missMS, ms(h.dur))
			if rec.req.dse != nil && rec.req.dse.Knobs != nil {
				knobMisses = append(knobMisses, rec)
			} else if rec.req.dse != nil {
				setMisses = append(setMisses, rec)
			}
		}
		sums.e2e += rec.latency().Seconds()
		sums.handler += h.dur.Seconds()
		sums.wire += (rt - h.dur).Seconds()
		if rec.req.dse != nil {
			reqs = append(reqs, []byte(rec.req.key))
		}
	}
	hits := counterDelta(lp.before, lp.after, "cordobad_cache_hits_total")
	lookups := hits + counterDelta(lp.before, lp.after, "cordobad_cache_misses_total")
	streamed := counterDelta(lp.before, lp.after, "cordobad_dse_points_streamed_total")
	pruned := counterDelta(lp.before, lp.after, "cordobad_dse_points_pruned_total")
	memoHits := lp.memo[1].hits - lp.memo[0].hits
	memoMisses := lp.memo[1].misses - lp.memo[0].misses

	rep.layerPct("server.handler_ms_p50", "ms", handler, 50)
	rep.layerPct("server.wire_ms_p50", "ms", wire, 50)
	rep.layer("server.cache_hit_ratio", "ratio", ratio(hits, lookups), int(lookups))
	rep.layerPct("server.cache_hit_ms_p50", "ms", hitMS, 50)
	rep.layerPct("server.cache_miss_ms_p50", "ms", missMS, 50)
	rep.layer("server.pool_waiting_mean", "count", lp.waiting.mean(), len(lp.waiting))
	rep.layer("dse.memo_hit_ratio", "ratio", ratio(float64(memoHits), float64(memoHits+memoMisses)), int(memoHits+memoMisses))
	rep.layer("dse.memo_evictions", "count", float64(lp.memo[1].evictions-lp.memo[0].evictions), 1)
	rep.layer("dse.pruned_ratio", "ratio", ratio(pruned, streamed), int(streamed))
	rep.layerPct("loadgen.lag_ms_p99", "ms", lag, 99)

	// Companion jobs; ckpts is their checkpoint count.
	var queue, run, doneLag, resultRead samples
	for _, jr := range jobs {
		s := jr.status
		queue = append(queue, ms(s.StartedAt.Sub(s.CreatedAt)))
		run = append(run, s.FinishedAt.Sub(*s.StartedAt).Seconds())
		doneLag = append(doneLag, ms(jr.doneAt.Sub(*s.FinishedAt)))
		resultRead = append(resultRead, ms(jr.resultDur))
	}
	rep.layerPct("job.queue_wait_ms", "ms", queue, 50)
	rep.layerPct("job.run_s", "s", run, 50)
	rep.layer("job.checkpoints", "count", ckpts, 1)
	rep.layerPct("client.done_lag_ms", "ms", doneLag, 50)
	rep.layerPct("client.result_read_ms", "ms", resultRead, 50)
	rep.layer("cluster.shards_retried", "count", 0, 1)

	// Replays: a dozen knob misses against a memo warmed like the daemon's,
	// a dozen set/configs misses, the first companion surrogate grid.
	if len(knobMisses) == 0 || len(setMisses) == 0 || len(jobs) == 0 {
		return fmt.Errorf("traced run has no knob miss, set miss or companion job to replay")
	}
	memo := cordoba.NewMemoCache(0)
	if _, err := replayEngine(ctx, pool.warmBody(), 1, memo); err != nil {
		return err
	}
	var ers []*engineReplay
	for _, rec := range sample(knobMisses, 12) {
		er, err := replayEngine(ctx, *rec.req.dse, 1, memo)
		if err != nil {
			return err
		}
		ers = append(ers, er)
	}
	engineLayers(rep, ers, memoMisses)
	st, err := replaySurrogate(ctx, jobSpecs[0].body, 1)
	if err != nil {
		return err
	}
	surrogateLayers(rep, []*surrogateTiming{st})
	decUs, encUs, err := replayAPI(reqs, resps)
	if err != nil {
		return err
	}
	rep.layer("api.decode_us", "us", decUs, len(reqs))
	rep.layer("api.encode_us", "us", encUs, len(resps))
	putMs, err := replayPut(o.dir+"/put", *knobMisses[0].req.dse, ers[0].ckpt)
	if err != nil {
		return err
	}
	rep.layer("job.checkpoint_put_ms", "ms", putMs, 20)
	var setCPU, setWork float64
	for _, rec := range sample(setMisses, 12) {
		cpu, work, err := replayMaterialized(*rec.req.dse)
		if err != nil {
			return err
		}
		setCPU += cpu
		setWork += work
	}
	traced := latencies(lp.capRecs).median()
	rep.layer("trace.overhead_pct", "%", 100*(traced-overheadRef)/overheadRef, 2)

	// Engine CPU scales with points × task kernels (designs × kernels on
	// the materialized engine); the replays give the CPU per unit.
	var knobWork, matWork float64
	for _, rec := range knobMisses {
		knobWork += float64(rec.points) * float64(taskKernels(*rec.req.dse))
	}
	for _, rec := range setMisses {
		matWork += materializedWork(*rec.req.dse)
	}
	var replayCPU, replayWork float64
	for _, er := range ers {
		replayCPU += er.streamCPU
		replayWork += float64(er.points) * float64(er.kernels)
	}
	rep.note("reconciliation, wall seconds summed over %d closed-loop requests:", len(handler))
	rep.note("  %-44s %10.4f", "end-to-end (send -> response read)", sums.e2e)
	rep.note("  %-44s %10.4f", "server handler", sums.handler)
	rep.note("  %-44s %10.4f", "wire and client encode/decode", sums.wire)
	rep.note("  %-44s %10.4f", "unexplained remainder", sums.e2e-sums.handler-sums.wire)
	knobCPU := knobWork * replayCPU / replayWork
	matCPU := matWork * setCPU / setWork
	apiCPU := (float64(len(reqs))*decUs + float64(len(knobMisses)+len(setMisses))*encUs) / 1e6
	rep.note("reconciliation, process CPU seconds over the closed loop (%.2f s wall):", lp.capWall.Seconds())
	rep.note("  %-44s %10.4f", "process CPU", lp.capCPU)
	rep.note("  %-44s %10.4f", "knob-grid engine, warm memo (replayed)", knobCPU)
	rep.note("  %-44s %10.4f", "materialized engine, set/configs (replayed)", matCPU)
	rep.note("  %-44s %10.4f", "api decode+encode", apiCPU)
	rep.note("  %-44s %10.4f", "unexplained remainder", lp.capCPU-knobCPU-matCPU-apiCPU)
	return nil
}

// sample returns up to n records spread evenly over recs.
func sample(recs []*reqRecord, n int) []*reqRecord {
	if len(recs) <= n {
		return recs
	}
	out := make([]*reqRecord, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, recs[i*len(recs)/n])
	}
	return out
}

func taskKernels(body api.DSERequest) int {
	task, err := cordoba.PaperTask(body.Task)
	if err != nil {
		return 0
	}
	return len(task.Kernels())
}

// materializedConfigs resolves a set/configs body's design list.
func materializedConfigs(body api.DSERequest) ([]cordoba.AcceleratorConfig, error) {
	switch {
	case body.Set == "3d":
		return cordoba.Stacked3D(), nil
	case len(body.Configs) > 0:
		var out []cordoba.AcceleratorConfig
		for _, id := range body.Configs {
			c, err := cordoba.AcceleratorByID(id)
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
		return out, nil
	}
	return cordoba.Grid(), nil
}

// materializedWork is a set/configs body's designs × task kernels.
func materializedWork(body api.DSERequest) float64 {
	configs, err := materializedConfigs(body)
	if err != nil {
		return 0
	}
	return float64(len(configs) * taskKernels(body))
}

// replayMaterialized returns the CPU seconds the materialized engine spends
// on one set/configs body, and the body's work units.
func replayMaterialized(body api.DSERequest) (cpu, work float64, err error) {
	task, fab, ci, err := engineInputs(body)
	if err != nil {
		return 0, 0, err
	}
	configs, err := materializedConfigs(body)
	if err != nil {
		return 0, 0, err
	}
	c0 := cpuSeconds()
	if _, err := cordoba.ExploreParallelAt(task, configs, cordoba.Process7nm(), fab, ci, 1); err != nil {
		return 0, 0, err
	}
	return cpuSeconds() - c0, materializedWork(body), nil
}
