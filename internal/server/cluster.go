package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"cordoba"
	"cordoba/api"
	"cordoba/internal/cluster"
	"cordoba/internal/job"
)

// initCluster assembles the shard fan-out coordinator when the daemon runs
// as one. Workers and standalone daemons skip it: they already accept shard
// jobs through the ordinary job queue, and GET /v1/cluster answers with the
// bare role.
func (s *Server) initCluster() {
	switch s.cfg.Role {
	case "standalone", "worker":
		return
	case "coordinator":
	default:
		panic(fmt.Sprintf("server: unknown role %q (want standalone, worker, or coordinator)", s.cfg.Role))
	}
	c, err := cluster.New(cluster.Config{
		Workers:        s.cfg.ClusterWorkers,
		APIKey:         s.cfg.WorkerAPIKey,
		HeartbeatEvery: s.cfg.HeartbeatEvery,
		ShardTimeout:   s.cfg.ShardTimeout,
		MaxAttempts:    s.cfg.ShardAttempts,
		Logger:         s.log,
	})
	if err != nil {
		// The only failure mode is a coordinator without workers; surface it
		// at startup rather than on the first sharded submission.
		panic(err)
	}
	s.cluster = c
	s.metrics.SetClusterStats(c.Stats)
	c.Start()
}

// Cluster exposes the coordinator (tests and the daemon banner); nil unless
// the daemon runs role coordinator.
func (s *Server) Cluster() *cluster.Coordinator { return s.cluster }

// ---- GET /v1/cluster ----

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) error {
	if s.cluster != nil {
		_, err := writeJSON(w, http.StatusOK, s.cluster.Stats())
		return err
	}
	_, err := writeJSON(w, http.StatusOK, ClusterStatus{Role: s.cfg.Role})
	return err
}

// ---- GET /v1/jobs/{id}/checkpoint ----

// handleJobCheckpoint serves a job's last saved checkpoint. Coordinators use
// it to salvage a stalled worker's partial shard progress, so a requeued
// shard resumes instead of restarting.
func (s *Server) handleJobCheckpoint(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	cp, err := s.jobs.Checkpoint(id)
	if err != nil {
		return jobLookupError(id, err)
	}
	if len(cp) == 0 {
		return errc(http.StatusConflict, api.CodeNotReady, "job %s has no checkpoint yet", id)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, err = w.Write(cp)
	return err
}

// ---- the shard job runner (worker side) ----

// runShardDSEJob executes one shard of a knob grid: the same checkpointed
// streaming engine as runDSEJob, restricted to the request's shape range.
// The result is the shard's survivor envelope, which the coordinator folds
// into the whole-grid response. Checkpoints persist through the job manager,
// so a coordinator can salvage partial progress before requeueing.
func (s *Server) runShardDSEJob(ctx context.Context, rc job.RunContext) (json.RawMessage, error) {
	var req DSERequest
	if err := json.Unmarshal(rc.Request(), &req); err != nil {
		return nil, err
	}
	in, err := s.resolveDSE(req)
	if err != nil {
		return nil, err
	}
	sh := in.req.Shard
	if sh == nil {
		return nil, errf(http.StatusBadRequest, "shard job body lacks a shard range")
	}
	g, err := s.knobGrid(in.req, in.proc)
	if err != nil {
		return nil, err
	}

	ck := cordoba.CheckpointOptions{
		Every: s.cfg.CheckpointEvery,
		Shard: &cordoba.StreamShard{First: sh.First, Count: sh.Count},
	}
	// A manager-persisted checkpoint (this worker crashed mid-shard) beats
	// the dispatch-time salvage the coordinator attached, which reflects an
	// earlier attempt on another worker.
	resume := rc.Checkpoint()
	if len(resume) == 0 {
		resume = sh.Resume
	}
	if len(resume) > 0 {
		var st cordoba.StreamCheckpoint
		if err := json.Unmarshal(resume, &st); err != nil {
			return nil, err
		}
		ck.Resume = &st
	}
	ck.OnCheckpoint = func(st *cordoba.StreamCheckpoint) error {
		b, err := json.Marshal(st)
		if err != nil {
			return err
		}
		return rc.SaveCheckpoint(b)
	}
	shardPoints := g.Size() / int64(len(g.MACArrays)*len(g.SRAMMB)) * int64(sh.Count)
	ck.OnProgress = func(p cordoba.StreamProgress) {
		rc.ReportProgress(job.Progress{
			GridPoints:  shardPoints,
			Streamed:    p.Streamed,
			Pruned:      p.Pruned,
			Kept:        p.Kept,
			ShapesDone:  p.ShapesDone,
			ShapesTotal: p.ShapesTotal,
		})
	}

	if err := s.pool.Acquire(ctx); err != nil {
		return nil, err
	}
	defer s.pool.Release()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ck.StreamOptions = s.streamOptions(in)
	res, err := cordoba.ExploreStreamCheckpointed(ctx, in.task, g, in.fab, cordoba.CarbonIntensity(in.req.CIUse), ck)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	s.metrics.ObserveDSEStream(res.Total, res.Total-int64(res.Kept()))
	if len(g.Models) == 0 {
		s.metrics.ObserveModelEvals("act", res.Total)
	} else {
		for _, name := range g.Models {
			s.metrics.ObserveModelEvals(name, res.Total/int64(len(g.Models)))
		}
	}

	env := cluster.EnvelopeFromResult(sh.First, sh.Count, res)
	b, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ---- the cluster job runner (coordinator side) ----

// runClusterDSEJob fans one knob grid out across the worker fleet and merges
// the returned envelopes. The response bytes are rendered by the same
// marshaler as the single-node paths, and the merge algebra makes the
// payload byte-identical to running the whole grid on one daemon.
func (s *Server) runClusterDSEJob(ctx context.Context, rc job.RunContext) (json.RawMessage, error) {
	if s.cluster == nil {
		return nil, errf(http.StatusBadRequest, "this daemon runs role %q; shards needs a coordinator", s.cfg.Role)
	}
	// Forward the stored request verbatim: it is defaulted but unresolved,
	// so workers re-derive trace-averaged intensities themselves instead of
	// rejecting a body with both ci_trace and ci_use set.
	var req DSERequest
	if err := json.Unmarshal(rc.Request(), &req); err != nil {
		return nil, err
	}
	in, err := s.resolveDSE(req)
	if err != nil {
		return nil, err
	}
	g, err := s.knobGrid(in.req, in.proc)
	if err != nil {
		return nil, err
	}
	gridPoints := g.Size()

	opts := cluster.RunOptions{Shards: req.Shards}
	if cp := rc.Checkpoint(); len(cp) > 0 {
		var st cluster.Checkpoint
		if err := json.Unmarshal(cp, &st); err != nil {
			return nil, err
		}
		opts.Resume = &st
	}
	opts.OnShardDone = func(cp *cluster.Checkpoint) error {
		b, err := json.Marshal(cp)
		if err != nil {
			return err
		}
		return rc.SaveCheckpoint(b)
	}
	opts.OnProgress = func(p cluster.Progress) {
		rc.ReportProgress(job.Progress{
			GridPoints:  gridPoints,
			Streamed:    p.Streamed,
			Pruned:      p.Pruned,
			Kept:        p.Kept,
			ShardsDone:  p.ShardsDone,
			ShardsTotal: p.ShardsTotal,
		})
	}

	res, err := s.cluster.Run(ctx, req, in.task, cordoba.CarbonIntensity(in.req.CIUse), opts)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	// The workers streamed the points; the coordinator still owns the
	// grid-level counters so /metrics aggregates match a standalone daemon
	// serving the same request.
	s.metrics.ObserveDSEStream(res.Merged.Total, res.Merged.Total-int64(res.Merged.Kept()))
	if len(g.Models) == 0 {
		s.metrics.ObserveModelEvals("act", res.Merged.Total)
	} else {
		for _, name := range g.Models {
			s.metrics.ObserveModelEvals(name, res.Merged.Total/int64(len(g.Models)))
		}
	}

	resp := renderStreamResponse(in, g, res.Merged)
	b, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
