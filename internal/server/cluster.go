package server

import (
	"fmt"
	"net/http"

	"cordoba/api"
	"cordoba/internal/cluster"
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
	s.metrics.register(func() []family { return clusterFamilies(c.Stats()) })
	c.Start()
}

// clusterFamilies renders the coordinator's shard counters and per-worker
// liveness, outcomes and shard time from one Stats snapshot.
func clusterFamilies(cs api.ClusterStatus) []family {
	return []family{
		counter("cordobad_cluster_shards_dispatched_total", "Shard attempts sent to workers.", cs.ShardsDispatched),
		counter("cordobad_cluster_shards_retried_total", "Shards requeued after a stall, cancellation, or worker loss.", cs.ShardsRetried),
		counter("cordobad_cluster_shards_merged_total", "Shard envelopes folded into whole-grid results.", cs.ShardsMerged),
		{"cordobad_cluster_worker_up", "gauge", "Worker liveness from the last heartbeat (1 = up).", func(w *sampleWriter) {
			for _, wk := range cs.Workers {
				up := 0
				if wk.State == "up" {
					up = 1
				}
				w.sample("", up, "worker", wk.URL)
			}
		}},
		{"cordobad_cluster_worker_shards_total", "counter", "Shards finished per worker by outcome.", func(w *sampleWriter) {
			for _, wk := range cs.Workers {
				w.sample("", wk.ShardsDone, "worker", wk.URL, "outcome", "done")
				w.sample("", wk.ShardsFailed, "worker", wk.URL, "outcome", "failed")
			}
		}},
		{"cordobad_cluster_worker_shard_seconds", "summary", "Wall-clock spent on successful shards per worker.", func(w *sampleWriter) {
			for _, wk := range cs.Workers {
				w.sample("_sum", wk.AvgShardS*float64(wk.ShardsDone), "worker", wk.URL)
				w.sample("_count", wk.ShardsDone, "worker", wk.URL)
			}
		}},
	}
}

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
