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
