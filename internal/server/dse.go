package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"

	"cordoba"
	"cordoba/api"
	"cordoba/internal/cluster"
	"cordoba/internal/dse"
	"cordoba/internal/job"
)

// One DSE request path serves POST /v1/dse, POST /v1/jobs and every DSE job
// kind: defaultDSE fills in the documented defaults, planDSE validates and
// sizes the request once, and execute runs the plan on its engine. The
// synchronous and asynchronous paths differ only in the job hooks execute
// receives.

// ---- POST /v1/dse ----

func (s *Server) handleDSE(w http.ResponseWriter, r *http.Request) error {
	var req DSERequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		return err
	}
	req, err := defaultDSE(req)
	if err != nil {
		return err
	}
	if req.Shard != nil || req.Shards > 0 {
		return errf(http.StatusBadRequest,
			"shard and shards run asynchronously — submit the request via POST /v1/jobs")
	}
	key, err := canonicalKey("/v1/dse", req)
	if err != nil {
		return err
	}
	return s.respondCached(w, key, func() (any, error) {
		p, err := s.planDSE(req, "")
		if err != nil {
			return nil, err
		}
		return s.execute(r.Context(), p, nil)
	})
}

// validateDSESpace enforces that a request names at most one design space.
// The error lists every conflicting field present so a caller mixing three
// of them learns about all three at once, not one per round trip.
func validateDSESpace(req DSERequest) error {
	var fields []string
	if req.Set != "" {
		fields = append(fields, "set")
	}
	if len(req.Configs) > 0 {
		fields = append(fields, "configs")
	}
	if req.Knobs != nil {
		fields = append(fields, "knobs")
	}
	if len(fields) > 1 {
		return errf(http.StatusBadRequest,
			"fields %s are mutually exclusive — give exactly one design space",
			strings.Join(fields, ", "))
	}
	return nil
}

// defaultDSE validates a decoded DSE request's field combinations and fills
// in the documented defaults. Both the synchronous handler and job
// submission route requests through here, so the two paths accept exactly
// the same bodies; a job stores the defaulted request.
func defaultDSE(req DSERequest) (DSERequest, error) {
	if err := validateDSESpace(req); err != nil {
		return req, err
	}
	if req.Process == "" {
		req.Process = "7nm"
	}
	if req.Fab == "" {
		req.Fab = "coal-heavy"
	}
	if req.CITrace != "" {
		if req.CIUse != 0 {
			return req, errf(http.StatusBadRequest, "ci_trace and ci_use are mutually exclusive — give one")
		}
		if req.TraceLifeS == 0 {
			req.TraceLifeS = cordoba.Years(1).Seconds()
		}
	} else {
		if req.TraceLifeS != 0 {
			return req, errf(http.StatusBadRequest, "trace_life_s requires ci_trace")
		}
		if req.CIUse == 0 {
			req.CIUse = 380
		}
	}
	if req.Shard != nil && req.Shards != 0 {
		return req, errf(http.StatusBadRequest, "shard and shards are mutually exclusive — give one")
	}
	if req.Shards < 0 {
		return req, errf(http.StatusBadRequest, "shards must be non-negative, got %d", req.Shards)
	}
	if (req.Shard != nil || req.Shards > 0) && req.Knobs == nil {
		return req, errf(http.StatusBadRequest, "shard and shards apply to knob-range requests — give knobs")
	}
	if sh := req.Shard; sh != nil && (sh.First < 0 || sh.Count < 1) {
		return req, errf(http.StatusBadRequest,
			"shard needs first >= 0 and count >= 1, got first=%d count=%d", sh.First, sh.Count)
	}
	switch req.Search {
	case "", "auto", searchExhaustive, searchSurrogate:
	default:
		return req, errf(http.StatusBadRequest,
			"unknown search %q — give auto, exhaustive or surrogate", req.Search)
	}
	if req.Search != "" && req.Knobs == nil {
		return req, errf(http.StatusBadRequest, "search applies to knob-range requests — give knobs")
	}
	if sp := req.Surrogate; sp != nil {
		if req.Knobs == nil {
			return req, errf(http.StatusBadRequest, "surrogate applies to knob-range requests — give knobs")
		}
		if req.Search == searchExhaustive {
			return req, errf(http.StatusBadRequest,
				"surrogate tunes search: surrogate — drop it for exhaustive runs")
		}
		if sp.Budget < 0 {
			return req, errf(http.StatusBadRequest, "surrogate.budget must be non-negative, got %d", sp.Budget)
		}
		if sp.Population < 0 || sp.Population > 1024 {
			return req, errf(http.StatusBadRequest,
				"surrogate.population must be in [0, 1024], got %d", sp.Population)
		}
		if sp.Generations < 0 {
			return req, errf(http.StatusBadRequest,
				"surrogate.generations must be non-negative, got %d", sp.Generations)
		}
	}
	if (req.Search == searchSurrogate || req.Surrogate != nil) && (req.Shard != nil || req.Shards > 0) {
		return req, errf(http.StatusBadRequest,
			"surrogate search and shard/shards are mutually exclusive — sharding uses the exhaustive engine")
	}
	if req.Set == "" && len(req.Configs) == 0 && req.Knobs == nil {
		req.Set = "grid"
	}
	if req.Sweep == nil {
		req.Sweep = &SweepSpec{Lo: 1, Hi: 1e12, Points: 13}
	}
	return req, nil
}

// Knob-range search engines a request can ask for; the empty string and
// "auto" let planDSE choose by grid size.
const (
	searchExhaustive = "exhaustive"
	searchSurrogate  = "surrogate"
)

// dsePlan is a defaulted DSE request made ready to run: its names resolved,
// its design space enumerated, its engine chosen and its size known.
type dsePlan struct {
	// req is the request as a job stores it: defaulted, with ci_trace
	// unresolved. A coordinator forwards exactly this body to its workers,
	// which resolve the trace themselves (a body carrying both ci_trace and
	// ci_use would be rejected), and fingerprints it in its checkpoints.
	req DSERequest
	// kind names the engine by its job kind: jobKindDSE (the streaming
	// engine, or the list evaluator when req has no knobs), jobKindShardDSE,
	// jobKindClusterDSE or jobKindSurrogateDSE.
	kind string

	task  cordoba.Task
	proc  cordoba.Process
	fab   cordoba.Fab
	ci    cordoba.CarbonIntensity // ci_use, or ci_trace averaged over trace_life_s
	model cordoba.CarbonModel     // nil: ACT
	yield cordoba.YieldModel      // nil: Murphy

	grid    cordoba.KnobGrid            // knob-range requests
	configs []cordoba.AcceleratorConfig // set/configs requests

	// points is what the job covers: a shard's share of the grid, otherwise
	// the whole grid or list. It is the job's weight against the tenant's
	// grid-points quota and its progress denominator.
	points int64
	// surrogate holds the surrogate engine's seed, population, generations
	// and budget, the budget already defaulted and capped.
	surrogate cordoba.SurrogateOptions
}

// planDSE validates a defaulted request and resolves everything the engines
// need. kind is a job's recorded kind, so a job resumes on the engine that
// wrote its checkpoint even if the daemon restarted with another
// -max-grid-points; empty chooses the engine from the request. Every
// validation error surfaces here, before execute takes a pool slot.
func (s *Server) planDSE(req DSERequest, kind string) (*dsePlan, error) {
	p := &dsePlan{req: req, kind: kind, ci: cordoba.CarbonIntensity(req.CIUse)}
	var err error
	if p.task, err = s.taskByName(req.Task); err != nil {
		return nil, err
	}
	if p.proc, err = cordoba.ProcessByName(req.Process); err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	if p.fab, err = cordoba.FabByName(req.Fab); err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	if req.CIUse < 0 {
		return nil, errf(http.StatusBadRequest, "ci_use must be non-negative, got %g", req.CIUse)
	}
	if req.CITrace != "" {
		// Resolve the named trace to its exact time-average intensity over
		// the requested lifetime; the scalar then flows through every engine.
		s.metrics.ObserveTraceLookup()
		cum, ok := s.traces[req.CITrace]
		if !ok {
			return nil, errf(http.StatusBadRequest, "unknown trace %q (see GET /v1/traces)", req.CITrace)
		}
		if req.TraceLifeS <= 0 {
			return nil, errf(http.StatusBadRequest, "trace_life_s must be positive, got %g", req.TraceLifeS)
		}
		if p.ci, err = cum.AverageBetween(0, cordoba.Time(req.TraceLifeS)); err != nil {
			return nil, errf(http.StatusBadRequest, "%v", err)
		}
	}
	if req.Sweep.Lo <= 0 || req.Sweep.Hi < req.Sweep.Lo || req.Sweep.Points < 1 || req.Sweep.Points > 10000 {
		return nil, errf(http.StatusBadRequest,
			"sweep needs 0 < lo <= hi and 1 <= points <= 10000, got lo=%g hi=%g points=%d",
			req.Sweep.Lo, req.Sweep.Hi, req.Sweep.Points)
	}
	// An empty model or yield resolves to nil, which keeps the default
	// ACT/Murphy pipeline and leaves responses exactly as before the fields
	// existed.
	if req.Model != "" {
		if p.model, err = cordoba.CarbonModelByName(req.Model); err != nil {
			return nil, errf(http.StatusBadRequest, "%v (see GET /v1/models)", err)
		}
	}
	if req.Yield != "" {
		if p.yield, err = cordoba.YieldModelByName(req.Yield); err != nil {
			return nil, errf(http.StatusBadRequest, "%v (see GET /v1/models)", err)
		}
	}

	if req.Knobs == nil {
		if p.configs, err = s.resolveConfigs(req); err != nil {
			return nil, err
		}
		p.kind, p.points = jobKindDSE, int64(len(p.configs))
		return p, nil
	}
	if p.grid, err = knobGrid(req, p.proc); err != nil {
		return nil, err
	}
	size, limit := p.grid.Size(), s.cfg.MaxGridPoints
	if p.kind == "" {
		p.kind = jobKindDSE
		switch {
		case req.Shard != nil:
			p.kind = jobKindShardDSE
		case req.Shards > 0:
			p.kind = jobKindClusterDSE
		case req.Search == searchSurrogate, req.Surrogate != nil,
			req.Search != searchExhaustive && size > limit:
			// A surrogate spec implies the surrogate engine; ""/"auto" picks
			// it for grids above the exhaustive cap.
			p.kind = jobKindSurrogateDSE
		}
	}
	p.points = size
	if p.kind == jobKindSurrogateDSE {
		opt := cordoba.SurrogateOptions{Budget: s.cfg.SurrogateBudget, Population: s.cfg.SurrogatePopulation}
		if sp := req.Surrogate; sp != nil {
			if sp.Seed != 0 {
				opt.Seed = sp.Seed
			}
			if sp.Budget != 0 {
				opt.Budget = sp.Budget
			}
			if sp.Population != 0 {
				opt.Population = sp.Population
			}
			if sp.Generations != 0 {
				opt.Generations = sp.Generations
			}
		}
		// The budgeted search pays per evaluation, not per lattice point, so
		// the cap bounds the budget rather than the grid. Only an explicit
		// budget can violate it: the engine default is clamped to the cap,
		// keeping auto-selected surrogate runs servable on any grid.
		if opt.Budget > limit {
			return nil, errf(http.StatusBadRequest,
				"surrogate budget %d is above this server's cap of %d evaluations", opt.Budget, limit)
		}
		if sp := req.Surrogate; sp != nil && sp.Oracle && size > limit {
			return nil, errf(http.StatusBadRequest,
				"surrogate.oracle also runs the exhaustive engine — the %d-point grid is above this server's cap of %d",
				size, limit)
		}
		if opt.Budget == 0 {
			opt.Budget = min(cordoba.DefaultSurrogateBudget(size, opt.Population), limit)
		}
		p.surrogate = opt
		return p, nil
	}

	// The cap bounds what one node evaluates, so sharded requests are judged
	// by their largest per-node share, not the whole grid — distributing is
	// exactly how a grid above the single-node cap becomes servable.
	shapes := int64(len(p.grid.MACArrays) * len(p.grid.SRAMMB))
	cells := size / shapes
	perNode := size
	if sh := req.Shard; sh != nil {
		if int64(sh.First)+int64(sh.Count) > shapes {
			return nil, errf(http.StatusBadRequest,
				"shard [%d,%d) is outside the grid's %d shapes", sh.First, sh.First+sh.Count, shapes)
		}
		perNode = cells * int64(sh.Count)
		p.points = perNode
	} else if req.Shards > 0 {
		n := min(int64(req.Shards), shapes)
		perNode = cells * ((shapes + n - 1) / n)
	}
	if perNode > limit {
		if perNode == size {
			return nil, errf(http.StatusBadRequest,
				"knob grid has %d points, above this server's cap of %d", size, limit)
		}
		return nil, errf(http.StatusBadRequest,
			"largest shard covers %d points, above this server's cap of %d", perNode, limit)
	}
	if p.kind == jobKindClusterDSE && s.cluster == nil {
		return nil, errf(http.StatusBadRequest,
			"shards needs a coordinator; this daemon runs role %q (start it with -role coordinator -workers ...)",
			s.cfg.Role)
	}
	return p, nil
}

// knobGrid validates a knob-range request's axes and materializes the lazy
// grid description, applying the scalar process/model fields as single-axis
// defaults.
func knobGrid(req DSERequest, proc cordoba.Process) (cordoba.KnobGrid, error) {
	var g cordoba.KnobGrid
	k := req.Knobs
	if len(k.MACArrays) == 0 || len(k.SRAMMB) == 0 {
		return g, errc(http.StatusBadRequest, api.CodeInvalidKnobs,
			"knobs needs non-empty mac_arrays and sram_mb")
	}
	if len(k.Models) > 0 && req.Model != "" {
		return g, errf(http.StatusBadRequest, "give either model or knobs.models, not both")
	}
	g = cordoba.KnobGrid{
		MACArrays: k.MACArrays,
		SRAMMB:    k.SRAMMB,
		VDDScales: k.VDDScales,
		Nodes:     k.Nodes,
		Models:    k.Models,
	}
	if p := k.Partition; p != nil {
		g.Integrations = p.Integrations
		g.Chiplets = p.Chiplets
		g.ChipletNodes = p.ChipletNodes
		g.Carrier = p.Carrier
	}
	if len(g.Nodes) == 0 {
		// The scalar process field names the single node to explore.
		g.Nodes = []string{proc.Node}
	}
	if len(g.Models) == 0 && req.Model != "" {
		// The scalar model field names the single backend to price with.
		g.Models = []string{req.Model}
	}
	// Up-front axis validation: empty or duplicate axis values, unknown
	// node/model/integration/carrier names, and unsupported model-integration
	// pairings all fail here with the machine-readable invalid_knobs code
	// instead of surfacing later from inside the engine.
	if err := g.Validate(); err != nil {
		return g, errc(http.StatusBadRequest, api.CodeInvalidKnobs, "%v", err)
	}
	return g, nil
}

// resolveConfigs materializes the design space a set/configs request names.
func (s *Server) resolveConfigs(req DSERequest) ([]cordoba.AcceleratorConfig, error) {
	if len(req.Configs) > 0 {
		out := make([]cordoba.AcceleratorConfig, 0, len(req.Configs))
		for _, id := range req.Configs {
			cfg, ok := s.configs[id]
			if !ok {
				return nil, errf(http.StatusBadRequest,
					"unknown accelerator config %q (see GET /v1/configs)", id)
			}
			out = append(out, cfg)
		}
		return out, nil
	}
	switch req.Set {
	case "grid":
		return cordoba.Grid(), nil
	case "3d":
		return cordoba.Stacked3D(), nil
	default:
		return nil, errf(http.StatusBadRequest, `unknown config set %q (use "grid" or "3d")`, req.Set)
	}
}

// taskByName resolves a Table IV paper task or the XR gaming session.
func (s *Server) taskByName(name string) (cordoba.Task, error) {
	if name == "" {
		return cordoba.Task{}, errf(http.StatusBadRequest, "missing task name (see GET /v1/tasks)")
	}
	if xr := cordoba.XRGamingTask(); name == xr.Name {
		return xr, nil
	}
	task, err := cordoba.PaperTask(name)
	if err != nil {
		return cordoba.Task{}, errf(http.StatusBadRequest, "unknown task %q (see GET /v1/tasks)", name)
	}
	return task, nil
}

// execute runs a plan on its engine, records the DSE metrics and returns the
// wire value: a *DSEResponse, or a shard's *ShardEnvelope. rc is the job
// being run, nil for a synchronous request; it supplies the checkpoint to
// resume from and receives checkpoints and progress. Local engines run under
// a pool slot so a burst of requests queues instead of oversubscribing; the
// cluster fan-out takes none, since its workers do the evaluating. A
// canceled ctx (a dropped client, DELETE, shutdown) aborts the run.
func (s *Server) execute(ctx context.Context, p *dsePlan, rc job.RunContext) (any, error) {
	if p.kind != jobKindClusterDSE {
		if err := s.pool.Acquire(ctx); err != nil {
			return nil, err
		}
		defer s.pool.Release()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	v, err := s.runEngine(ctx, p, rc)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	return v, nil
}

func (s *Server) runEngine(ctx context.Context, p *dsePlan, rc job.RunContext) (any, error) {
	opt := cordoba.StreamOptions{Workers: s.pool.Workers(), Memo: s.memo, Yield: p.yield}
	switch {
	case p.req.Knobs == nil:
		// An explicit configuration list prices in one shot through the
		// shared memo; there is no intermediate state worth checkpointing.
		space, err := dse.Evaluate(ctx, p.task, p.configs, p.proc, p.fab, p.ci, p.model, opt)
		if err != nil {
			return nil, err
		}
		s.observeEvals(p, int64(len(p.configs)))
		resp := p.respond(space, space)
		resp.EverOptimal = space.IDs(space.EverOptimal())
		return resp, nil

	case p.kind == jobKindSurrogateDSE:
		// The surrogate-guided Pareto search: a fixed-seed, budgeted
		// NSGA-style walk over the lazy grid that shares the memo with the
		// exhaustive engine and checkpoints per generation.
		so := p.surrogate
		so.StreamOptions = opt
		if rc != nil {
			var err error
			if so.Resume, so.OnCheckpoint, err = checkpointHooks[cordoba.SurrogateCheckpoint](rc, rc.Checkpoint()); err != nil {
				return nil, err
			}
			so.Every = s.cfg.CheckpointEvery
			so.OnProgress = func(sp cordoba.SurrogateProgress) {
				rc.ReportProgress(job.Progress{
					GridPoints:  sp.GridPoints,
					Streamed:    sp.Evals,
					Kept:        sp.Kept,
					Generation:  sp.Generation,
					EvalsUsed:   sp.Evals,
					EvalsBudget: sp.Budget,
				})
			}
		}
		res, err := cordoba.ExploreSurrogate(ctx, p.task, p.grid, p.fab, p.ci, so)
		if err != nil {
			return nil, err
		}
		s.metrics.ObserveDSESurrogate(res.Evaluations, res.Skipped, int64(res.Generations))
		s.observeEvals(p, res.Evaluations)
		resp := p.respondStream(res.StreamResult)
		resp.Search = searchSurrogate
		info := &SurrogateInfo{
			Seed:            res.Seed,
			Budget:          res.Budget,
			Generations:     res.Generations,
			GridPoints:      res.GridPoints,
			EvaluationsUsed: res.Evaluations,
			Skipped:         res.Skipped,
		}
		if res.GridPoints > 0 {
			info.EvalFraction = float64(res.Evaluations) / float64(res.GridPoints)
		}
		if sp := p.req.Surrogate; sp != nil && sp.Oracle {
			// The oracle comparison runs the exhaustive engine on the same
			// grid and reports the search's quality against it.
			oracle, err := cordoba.ExploreStreamCheckpointed(ctx, p.task, p.grid, p.fab, p.ci,
				cordoba.CheckpointOptions{StreamOptions: opt})
			if err != nil {
				return nil, err
			}
			s.metrics.ObserveDSEStream(oracle.Total, oracle.Total-int64(oracle.Kept()))
			q := cordoba.MeasureEnvelopeQuality(res.StreamResult, oracle)
			info.HypervolumeRatio = &q.HypervolumeRatio
			info.AdditiveEpsilon = &q.AdditiveEpsilon
			info.Coverage = &q.Coverage
		}
		resp.Surrogate = info
		return resp, nil

	case p.kind == jobKindClusterDSE:
		// Fan the grid out across the worker fleet and merge the returned
		// envelopes; the coordinator checkpoints after every finished shard.
		ro := cluster.RunOptions{Shards: p.req.Shards}
		if rc != nil {
			var err error
			if ro.Resume, ro.OnShardDone, err = checkpointHooks[cluster.Checkpoint](rc, rc.Checkpoint()); err != nil {
				return nil, err
			}
			ro.OnProgress = func(cp cluster.Progress) {
				rc.ReportProgress(job.Progress{
					GridPoints:  p.points,
					Streamed:    cp.Streamed,
					Pruned:      cp.Pruned,
					Kept:        cp.Kept,
					ShardsDone:  cp.ShardsDone,
					ShardsTotal: cp.ShardsTotal,
				})
			}
		}
		res, err := s.cluster.Run(ctx, p.req, p.task, p.ci, ro)
		if err != nil {
			return nil, err
		}
		// The workers streamed the points; the coordinator still owns the
		// grid-level counters so /metrics aggregates match a standalone
		// daemon serving the same request.
		s.observeStream(p, res.Merged)
		return p.respondStream(res.Merged), nil
	}

	// The exhaustive streaming engine: lazy grid enumeration, the shared
	// shape-profile memo, and an incremental convex envelope, so only the
	// ever-optimal points ever materialize. A job checkpoints every
	// CheckpointEvery shapes, and the ordered engine makes a resumed run
	// bit-identical to an uninterrupted one. A shard job walks only its
	// shape range and answers with its survivor envelope, which the
	// coordinator folds into the whole-grid response.
	ck := cordoba.CheckpointOptions{StreamOptions: opt}
	sh := p.req.Shard
	if sh != nil {
		ck.Shard = &cordoba.StreamShard{First: sh.First, Count: sh.Count}
	}
	if rc != nil {
		resume := rc.Checkpoint()
		if len(resume) == 0 && sh != nil {
			// A checkpoint of this job (its worker crashed mid-shard) beats
			// the salvage the coordinator attached at dispatch, which
			// reflects an earlier attempt on another worker.
			resume = sh.Resume
		}
		var err error
		if ck.Resume, ck.OnCheckpoint, err = checkpointHooks[cordoba.StreamCheckpoint](rc, resume); err != nil {
			return nil, err
		}
		ck.Every = s.cfg.CheckpointEvery
		ck.OnProgress = func(sp cordoba.StreamProgress) {
			rc.ReportProgress(job.Progress{
				GridPoints:  p.points,
				Streamed:    sp.Streamed,
				Pruned:      sp.Pruned,
				Kept:        sp.Kept,
				ShapesDone:  sp.ShapesDone,
				ShapesTotal: sp.ShapesTotal,
			})
		}
	}
	res, err := cordoba.ExploreStreamCheckpointed(ctx, p.task, p.grid, p.fab, p.ci, ck)
	if err != nil {
		return nil, err
	}
	s.observeStream(p, res)
	if sh != nil {
		return cluster.EnvelopeFromResult(sh.First, sh.Count, res), nil
	}
	return p.respondStream(res), nil
}

// checkpointHooks wires an engine's checkpoint type T to a job: the resume
// point decoded from resume (nil on a fresh start) and a save hook that
// persists each new checkpoint as JSON through rc.
func checkpointHooks[T any](rc job.RunContext, resume json.RawMessage) (*T, func(*T) error, error) {
	var from *T
	if len(resume) > 0 {
		from = new(T)
		if err := json.Unmarshal(resume, from); err != nil {
			return nil, nil, err
		}
	}
	save := func(cp *T) error {
		b, err := json.Marshal(cp)
		if err != nil {
			return err
		}
		return rc.SaveCheckpoint(b)
	}
	return from, save, nil
}

// observeStream records one exhaustive walk: the points it streamed and
// pruned, and their evaluations per backend.
func (s *Server) observeStream(p *dsePlan, res *cordoba.StreamResult) {
	s.metrics.ObserveDSEStream(res.Total, res.Total-int64(res.Kept()))
	s.observeEvals(p, res.Total)
}

// observeEvals attributes n design evaluations to the plan's embodied-carbon
// backends. A knob grid is a full cartesian product, so each backend priced
// an equal share; a surrogate's evaluated subset need not split evenly, but
// these counters are throughput telemetry, not an audit.
func (s *Server) observeEvals(p *dsePlan, n int64) {
	models := p.grid.Models
	if p.req.Knobs == nil {
		models = []string{p.req.Model} // "" counts as act
	}
	if len(models) == 0 {
		s.metrics.ObserveModelEvals("act", n)
		return
	}
	for _, name := range models {
		s.metrics.ObserveModelEvals(name, n/int64(len(models)))
	}
}

// dseSummary is what a response reads from an evaluated space beyond its
// points: a list's Space, or the StreamResult that summarizes a whole grid
// around its envelope.
type dseSummary interface {
	EliminatedFraction() float64
	MeanTCDPAt(n float64) float64
}

// respond renders an evaluated space in the wire form shared by every
// engine: the request echo, the points, and the sweep of optima.
func (p *dsePlan) respond(space *cordoba.DesignSpace, sum dseSummary) *DSEResponse {
	process := p.proc.Node
	if p.req.Knobs != nil {
		process = strings.Join(p.grid.Nodes, ",")
	}
	resp := &DSEResponse{
		Task:               p.task.Name,
		Process:            process,
		Fab:                p.fab.Name,
		Model:              p.req.Model,
		Yield:              p.req.Yield,
		CIUse:              float64(p.ci),
		CITrace:            p.req.CITrace,
		TraceLifeS:         p.req.TraceLifeS,
		EliminatedFraction: sum.EliminatedFraction(),
	}
	for _, pt := range space.Points {
		resp.Points = append(resp.Points, dsePoint(pt))
	}
	for _, n := range cordoba.LogSpace(p.req.Sweep.Lo, p.req.Sweep.Hi, p.req.Sweep.Points) {
		opt := space.OptimalAt(n)
		resp.Sweep = append(resp.Sweep, SweepEntry{
			Inferences: n,
			OptimalID:  space.Points[opt].Config.ID,
			TCDPGS:     space.Points[opt].TCDP(space.CIUse, n),
			MeanTCDPGS: sum.MeanTCDPAt(n),
		})
	}
	return resp
}

// respondStream renders a knob-range result, whose points are exactly the
// ever-optimal envelope. A cluster job's merged result renders here too: its
// points, ever-optimal set, sweep optima and counters equal a single-node
// run's exactly, and its mean_tcdp_gs agrees to within floating-point
// re-association of the shard sums (relative 1e-12).
func (p *dsePlan) respondStream(res *cordoba.StreamResult) *DSEResponse {
	resp := p.respond(res.Space, res)
	for _, pt := range res.Space.Points {
		resp.EverOptimal = append(resp.EverOptimal, pt.Config.ID)
	}
	resp.PointsStreamed = res.Total
	resp.PointsPruned = res.Total - int64(res.Kept())
	return resp
}

// dsePoint renders one evaluated design for the response.
func dsePoint(p cordoba.DesignPoint) DSEPoint {
	pt := DSEPoint{
		ID:             p.Config.ID,
		MACArrays:      p.Config.MACArrays,
		SRAMMB:         p.Config.SRAM.InMB(),
		Is3D:           p.Config.Is3D,
		Model:          p.Model,
		DelayS:         p.Delay.Seconds(),
		EnergyJ:        p.Energy.Joules(),
		EmbodiedG:      p.Embodied.Grams(),
		AreaCM2:        p.Area.CM2(),
		EDPJS:          p.EDP(),
		EmbodiedDelayG: p.EmbodiedDelay(),
	}
	if part := p.Config.Partition; part.Active() {
		pt.Integration = part.Integration
		pt.Chiplets = part.Chiplets
		pt.ChipletNode = part.ChipletNode
		pt.Carrier = part.Carrier
	}
	return pt
}

// dseRunner returns the job runner for a DSE job kind: it plans the stored
// request under the recorded kind and executes it with the job's hooks. The
// result is rendered by the synchronous endpoint's encoder, so
// GET /v1/jobs/{id}/result matches POST /v1/dse byte for byte.
func (s *Server) dseRunner(kind string) job.Runner {
	return func(ctx context.Context, rc job.RunContext) (json.RawMessage, error) {
		var req DSERequest
		if err := json.Unmarshal(rc.Request(), &req); err != nil {
			return nil, err
		}
		p, err := s.planDSE(req, kind)
		if err != nil {
			return nil, err
		}
		v, err := s.execute(ctx, p, rc)
		if err != nil {
			return nil, err
		}
		return encodeJSON(v)
	}
}
