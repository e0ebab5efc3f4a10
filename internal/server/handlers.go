package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"cordoba"
	"cordoba/api"
	"cordoba/internal/dse"
)

// decodeJSON strictly decodes the request body into v, bounding the read at
// the server's body limit. Unknown fields, trailing garbage, and oversized
// bodies are all rejected.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mb *http.MaxBytesError
		if errors.As(err, &mb) {
			return err // writeError maps this onto 413
		}
		return errf(http.StatusBadRequest, "malformed JSON request: %v", err)
	}
	if dec.More() {
		return errf(http.StatusBadRequest, "malformed JSON request: trailing data after object")
	}
	return nil
}

// respondCached consults the response cache for key and replays a hit;
// otherwise it runs build, writes the result, and stores the exact bytes so
// a later identical request returns a byte-identical body.
func (s *Server) respondCached(w http.ResponseWriter, key string, build func() (any, error)) error {
	if resp, ok := s.cache.Get(key); ok {
		s.metrics.CacheHit()
		w.Header().Set("X-Cache", "hit")
		w.Header().Set("Content-Type", resp.ContentType)
		w.WriteHeader(resp.Status)
		_, err := w.Write(resp.Body)
		return err
	}
	s.metrics.CacheMiss()
	w.Header().Set("X-Cache", "miss")
	v, err := build()
	if err != nil {
		return err
	}
	body, err := writeJSON(w, http.StatusOK, v)
	if err != nil {
		return err
	}
	s.cache.Put(key, cachedResponse{
		Status:      http.StatusOK,
		ContentType: "application/json",
		Body:        body,
	})
	return nil
}

// ---- POST /v1/accounting ----

func (s *Server) handleAccounting(w http.ResponseWriter, r *http.Request) error {
	var req AccountingRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		return err
	}
	if req.Process == "" {
		req.Process = "7nm"
	}
	if req.Fab == "" {
		req.Fab = "coal-heavy"
	}
	if req.Accelerator == nil && req.Yield.IsZero() {
		req.Yield.Value = 1.0
	}

	key, err := canonicalKey("/v1/accounting", req)
	if err != nil {
		return err
	}
	return s.respondCached(w, key, func() (any, error) { return s.buildAccounting(req) })
}

func (s *Server) buildAccounting(req AccountingRequest) (*AccountingResponse, error) {
	proc, err := cordoba.ProcessByName(req.Process)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	fab, err := cordoba.FabByName(req.Fab)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	var model cordoba.CarbonModel
	if req.Model != "" {
		if model, err = cordoba.CarbonModelByName(req.Model); err != nil {
			return nil, errf(http.StatusBadRequest, "%v (see GET /v1/models)", err)
		}
	}
	var ym cordoba.YieldModel
	if req.Yield.Model != "" {
		if ym, err = cordoba.YieldModelByName(req.Yield.Model); err != nil {
			return nil, errf(http.StatusBadRequest, "%v (see GET /v1/models)", err)
		}
	}
	resp := &AccountingResponse{
		Process:    proc.Node,
		Fab:        fab.Name,
		FabCI:      float64(fab.CI),
		PerAreaG:   proc.CarbonPerArea(fab).Grams(),
		Model:      req.Model,
		YieldModel: req.Yield.Model,
	}

	switch {
	case req.Accelerator != nil:
		cfg, err := s.resolveAccel(*req.Accelerator)
		if err != nil {
			return nil, err
		}
		bd, err := cfg.EmbodiedBreakdown(model, ym, proc, fab)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "%v", err)
		}
		resp.ConfigID = cfg.ID
		resp.AreaCM2 = cfg.TotalArea().CM2()
		resp.EmbodiedG = bd.Total.Grams()
		if req.Model != "" {
			resp.SiliconG = bd.Silicon.Grams()
			resp.PackagingG = bd.Packaging.Grams()
			resp.BondingG = bd.Bonding.Grams()
		}
		resp.Description = fmt.Sprintf(
			"accelerator %s (%d MAC arrays, %.0f MB SRAM) incl. yield and packaging",
			cfg.ID, cfg.MACArrays, cfg.SRAM.InMB())
		s.metrics.ObserveModelEvals(bd.Model, 1)
	case req.AreaCM2 > 0:
		area := cordoba.Area(req.AreaCM2)
		y := req.Yield.Value
		if ym != nil {
			y = ym.Yield(area, fab.DefectDensity)
		}
		if model == nil {
			// Historical scalar path: eq. IV.5 directly.
			emb, err := cordoba.EmbodiedDie(proc, fab, area, y)
			if err != nil {
				return nil, errf(http.StatusBadRequest, "%v", err)
			}
			resp.EmbodiedG = emb.Grams()
			s.metrics.ObserveModelEvals("act", 1)
		} else {
			bd, err := model.EmbodiedDesign(cordoba.DesignSpec{
				Name: "die",
				Fab:  fab,
				Dies: []cordoba.DieSpec{{Name: "die", Area: area, Process: proc, Yield: y}},
			})
			if err != nil {
				return nil, errf(http.StatusBadRequest, "%v", err)
			}
			resp.EmbodiedG = bd.Total.Grams()
			resp.SiliconG = bd.Silicon.Grams()
			resp.PackagingG = bd.Packaging.Grams()
			resp.BondingG = bd.Bonding.Grams()
			s.metrics.ObserveModelEvals(bd.Model, 1)
		}
		resp.AreaCM2 = req.AreaCM2
		resp.Yield = y
		resp.Description = fmt.Sprintf("bare die of %.3g cm² at yield %.3g", req.AreaCM2, y)
	default:
		return nil, errf(http.StatusBadRequest,
			"request needs either area_cm2 > 0 or an accelerator spec")
	}
	resp.EmbodiedKG = resp.EmbodiedG / 1e3
	return resp, nil
}

// resolveAccel turns an AccelSpec into a concrete configuration.
func (s *Server) resolveAccel(spec AccelSpec) (cordoba.AcceleratorConfig, error) {
	if spec.ID != "" {
		cfg, ok := s.configs[spec.ID]
		if !ok {
			return cordoba.AcceleratorConfig{}, errf(http.StatusBadRequest,
				"unknown accelerator config %q (see GET /v1/configs)", spec.ID)
		}
		return cfg, nil
	}
	if spec.MACArrays <= 0 || spec.SRAMMB <= 0 {
		return cordoba.AcceleratorConfig{}, errf(http.StatusBadRequest,
			"accelerator spec needs an id or positive mac_arrays and sram_mb")
	}
	cfg := cordoba.NewAccelerator(
		fmt.Sprintf("custom_%dx%gMB", spec.MACArrays, spec.SRAMMB),
		spec.MACArrays, cordoba.MB(spec.SRAMMB))
	cfg.Is3D = spec.Is3D
	cfg.MemDies = spec.MemDies
	return cfg, nil
}

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
	return s.respondCached(w, key, func() (any, error) { return s.buildDSE(r.Context(), req) })
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
// in the documented defaults. Both the synchronous handler and the async job
// runner route requests through here, so the two paths accept exactly the
// same bodies.
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

// Knob-range search engines. The empty string and "auto" resolve by grid
// size in dseSearchMode.
const (
	searchExhaustive = "exhaustive"
	searchSurrogate  = "surrogate"
)

// dseSearchMode resolves which engine serves a knob-range request over a
// grid of the given size. Field validation already happened in defaultDSE;
// ""/"auto" selects exhaustive for grids within the server's cap (shard
// forms are always exhaustive — they are judged per node) and surrogate
// above it. A surrogate spec implies the surrogate engine.
func (s *Server) dseSearchMode(req DSERequest, size int64) string {
	switch {
	case req.Search == searchSurrogate,
		req.Surrogate != nil && (req.Search == "" || req.Search == "auto"):
		return searchSurrogate
	case req.Search == "" || req.Search == "auto":
		if req.Shard == nil && req.Shards == 0 && size > s.cfg.MaxGridPoints {
			return searchSurrogate
		}
		return searchExhaustive
	default:
		return searchExhaustive
	}
}

// dseInputs is a validated, resolved DSE request: everything the engines
// need, shared between the synchronous handler and the async job runner.
type dseInputs struct {
	req   DSERequest
	task  cordoba.Task
	proc  cordoba.Process
	fab   cordoba.Fab
	model cordoba.CarbonModel // nil: ACT
	yield cordoba.YieldModel  // nil: Murphy
}

// resolveDSE validates a defaulted request and resolves its names (task,
// process, fab, trace, accounting) into model objects.
func (s *Server) resolveDSE(req DSERequest) (dseInputs, error) {
	var in dseInputs
	task, err := s.taskByName(req.Task)
	if err != nil {
		return in, err
	}
	proc, err := cordoba.ProcessByName(req.Process)
	if err != nil {
		return in, errf(http.StatusBadRequest, "%v", err)
	}
	fab, err := cordoba.FabByName(req.Fab)
	if err != nil {
		return in, errf(http.StatusBadRequest, "%v", err)
	}
	if req.CIUse < 0 {
		return in, errf(http.StatusBadRequest, "ci_use must be non-negative, got %g", req.CIUse)
	}
	if req.CITrace != "" {
		// Resolve the named trace to its exact time-average intensity over
		// the requested lifetime; the scalar then flows through both the
		// list and knob-grid engines unchanged.
		s.metrics.ObserveTraceLookup()
		cum, ok := s.traces[req.CITrace]
		if !ok {
			return in, errf(http.StatusBadRequest, "unknown trace %q (see GET /v1/traces)", req.CITrace)
		}
		if req.TraceLifeS <= 0 {
			return in, errf(http.StatusBadRequest, "trace_life_s must be positive, got %g", req.TraceLifeS)
		}
		avg, err := cum.AverageBetween(0, cordoba.Time(req.TraceLifeS))
		if err != nil {
			return in, errf(http.StatusBadRequest, "%v", err)
		}
		req.CIUse = float64(avg)
	}
	if req.Sweep.Lo <= 0 || req.Sweep.Hi < req.Sweep.Lo || req.Sweep.Points < 1 || req.Sweep.Points > 10000 {
		return in, errf(http.StatusBadRequest,
			"sweep needs 0 < lo <= hi and 1 <= points <= 10000, got lo=%g hi=%g points=%d",
			req.Sweep.Lo, req.Sweep.Hi, req.Sweep.Points)
	}
	model, yield, err := resolveAccounting(req)
	if err != nil {
		return in, err
	}
	return dseInputs{req: req, task: task, proc: proc, fab: fab, model: model, yield: yield}, nil
}

// streamOptions returns the engine options every evaluation path runs a
// resolved request under: the pool's per-evaluation fan-out, the daemon's
// shared shape-profile memo and the request's yield model.
func (s *Server) streamOptions(in dseInputs) cordoba.StreamOptions {
	return cordoba.StreamOptions{Workers: s.pool.Workers(), Memo: s.memo, Yield: in.yield}
}

func (s *Server) buildDSE(ctx context.Context, req DSERequest) (*DSEResponse, error) {
	in, err := s.resolveDSE(req)
	if err != nil {
		return nil, err
	}
	if in.req.Knobs != nil {
		g, err := s.knobGrid(in.req, in.proc)
		if err != nil {
			return nil, err
		}
		if s.dseSearchMode(in.req, g.Size()) == searchSurrogate {
			return s.buildDSESurrogate(ctx, in, surrogateRunHooks{})
		}
		return s.buildDSEStream(ctx, in, cordoba.CheckpointOptions{})
	}
	return s.buildDSEList(ctx, in)
}

// buildDSEList serves the set/configs form of POST /v1/dse: an explicit
// configuration list priced through the daemon's shared memo. A dropped
// client cancels ctx and aborts the evaluation.
func (s *Server) buildDSEList(ctx context.Context, in dseInputs) (*DSEResponse, error) {
	req, task, proc, fab := in.req, in.task, in.proc, in.fab
	configs, err := s.resolveConfigs(req)
	if err != nil {
		return nil, err
	}

	// The evaluation is the expensive part; it runs under a pool slot so a
	// burst of uncached requests queues instead of oversubscribing.
	if err := s.pool.Acquire(ctx); err != nil {
		return nil, err
	}
	defer s.pool.Release()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	space, err := dse.Evaluate(ctx, task, configs, proc, fab,
		cordoba.CarbonIntensity(req.CIUse), in.model, s.streamOptions(in))
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	modelName := req.Model
	if modelName == "" {
		modelName = "act"
	}
	s.metrics.ObserveModelEvals(modelName, int64(len(configs)))

	resp := &DSEResponse{
		Task:               task.Name,
		Process:            proc.Node,
		Fab:                fab.Name,
		Model:              req.Model,
		Yield:              req.Yield,
		CIUse:              req.CIUse,
		CITrace:            req.CITrace,
		TraceLifeS:         req.TraceLifeS,
		EverOptimal:        space.IDs(space.EverOptimal()),
		EliminatedFraction: space.EliminatedFraction(),
	}
	for _, p := range space.Points {
		resp.Points = append(resp.Points, dsePoint(p))
	}
	for _, n := range cordoba.LogSpace(req.Sweep.Lo, req.Sweep.Hi, req.Sweep.Points) {
		opt := space.OptimalAt(n)
		resp.Sweep = append(resp.Sweep, SweepEntry{
			Inferences: n,
			OptimalID:  space.Points[opt].Config.ID,
			TCDPGS:     space.Points[opt].TCDP(space.CIUse, n),
			MeanTCDPGS: space.MeanTCDPAt(n),
		})
	}
	return resp, nil
}

// resolveAccounting validates a request's model/yield selections; an empty
// field resolves to nil, which keeps the default ACT/Murphy pipeline and
// leaves responses exactly as before the fields existed.
func resolveAccounting(req DSERequest) (model cordoba.CarbonModel, yield cordoba.YieldModel, err error) {
	if req.Model != "" {
		if model, err = cordoba.CarbonModelByName(req.Model); err != nil {
			return nil, nil, errf(http.StatusBadRequest, "%v (see GET /v1/models)", err)
		}
	}
	if req.Yield != "" {
		if yield, err = cordoba.YieldModelByName(req.Yield); err != nil {
			return nil, nil, errf(http.StatusBadRequest, "%v (see GET /v1/models)", err)
		}
	}
	return model, yield, nil
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

// buildDSEStream serves the knob-range form of POST /v1/dse through the v2
// streaming engine: lazy grid enumeration, the server's shared shape-profile
// memo, and an incremental convex envelope, so only the ever-optimal points
// ever materialize.
// knobGrid validates a knob-range request and materializes the lazy grid
// description, applying the scalar process/model fields as single-axis
// defaults.
func (s *Server) knobGrid(req DSERequest, proc cordoba.Process) (cordoba.KnobGrid, error) {
	var g cordoba.KnobGrid
	if err := validateDSESpace(req); err != nil {
		return g, err
	}
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
	size := g.Size()
	if s.dseSearchMode(req, size) == searchSurrogate {
		// The budgeted search pays per evaluation, not per lattice point, so
		// the cap bounds the budget rather than the grid. Only an explicitly
		// requested budget can violate it — a defaulted budget is clamped to
		// the cap in buildDSESurrogate, keeping auto-selected surrogate runs
		// servable on any grid.
		if budget := explicitSurrogateBudget(req, s.cfg); budget > s.cfg.MaxGridPoints {
			return g, errf(http.StatusBadRequest,
				"surrogate budget %d is above this server's cap of %d evaluations", budget, s.cfg.MaxGridPoints)
		}
		if sp := req.Surrogate; sp != nil && sp.Oracle && size > s.cfg.MaxGridPoints {
			return g, errf(http.StatusBadRequest,
				"surrogate.oracle also runs the exhaustive engine — the %d-point grid is above this server's cap of %d",
				size, s.cfg.MaxGridPoints)
		}
		return g, nil
	}
	// The cap bounds what one node evaluates, so sharded requests are judged
	// by their largest per-node share, not the whole grid — distributing is
	// exactly how a grid above the single-node cap becomes servable.
	shapes := int64(len(g.MACArrays) * len(g.SRAMMB))
	cells := size / shapes
	perNode := size
	if sh := req.Shard; sh != nil {
		if int64(sh.First)+int64(sh.Count) > shapes {
			return g, errf(http.StatusBadRequest,
				"shard [%d,%d) is outside the grid's %d shapes", sh.First, sh.First+sh.Count, shapes)
		}
		perNode = cells * int64(sh.Count)
	} else if req.Shards > 0 {
		n := int64(req.Shards)
		if n > shapes {
			n = shapes
		}
		perNode = cells * ((shapes + n - 1) / n)
	}
	if perNode > s.cfg.MaxGridPoints {
		if perNode == size {
			return g, errf(http.StatusBadRequest,
				"knob grid has %d points, above this server's cap of %d", size, s.cfg.MaxGridPoints)
		}
		return g, errf(http.StatusBadRequest,
			"largest shard covers %d points, above this server's cap of %d", perNode, s.cfg.MaxGridPoints)
	}
	return g, nil
}

func (s *Server) buildDSEStream(ctx context.Context, in dseInputs, ck cordoba.CheckpointOptions) (*DSEResponse, error) {
	req, task, fab := in.req, in.task, in.fab
	g, err := s.knobGrid(req, in.proc)
	if err != nil {
		return nil, err
	}

	if err := s.pool.Acquire(ctx); err != nil {
		return nil, err
	}
	defer s.pool.Release()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ck.StreamOptions = s.streamOptions(in)
	res, err := cordoba.ExploreStreamCheckpointed(ctx, task, g, fab, cordoba.CarbonIntensity(req.CIUse), ck)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	s.metrics.ObserveDSEStream(res.Total, res.Total-int64(res.Kept()))
	// The grid is a full cartesian product, so each backend priced an equal
	// share of the streamed points.
	if len(g.Models) == 0 {
		s.metrics.ObserveModelEvals("act", res.Total)
	} else {
		for _, name := range g.Models {
			s.metrics.ObserveModelEvals(name, res.Total/int64(len(g.Models)))
		}
	}

	return renderStreamResponse(in, g, res), nil
}

// explicitSurrogateBudget returns the budget a surrogate request pinned
// explicitly — from the request body, else the server's -surrogate-budget —
// or 0 when both defer to the engine default.
func explicitSurrogateBudget(req DSERequest, cfg Config) int64 {
	if sp := req.Surrogate; sp != nil && sp.Budget != 0 {
		return sp.Budget
	}
	return cfg.SurrogateBudget
}

// surrogateRunHooks carries the async runner's checkpoint/progress plumbing
// into a surrogate run; the zero value runs synchronously without either.
type surrogateRunHooks struct {
	resume       *cordoba.SurrogateCheckpoint
	every        int
	onCheckpoint func(*cordoba.SurrogateCheckpoint) error
	onProgress   func(cordoba.SurrogateProgress)
}

// buildDSESurrogate serves a knob-range request through the surrogate-guided
// Pareto search: a fixed-seed, budgeted NSGA-style walk over the lazy grid
// that shares the server's shape-profile memo with the exhaustive engine.
// When the request asks for an oracle comparison, the exhaustive engine runs
// on the same grid afterwards and the response carries the quality metrics.
func (s *Server) buildDSESurrogate(ctx context.Context, in dseInputs, hooks surrogateRunHooks) (*DSEResponse, error) {
	req, task, fab := in.req, in.task, in.fab
	g, err := s.knobGrid(req, in.proc)
	if err != nil {
		return nil, err
	}

	if err := s.pool.Acquire(ctx); err != nil {
		return nil, err
	}
	defer s.pool.Release()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opt := cordoba.SurrogateOptions{
		StreamOptions: s.streamOptions(in),
		Budget:        s.cfg.SurrogateBudget,
		Population:    s.cfg.SurrogatePopulation,
		Resume:        hooks.resume,
		Every:         hooks.every,
		OnCheckpoint:  hooks.onCheckpoint,
		OnProgress:    hooks.onProgress,
	}
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
	if opt.Budget == 0 {
		// Resolve the engine default here so the server's evaluation cap can
		// bound it — auto-selected surrogate runs stay servable on any grid.
		opt.Budget = cordoba.DefaultSurrogateBudget(g.Size(), opt.Population)
		if opt.Budget > s.cfg.MaxGridPoints {
			opt.Budget = s.cfg.MaxGridPoints
		}
	}
	ci := cordoba.CarbonIntensity(req.CIUse)
	res, err := cordoba.ExploreSurrogate(ctx, task, g, fab, ci, opt)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	s.metrics.ObserveDSESurrogate(res.Evaluations, res.Skipped, int64(res.Generations))
	// The evaluated subset is not guaranteed to split evenly across model
	// backends, but the per-model counters are throughput telemetry, not an
	// audit — attribute the uniform share like the exhaustive path does.
	if len(g.Models) == 0 {
		s.metrics.ObserveModelEvals("act", res.Evaluations)
	} else {
		for _, name := range g.Models {
			s.metrics.ObserveModelEvals(name, res.Evaluations/int64(len(g.Models)))
		}
	}

	resp := renderStreamResponse(in, g, res.StreamResult)
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
	if sp := req.Surrogate; sp != nil && sp.Oracle {
		ck := cordoba.CheckpointOptions{StreamOptions: opt.StreamOptions}
		oracle, err := cordoba.ExploreStreamCheckpointed(ctx, task, g, fab, ci, ck)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, errf(http.StatusBadRequest, "%v", err)
		}
		s.metrics.ObserveDSEStream(oracle.Total, oracle.Total-int64(oracle.Kept()))
		q := cordoba.MeasureEnvelopeQuality(res.StreamResult, oracle)
		info.HypervolumeRatio = &q.HypervolumeRatio
		info.AdditiveEpsilon = &q.AdditiveEpsilon
		info.Coverage = &q.Coverage
	}
	resp.Surrogate = info
	return resp, nil
}

// renderStreamResponse renders a streaming result in the wire form. The
// synchronous handler, the async DSE runner, and the cluster coordinator's
// merge path all finish here, so a sharded run's response is byte-identical
// to a single-node run of the same request.
func renderStreamResponse(in dseInputs, g cordoba.KnobGrid, res *cordoba.StreamResult) *DSEResponse {
	req := in.req
	space := res.Space
	resp := &DSEResponse{
		Task:               in.task.Name,
		Process:            strings.Join(g.Nodes, ","),
		Fab:                in.fab.Name,
		Model:              req.Model,
		Yield:              req.Yield,
		CIUse:              req.CIUse,
		CITrace:            req.CITrace,
		TraceLifeS:         req.TraceLifeS,
		EliminatedFraction: res.EliminatedFraction(),
		PointsStreamed:     res.Total,
		PointsPruned:       res.Total - int64(res.Kept()),
	}
	for _, p := range space.Points {
		resp.Points = append(resp.Points, dsePoint(p))
		resp.EverOptimal = append(resp.EverOptimal, p.Config.ID)
	}
	for _, n := range cordoba.LogSpace(req.Sweep.Lo, req.Sweep.Hi, req.Sweep.Points) {
		opt := res.OptimalAt(n)
		resp.Sweep = append(resp.Sweep, SweepEntry{
			Inferences: n,
			OptimalID:  space.Points[opt].Config.ID,
			TCDPGS:     space.Points[opt].TCDP(space.CIUse, n),
			MeanTCDPGS: res.MeanTCDPAt(n),
		})
	}
	return resp
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

// resolveConfigs materializes the design space a DSE request names.
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

// ---- GET /v1/experiments and /v1/experiments/{key} ----

func (s *Server) handleExperimentsList(w http.ResponseWriter, r *http.Request) error {
	var out []experimentInfo
	for _, e := range cordoba.Experiments() {
		out = append(out, experimentInfo{Key: e.Key, Title: e.Title, Formats: []string{"json", "csv", "text"}})
	}
	_, err := writeJSON(w, http.StatusOK, out)
	return err
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) error {
	key := r.PathValue("key")
	if _, err := cordoba.ExperimentResult(key); err != nil {
		return errf(http.StatusNotFound,
			"unknown experiment %q (keys: %s)", key, strings.Join(cordoba.ExperimentKeys(), ", "))
	}
	// The export registry streams straight to the client; large series
	// (fig8 CSV is tens of thousands of rows) never materialize in memory.
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		return cordoba.ExportExperimentJSON(key, w)
	case "csv":
		// Keys without a tabular form fail before the first write, so the
		// error envelope still goes out with a clean 400.
		w.Header().Set("Content-Type", "text/csv")
		if err := cordoba.ExportExperimentCSV(key, w); err != nil {
			return errf(http.StatusBadRequest, "%v", err)
		}
		return nil
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		return cordoba.RunExperiment(key, w)
	default:
		return errf(http.StatusBadRequest, "unknown format %q (json, csv, or text)", format)
	}
}

// ---- GET /v1/tasks and /v1/configs ----

func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) error {
	tasks := append(cordoba.PaperTasks(), cordoba.XRGamingTask())
	out := make([]taskInfo, 0, len(tasks))
	for _, t := range tasks {
		calls := make(map[string]float64, len(t.Calls))
		for k, n := range t.Calls {
			calls[string(k)] = n
		}
		out = append(out, taskInfo{Name: t.Name, Kernels: calls, TotalCalls: t.TotalCalls()})
	}
	_, err := writeJSON(w, http.StatusOK, out)
	return err
}

func (s *Server) handleConfigs(w http.ResponseWriter, r *http.Request) error {
	var configs []cordoba.AcceleratorConfig
	switch set := r.URL.Query().Get("set"); set {
	case "", "grid":
		configs = cordoba.Grid()
	case "3d":
		configs = cordoba.Stacked3D()
	case "all":
		configs = append(cordoba.Grid(), cordoba.Stacked3D()...)
	default:
		return errf(http.StatusBadRequest, `unknown config set %q (use "grid", "3d", or "all")`, set)
	}
	out := make([]configInfo, 0, len(configs))
	for _, c := range configs {
		out = append(out, configInfo{
			ID:        c.ID,
			MACArrays: c.MACArrays,
			TotalMACs: c.TotalMACs(),
			SRAMMB:    c.SRAM.InMB(),
			Is3D:      c.Is3D,
			MemDies:   c.MemDies,
			AreaCM2:   c.TotalArea().CM2(),
		})
	}
	_, err := writeJSON(w, http.StatusOK, out)
	return err
}

// ---- GET /v1/models ----

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) error {
	resp := modelsResponse{YieldModels: cordoba.YieldModelNames()}
	for _, mi := range cordoba.CarbonModelInfos() {
		resp.Models = append(resp.Models, modelInfo{
			Name:         mi.Name,
			Description:  mi.Description,
			Integrations: mi.Integrations,
		})
	}
	_, err := writeJSON(w, http.StatusOK, resp)
	return err
}

// ---- GET /healthz and /metrics ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	_, err := writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	return err
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	return s.metrics.WriteProm(w)
}
