package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"cordoba"
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
