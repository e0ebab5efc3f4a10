package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"cordoba"
	"cordoba/api"
	"cordoba/internal/accel"
	"cordoba/internal/carbon"
	"cordoba/internal/job"
	"cordoba/internal/nn"
	"cordoba/internal/pareto"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

// The per-layer replays below feed a workload's stage inputs through each
// layer's public functions, outside the timed window, and time them.

// engineReplay is one grid replayed through the streaming engine and then
// layer by layer.
type engineReplay struct {
	points     int64
	kernels    int
	streamWall float64 // seconds, ExploreStream end to end
	streamCPU  float64 // process CPU seconds of the same call
	allocs     uint64

	profileCalls int
	profileDur   time.Duration
	costCalls    int64
	costDur      time.Duration
	embCalls     int
	embDur       time.Duration
	shapes       int
	offers       int64
	accepted     int64
	offerDur     time.Duration
	kept         int

	ckptBytes int
	ckpt      []byte
}

// replayPlatform prices kernels from precomputed shape profiles, as the
// streaming engine does.
type replayPlatform struct {
	cfg      accel.Config
	profiles map[nn.KernelID]*accel.ShapeProfile
}

func (p replayPlatform) KernelCost(id nn.KernelID) (workload.KernelCost, error) {
	sp, ok := p.profiles[id]
	if !ok {
		return workload.KernelCost{}, fmt.Errorf("no profile for kernel %v", id)
	}
	return sp.Cost(p.cfg), nil
}

func (p replayPlatform) LeakagePower() units.Power { return p.cfg.LeakagePower() }

// modelFor is the embodied-carbon backend the grid prices a cell with: the
// integration style's natural backend on partition axes, ACT otherwise.
func modelFor(c accel.Config) (carbon.Model, error) {
	if c.Partition.Integration == "" {
		return nil, nil
	}
	name, err := carbon.ModelForIntegration(c.Partition.Integration)
	if err != nil {
		return nil, err
	}
	return carbon.ModelByName(name)
}

// replayEngine replays one knob body. memo, when non-nil, is the warm memo
// the live daemon would have had.
func replayEngine(ctx context.Context, body api.DSERequest, workers int, memo *cordoba.MemoCache) (*engineReplay, error) {
	task, fab, ci, err := engineInputs(body)
	if err != nil {
		return nil, err
	}
	g := knobGrid(body)
	kernels := task.Kernels()
	er := &engineReplay{kernels: len(kernels)}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuSeconds(), time.Now()
	res, err := cordoba.ExploreStreamAt(ctx, task, g, fab, ci, cordoba.StreamOptions{Workers: workers, Memo: memo})
	er.streamWall, er.streamCPU = time.Since(t0).Seconds(), cpuSeconds()-c0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	er.allocs = m1.Mallocs - m0.Mallocs
	er.points, er.kept = res.Total, res.Kept()

	// The checkpoint a job of this grid writes, at the daemon's default
	// cadence of 8 shapes.
	_, err = cordoba.ExploreStreamCheckpointed(ctx, task, g, fab, ci, cordoba.CheckpointOptions{
		StreamOptions: cordoba.StreamOptions{Workers: workers},
		Every:         8,
		OnCheckpoint: func(cp *cordoba.StreamCheckpoint) error {
			b, err := json.Marshal(cp)
			if err == nil && len(b) > er.ckptBytes {
				er.ckptBytes, er.ckpt = len(b), b
			}
			return err
		},
	})
	if err != nil {
		return nil, err
	}

	configs, procs, err := g.Materialize()
	if err != nil {
		return nil, err
	}
	// accel: one shape profile per (shape, kernel).
	profiles := map[accel.ShapeKey]map[nn.KernelID]*accel.ShapeProfile{}
	for _, c := range configs {
		key := c.ShapeKey()
		if profiles[key] != nil {
			continue
		}
		m := map[nn.KernelID]*accel.ShapeProfile{}
		for _, k := range kernels {
			t := time.Now()
			sp, err := c.ShapeProfile(k)
			er.profileDur += time.Since(t)
			if err != nil {
				return nil, err
			}
			m[k] = sp
			er.profileCalls++
		}
		profiles[key] = m
	}
	er.shapes = len(profiles)
	// accel: the per-cell cost of each kernel.
	var sink units.Time
	t := time.Now()
	for _, c := range configs {
		for _, sp := range profiles[c.ShapeKey()] {
			sink += sp.Cost(c).Delay
		}
	}
	er.costDur = time.Since(t)
	er.costCalls = int64(len(configs)) * int64(len(kernels))
	// carbon: one embodied price per (shape, embodied class).
	type embKey struct {
		shape accel.ShapeKey
		node  string
		part  accel.Partition
	}
	emb := map[embKey]units.Carbon{}
	for i, c := range configs {
		k := embKey{c.ShapeKey(), procs[i].Node, c.Partition}
		if _, ok := emb[k]; ok {
			continue
		}
		m, err := modelFor(c)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		e, err := c.EmbodiedWith(m, nil, procs[i], fab)
		er.embDur += time.Since(t)
		if err != nil {
			return nil, err
		}
		emb[k] = e
		er.embCalls++
	}
	// pareto: per-shape dominance pre-pruning, then the envelope offers.
	var stream pareto.Stream
	var fs pareto.FrontScratch
	var lp []pareto.Point
	for lo := 0; lo < len(configs); {
		key := configs[lo].ShapeKey()
		hi := lo
		lp = lp[:0]
		for ; hi < len(configs) && configs[hi].ShapeKey() == key; hi++ {
			c := configs[hi]
			cost, err := workload.Evaluate(task, replayPlatform{c, profiles[key]})
			if err != nil {
				return nil, err
			}
			p := cordoba.DesignPoint{Config: c, Delay: cost.Delay, Energy: cost.Energy, Embodied: emb[embKey{key, procs[hi].Node, c.Partition}]}
			lp = append(lp, pareto.Point{X: p.EDP(), Y: p.EmbodiedDelay()})
		}
		front := fs.Front(lp)
		t := time.Now()
		for _, idx := range front {
			if ok, _ := stream.Offer(int64(lo+idx), lp[idx]); ok {
				er.accepted++
			}
		}
		er.offerDur += time.Since(t)
		er.offers += int64(len(front))
		lo = hi
	}
	if stream.Len() != er.kept || sink < 0 {
		return nil, fmt.Errorf("layer replay kept %d designs, the engine %d", stream.Len(), er.kept)
	}
	return er, nil
}

// surrogateTiming is one surrogate body replayed in process.
type surrogateTiming struct {
	evals, grid int64
	wall, cpu   float64
	allocs      uint64
}

func replaySurrogate(ctx context.Context, body api.DSERequest, workers int) (*surrogateTiming, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuSeconds(), time.Now()
	res, err := surrogateReplay(ctx, body, workers)
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	return &surrogateTiming{res.Evaluations, res.GridPoints, wall, cpu, m1.Mallocs - m0.Mallocs}, nil
}

// replayAPI times encoding/json on captured request and response bodies:
// the decode every request pays and the encode every response pays.
func replayAPI(reqs, resps [][]byte) (decodeUs, encodeUs float64, err error) {
	const reps = 3
	t := time.Now()
	for r := 0; r < reps; r++ {
		for _, b := range reqs {
			var v api.DSERequest
			if err := json.Unmarshal(b, &v); err != nil {
				return 0, 0, err
			}
		}
	}
	if len(reqs) > 0 {
		decodeUs = float64(time.Since(t).Microseconds()) / float64(reps*len(reqs))
	}
	decoded := make([]api.DSEResponse, len(resps))
	for i, b := range resps {
		if err := json.Unmarshal(b, &decoded[i]); err != nil {
			return 0, 0, err
		}
	}
	t = time.Now()
	for r := 0; r < reps; r++ {
		for i := range decoded {
			if _, err := json.Marshal(&decoded[i]); err != nil {
				return 0, 0, err
			}
		}
	}
	if len(resps) > 0 {
		encodeUs = float64(time.Since(t).Microseconds()) / float64(reps*len(resps))
	}
	return decodeUs, encodeUs, nil
}

// replayPut times job.DirStore.Put of a running job's record carrying a
// checkpoint of the captured size.
func replayPut(dir string, body api.DSERequest, ckpt []byte) (float64, error) {
	store, err := job.NewDirStore(dir)
	if err != nil {
		return 0, err
	}
	rec := job.Record{ID: "replay", Kind: "dse", State: job.StateRunning, Request: json.RawMessage(mustJSON(body)),
		Checkpoint: ckpt, Created: time.Now(), Started: time.Now()}
	var puts samples
	for i := 0; i < 20; i++ {
		t := time.Now()
		if err := store.Put(rec); err != nil {
			return 0, err
		}
		puts = append(puts, ms(time.Since(t)))
	}
	return puts.median(), nil
}

// engineLayers reports the replayed engine layers, merging several grids.
func engineLayers(rep *report, ers []*engineReplay, liveProfiles int64) {
	var e engineReplay
	for _, r := range ers {
		e.points += r.points
		e.streamWall += r.streamWall
		e.allocs += r.allocs
		e.profileCalls += r.profileCalls
		e.profileDur += r.profileDur
		e.costCalls += r.costCalls
		e.costDur += r.costDur
		e.embCalls += r.embCalls
		e.embDur += r.embDur
		e.shapes += r.shapes
		e.offers += r.offers
		e.accepted += r.accepted
		e.offerDur += r.offerDur
		e.ckptBytes = max(e.ckptBytes, r.ckptBytes)
	}
	kp := float64(e.points) / 1000
	rep.layer("dse.stream_ms_per_kpoint", "ms", e.streamWall*1000/kp, len(ers))
	rep.layer("dse.stream_allocs_per_kpoint", "count", float64(e.allocs)/kp, len(ers))
	rep.layer("accel.shape_profile_us", "us", float64(e.profileDur.Nanoseconds())/1e3/float64(e.profileCalls), e.profileCalls)
	rep.layer("accel.profile_calls", "count", float64(liveProfiles), 1)
	rep.layer("accel.shape_cost_ns", "ns", float64(e.costDur.Nanoseconds())/float64(e.costCalls), int(e.costCalls))
	rep.layer("carbon.embodied_us", "us", float64(e.embDur.Nanoseconds())/1e3/float64(e.embCalls), e.embCalls)
	rep.layer("carbon.classes", "count", float64(e.embCalls)/float64(e.shapes), e.shapes)
	rep.layer("pareto.offer_ns", "ns", float64(e.offerDur.Nanoseconds())/float64(e.offers), int(e.offers))
	rep.layer("pareto.accept_ratio", "ratio", float64(e.accepted)/float64(e.offers), int(e.offers))
	rep.layer("job.checkpoint_bytes", "B", float64(e.ckptBytes), len(ers))
}

// surrogateLayers reports the replayed surrogate search.
func surrogateLayers(rep *report, ts []*surrogateTiming) {
	var evals, grid int64
	var wall float64
	var allocs uint64
	for _, t := range ts {
		evals += t.evals
		grid += t.grid
		wall += t.wall
		allocs += t.allocs
	}
	rep.layer("dse.surrogate_ms_per_eval", "ms", wall*1000/float64(evals), int(evals))
	rep.layer("dse.surrogate_allocs_per_eval", "count", float64(allocs)/float64(evals), int(evals))
	rep.layer("dse.surrogate_eval_fraction", "ratio", float64(evals)/float64(grid), len(ts))
}
