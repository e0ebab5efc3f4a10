package main

import (
	"encoding/json"
	"math/rand"
	"sync"

	"cordoba"
	"cordoba/api"
)

// Inputs are generated from two random streams. The structure stream has a
// fixed seed: request kinds, axis lengths, tasks and repeat targets are the
// same for every workload seed, so every seed asks for the same amount of
// work. The value stream is seeded by --seed and shifts only the values on
// those axes.
func streams(seed int64) (structure, values *rand.Rand) {
	return rand.New(rand.NewSource(0x5eed)), rand.New(rand.NewSource(seed))
}

// ---- interactive ----

type reqKind int

const (
	kindKnob reqKind = iota
	kindRepeat
	kindSet
	kindConfigs
	kindAccounting
)

func (k reqKind) String() string {
	return [...]string{"knob", "repeat", "set", "configs", "accounting"}[k]
}

// mixCycle is the interactive request mix: half fresh knob grids, a fifth
// exact repeats of earlier knob bodies, a fifth set/configs requests on the
// materialized engine, a tenth accounting.
var mixCycle = []reqKind{
	kindKnob, kindKnob, kindRepeat, kindSet, kindKnob,
	kindAccounting, kindKnob, kindRepeat, kindConfigs, kindKnob,
}

type interReq struct {
	kind reqKind
	dse  *api.DSERequest
	acct *api.AccountingRequest
	key  string // request body; equal keys are exact repeats
}

// shapePool bounds the (MAC arrays, SRAM) shapes interactive grids draw
// from, so the shared memo is warm after set-up and stays warm.
type shapePool struct {
	macs []int
	sram []float64
}

var (
	vddPool  = []float64{0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0, 1.05, 1.1, 1.15}
	nodePool = []string{"10nm", "7nm", "5nm", "3nm"}
)

func newShapePool(values *rand.Rand) shapePool {
	var p shapePool
	shift := values.Intn(4)
	for j := 0; j < 24; j++ {
		p.macs = append(p.macs, 4*(j+1)+shift)
	}
	frac := float64(values.Intn(1000)) / 1000
	for j := 0; j < 16; j++ {
		p.sram = append(p.sram, 1+1.5*float64(j)+frac)
	}
	return p
}

// warmBody covers every pool shape for every kernel: one request that
// leaves the shared memo warm.
func (p shapePool) warmBody() api.DSERequest {
	return api.DSERequest{
		Task:  cordoba.TaskAllKernels,
		Knobs: &api.KnobRangeSpec{MACArrays: p.macs, SRAMMB: p.sram, Nodes: []string{"7nm"}},
	}
}

// pick returns n distinct sorted entries of xs chosen by the value stream.
func pick[T int | float64](values *rand.Rand, xs []T, n int) []T {
	idx := values.Perm(len(xs))[:n]
	out := make([]T, 0, n)
	for i := range xs {
		for _, j := range idx {
			if i == j {
				out = append(out, xs[i])
			}
		}
	}
	return out
}

func pickNames(values *rand.Rand, xs []string, n int) []string {
	idx := values.Perm(len(xs))[:n]
	out := make([]string, 0, n)
	for i := range xs {
		for _, j := range idx {
			if i == j {
				out = append(out, xs[i])
			}
		}
	}
	return out
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain wire structs are marshaled here
	}
	return string(b)
}

// interGen yields the interactive request sequence in order; it is safe
// for concurrent use.
type interGen struct {
	mu     sync.Mutex
	st, va *rand.Rand
	pool   shapePool
	i      int
	knobs  []interReq // recent fresh knob requests, repeat targets
	tasks  []cordoba.Task
	traces []cordoba.CITrace
	fabs   []cordoba.Fab
	grid   []cordoba.AcceleratorConfig
}

func newInterGen(seed int64, pool shapePool) *interGen {
	st, va := streams(seed)
	return &interGen{st: st, va: va, pool: pool, tasks: cordoba.PaperTasks(),
		traces: cordoba.NamedCITraces(), fabs: cordoba.Fabs(), grid: cordoba.Grid()}
}

func (g *interGen) next() interReq {
	g.mu.Lock()
	defer g.mu.Unlock()
	st, va := g.st, g.va
	kind := mixCycle[g.i%len(mixCycle)]
	g.i++
	task := g.tasks[st.Intn(len(g.tasks))].Name
	var r interReq
	switch {
	case kind == kindRepeat && len(g.knobs) > 0:
		r = g.knobs[len(g.knobs)-1-st.Intn(len(g.knobs))]
		r.kind = kindRepeat
	case kind == kindKnob, kind == kindRepeat:
		nMAC, nSRAM := 10+2*st.Intn(3), 8+2*st.Intn(2)
		nVDD, nNodes := 6+st.Intn(5), 2+st.Intn(2)
		withPart, withTrace := st.Intn(6) == 0, st.Intn(5) == 0
		if withPart {
			nNodes = 1
		}
		body := api.DSERequest{Task: task, Knobs: &api.KnobRangeSpec{
			MACArrays: pick(va, g.pool.macs, nMAC),
			SRAMMB:    pick(va, g.pool.sram, nSRAM),
			VDDScales: pick(va, vddPool, nVDD),
			Nodes:     pickNames(va, nodePool, nNodes),
		}}
		if withPart {
			body.Knobs.Partition = &api.PartitionSpec{Integrations: []string{"monolithic", "2.5d"}, Chiplets: []int{2}}
		}
		if withTrace {
			body.CITrace = g.traces[va.Intn(len(g.traces))].Name()
		} else {
			body.CIUse = float64(100 + va.Intn(700))
		}
		r = interReq{kind: kindKnob, dse: &body}
		g.knobs = append(g.knobs, r)
		if len(g.knobs) > 16 {
			g.knobs = g.knobs[1:]
		}
	case kind == kindSet:
		set := "grid"
		if st.Intn(4) == 0 {
			set = "3d"
		}
		r = interReq{kind: kind, dse: &api.DSERequest{Task: task, Set: set, CIUse: float64(100 + va.Intn(700))}}
	case kind == kindConfigs:
		ids := make([]string, 8+st.Intn(13))
		for j, k := range va.Perm(len(g.grid))[:len(ids)] {
			ids[j] = g.grid[k].ID
		}
		r = interReq{kind: kind, dse: &api.DSERequest{Task: task, Configs: ids, CIUse: float64(100 + va.Intn(700))}}
	case kind == kindAccounting:
		req := api.AccountingRequest{
			Process: nodePool[va.Intn(len(nodePool))],
			Fab:     g.fabs[va.Intn(len(g.fabs))].Name,
		}
		if st.Intn(2) == 0 {
			req.AreaCM2 = 0.5 + 2.5*va.Float64()
			req.Yield = api.YieldSpec{Value: 0.8 + 0.19*va.Float64()}
		} else {
			req.Accelerator = &api.AccelSpec{ID: g.grid[va.Intn(len(g.grid))].ID}
		}
		r = interReq{kind: kind, acct: &req}
	}
	if r.dse != nil {
		r.key = mustJSON(r.dse)
	} else {
		r.key = mustJSON(r.acct)
	}
	return r
}

// ---- batch and cluster ----

type jobKind int

const (
	jobExhaustive jobKind = iota
	jobPartition          // exhaustive, with partition axes
	jobSurrogate
)

// jobCycle is the job mix: four exhaustive grids (one with partition axes)
// and two surrogate searches.
var jobCycle = []jobKind{jobExhaustive, jobExhaustive, jobSurrogate, jobPartition, jobExhaustive, jobSurrogate}

func (k jobKind) String() string {
	return [...]string{"exhaustive", "partition", "surrogate"}[k]
}

type jobSpec struct {
	kind jobKind
	body api.DSERequest
}

// surrogateSeed is fixed so every surrogate job is reproducible.
const surrogateSeed = 7

// jobAt returns the i-th job of the batch/cluster sequence; shards > 0 fans
// exhaustive grids out over the cluster.
func jobAt(seed int64, i, shards int) jobSpec {
	kind := jobCycle[i%len(jobCycle)]
	// The SRAM offset frac in (0, 1) is distinct per job within a run, so
	// each job's shapes miss the memo.
	u := uint64(seed)
	macShift := int((u + uint64(i)) % 4)
	frac := 0.001 * float64((u*7919+uint64(i)*104729)%997+1)
	nMAC, nSRAM := 50, 30
	if kind == jobPartition {
		nSRAM = 40
	}
	knobs := &api.KnobRangeSpec{}
	for j := 0; j < nMAC; j++ {
		knobs.MACArrays = append(knobs.MACArrays, 4*(j+1)+macShift)
	}
	for j := 0; j < nSRAM; j++ {
		knobs.SRAMMB = append(knobs.SRAMMB, 1+2*float64(j)+frac)
	}
	if kind == jobPartition {
		knobs.VDDScales = []float64{1.0, 0.85}
		knobs.Nodes = []string{"7nm", "3nm"}
		knobs.Partition = &api.PartitionSpec{
			Integrations: []string{"monolithic", "2.5d", "3d"},
			Chiplets:     []int{2, 4},
			ChipletNodes: []string{"10nm", "14nm"},
		}
	} else {
		for j := 0; j < 10; j++ {
			knobs.VDDScales = append(knobs.VDDScales, 0.55+0.05*float64(j))
		}
		knobs.Nodes = []string{"28nm", "20nm", "14nm", "10nm", "7nm", "5nm", "3nm"}
	}
	body := api.DSERequest{Task: cordoba.TaskAllKernels, Knobs: knobs}
	if kind == jobSurrogate {
		body.Search = "surrogate"
		body.Surrogate = &api.SurrogateSpec{Seed: surrogateSeed}
	} else if shards > 0 {
		body.Shards = shards
	}
	return jobSpec{kind: kind, body: body}
}

// warmJob is a small exhaustive grid on integer SRAM sizes — shapes no
// measured job uses — that exercises the whole job path once in set-up.
func warmJob(shards int) api.DSERequest {
	return api.DSERequest{
		Task:   cordoba.TaskAllKernels,
		Knobs:  &api.KnobRangeSpec{MACArrays: []int{4, 8, 12, 16}, SRAMMB: []float64{1, 3, 5, 7}, VDDScales: []float64{1.0, 0.8}},
		Shards: shards,
	}
}
