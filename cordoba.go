// Package cordoba is a from-scratch Go implementation of CORDOBA, the
// carbon-efficient optimization framework for computing systems (Elgamal et
// al., HPCA 2025).
//
// CORDOBA quantifies carbon efficiency with the total Carbon Delay Product
// (tCDP = total lifetime carbon × task execution time) and optimizes it
// across large hardware design spaces while handling uncertainty in carbon
// accounting. This package is the public facade; it re-exports the stable
// surface of the internal packages:
//
//   - ACT-style carbon accounting: per-node fab characterization, yield
//     models, die placement, packaging (§IV-A, eq. IV.5).
//   - The task/kernel workload formulation (eq. IV.2/IV.4) with the paper's
//     fifteen AI/XR kernels.
//   - The analytical ML-accelerator simulator and its 121-configuration
//     design space plus the 3D-stacked variants (§V, §VI-B, §VI-E).
//   - Design-space exploration across operational time, elimination of
//     never-optimal designs, and the Lagrange-multiplier machinery for
//     unknown CI_use(t) (§IV-B, §VI-B/C).
//   - The VR-SoC provisioning case study (§VI-D).
//   - Reproduction harnesses for every table and figure in the paper.
//
// # Quick start
//
//	task, _ := cordoba.PaperTask(cordoba.TaskAI5)
//	space, _ := cordoba.Explore(task, cordoba.Grid())
//	best := space.Points[space.OptimalAt(1e8)]
//	fmt.Printf("tCDP-optimal after 1e8 inferences: %s\n", best.Config.ID)
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// system inventory and per-experiment index.
package cordoba

import (
	"context"
	"io"

	"cordoba/internal/accel"
	"cordoba/internal/carbon"
	"cordoba/internal/dse"
	"cordoba/internal/experiments"
	"cordoba/internal/grid"
	"cordoba/internal/lifecycle"
	"cordoba/internal/nn"
	"cordoba/internal/sched"
	"cordoba/internal/soc"
	"cordoba/internal/uncertainty"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

// ---- units ----

// Physical quantity types (see internal/units for constructors and methods).
type (
	// Time is a duration in seconds.
	Time = units.Time
	// Energy is an amount of energy in joules.
	Energy = units.Energy
	// Power is a power draw in watts.
	Power = units.Power
	// Carbon is a mass of CO2-equivalent in grams.
	Carbon = units.Carbon
	// CarbonIntensity is gCO2e per kWh.
	CarbonIntensity = units.CarbonIntensity
	// Area is a silicon area in cm².
	Area = units.Area
	// Bytes is a memory capacity.
	Bytes = units.Bytes
)

// Hours constructs a Time from hours.
func Hours(h float64) Time { return units.Hours(h) }

// Years constructs a Time from 365-day years.
func Years(y float64) Time { return units.Years(y) }

// MB constructs a Bytes from mebibytes.
func MB(m float64) Bytes { return units.MB(m) }

// ---- carbon accounting (§IV-A) ----

// Process is a technology node's fab characterization (EPA, GPA, MPA).
type Process = carbon.Process

// Fab is a fabrication facility (grid carbon intensity, defect density).
type Fab = carbon.Fab

// Process7nm returns the paper's 7 nm anchor node (Table III values).
func Process7nm() Process { return carbon.Process7nm() }

// ProcessByName returns the fab characterization for a named node ("7nm").
func ProcessByName(name string) (Process, error) { return carbon.ProcessByName(name) }

// Reference fabs.
var (
	FabCoal      = carbon.FabCoal
	FabTaiwan    = carbon.FabTaiwan
	FabRenewable = carbon.FabRenewable
)

// Fabs returns the reference fabs, dirtiest grid first.
func Fabs() []Fab { return carbon.Fabs() }

// FabByName returns a reference fab by name ("coal-heavy", "taiwan", ...).
func FabByName(name string) (Fab, error) { return carbon.FabByName(name) }

// EmbodiedDie computes eq. IV.5: (CI_fab·EPA + MPA + GPA)·A/Y.
func EmbodiedDie(p Process, fab Fab, area Area, yield float64) (Carbon, error) {
	return p.EmbodiedDie(fab, area, yield)
}

// Operational computes eq. IV.6: use-phase carbon of energy e at intensity ci.
func Operational(ci CarbonIntensity, e Energy) Carbon {
	return carbon.Operational(ci, e)
}

// ---- embodied-carbon backends (carbon.Model) ----

// CarbonModel prices a backend-neutral design description; implementations
// are ACT (monolithic eq. IV.5), chiplet disaggregation, and 3D stacking.
type CarbonModel = carbon.Model

// DesignSpec is the backend-neutral die/bond/package description every
// CarbonModel prices.
type DesignSpec = carbon.DesignSpec

// DieSpec is one die population inside a DesignSpec.
type DieSpec = carbon.DieSpec

// CarbonModelInfo describes a registered backend for discovery surfaces.
type CarbonModelInfo = carbon.ModelInfo

// YieldModel predicts fabrication yield from die area and defect density.
type YieldModel = carbon.YieldModel

// CarbonModelByName resolves a backend by registry name ("act", "chiplet",
// "stacked-3d"); the empty string selects ACT.
func CarbonModelByName(name string) (CarbonModel, error) { return carbon.ModelByName(name) }

// CarbonModelInfos returns name/description pairs for every backend.
func CarbonModelInfos() []CarbonModelInfo { return carbon.ModelInfos() }

// YieldModelNames lists the registry names YieldModelByName accepts.
func YieldModelNames() []string { return carbon.YieldModelNames() }

// YieldModelByName resolves a yield model by registry name; the empty string
// selects Murphy.
func YieldModelByName(name string) (YieldModel, error) { return carbon.YieldByName(name) }

// CITrace is a time-varying use-phase carbon intensity CI_use(t) (§IV-B).
type CITrace = grid.Trace

// ---- workloads (§V, Table IV) ----

// KernelID names one of the fifteen AI/XR kernels.
type KernelID = nn.KernelID

// Task is a set of kernels with call counts N_{T,K}.
type Task = workload.Task

// Paper task names.
const (
	TaskAllKernels = workload.TaskAllKernels
	TaskXR10       = workload.TaskXR10
	TaskAI10       = workload.TaskAI10
	TaskXR5        = workload.TaskXR5
	TaskAI5        = workload.TaskAI5
)

// PaperTasks returns the five Table IV tasks.
func PaperTasks() []Task { return workload.PaperTasks() }

// PaperTask returns a Table IV task by name.
func PaperTask(name string) (Task, error) { return workload.PaperTask(name) }

// The fifteen AI/XR kernels of Table IV.
const (
	KernelRN18   = nn.RN18
	KernelRN50   = nn.RN50
	KernelRN152  = nn.RN152
	KernelGN     = nn.GN
	KernelMN2    = nn.MN2
	KernelET     = nn.ET
	Kernel3DAgg  = nn.Agg3D
	KernelHRN    = nn.HRN
	KernelEFAN   = nn.EFAN
	KernelJLP    = nn.JLP
	KernelUNet   = nn.UNet
	KernelDN     = nn.DN
	KernelSR256  = nn.SR256
	KernelSR512  = nn.SR512
	KernelSR1024 = nn.SR1024
)

// ---- accelerators (§V, §VI-B, §VI-E) ----

// AcceleratorConfig is one accelerator design point (MAC arrays + SRAM,
// optionally 3D-stacked or explicitly partitioned into chiplets/tiers).
type AcceleratorConfig = accel.Config

// NewAccelerator returns a 2D configuration with calibrated 7 nm parameters.
func NewAccelerator(id string, macArrays int, sram Bytes) AcceleratorConfig {
	return accel.New(id, macArrays, sram)
}

// Grid returns the 121-configuration Fig. 8 design space (a1…a121).
func Grid() []AcceleratorConfig { return accel.Grid() }

// AcceleratorByID returns a grid configuration such as "a48".
func AcceleratorByID(id string) (AcceleratorConfig, error) { return accel.ByID(id) }

// Stacked3D returns the seven §VI-E configurations (2D baseline + six
// 3D-stacked designs).
func Stacked3D() []AcceleratorConfig { return accel.Stacked3D() }

// ---- design-space exploration (§VI-B/C) ----

// DesignSpace is an evaluated set of accelerator configurations on a task.
type DesignSpace = dse.Space

// DesignPoint is one evaluated design.
type DesignPoint = dse.Point

// Explore evaluates configurations on a task at the paper's anchor
// parameters (7 nm, coal-heavy fab, CI_use = 380 g/kWh).
func Explore(task Task, configs []AcceleratorConfig) (*DesignSpace, error) {
	return ExploreParallelAt(task, configs, carbon.Process7nm(), carbon.FabCoal, 380, 0)
}

// ExploreParallelAt evaluates configurations with explicit process, fab and
// CI_use, fanned out across workers goroutines (workers < 1 selects
// GOMAXPROCS). Points are identical at any worker count.
func ExploreParallelAt(task Task, configs []AcceleratorConfig, p Process, fab Fab, ci CarbonIntensity, workers int) (*DesignSpace, error) {
	return dse.Evaluate(context.Background(), task, configs, p, fab, ci, nil, StreamOptions{Workers: workers})
}

// LogSpace returns k log-spaced operational times over [lo, hi].
func LogSpace(lo, hi float64, k int) []float64 { return dse.LogSpace(lo, hi, k) }

// ---- streaming exploration (DSE engine v2) ----

// KnobGrid describes a design space as cartesian knob ranges — MAC-array
// count, SRAM capacity, DVFS supply scaling, technology node, embodied-carbon
// backend, and die partitioning (integration style, chiplet count, chiplet
// node) — enumerated lazily instead of materialized.
type KnobGrid = dse.Grid

// StreamResult is a streaming exploration's outcome: the surviving
// ever-optimal set plus grid-wide aggregates.
type StreamResult = dse.StreamResult

// StreamOptions tunes every engine (worker fan-out, shared memo, yield model).
type StreamOptions = dse.StreamOptions

// MemoCache is the shared (kernel, config-signature) → shape-profile cache
// of the streaming engine; pass one cache across calls to reuse kernel
// evaluations between requests.
type MemoCache = dse.MemoCache

// NewMemoCache returns a bounded memo cache (max < 1 selects the default).
func NewMemoCache(max int) *MemoCache { return dse.NewMemoCache(max) }

// ExploreStream explores a knob grid with the v2 streaming engine at the
// paper's anchor parameters, keeping only the ever-optimal envelope in
// memory. Results match materializing the grid and calling EverOptimal.
func ExploreStream(ctx context.Context, task Task, g KnobGrid, opt StreamOptions) (*StreamResult, error) {
	return dse.EvaluateStream(ctx, task, g, carbon.FabCoal, 380, dse.CheckpointOptions{StreamOptions: opt})
}

// ExploreStreamAt is ExploreStream with explicit fab and use-phase carbon
// intensity (the grid's node axis selects the embodied process per point).
func ExploreStreamAt(ctx context.Context, task Task, g KnobGrid, fab Fab, ci CarbonIntensity, opt StreamOptions) (*StreamResult, error) {
	return dse.EvaluateStream(ctx, task, g, fab, ci, dse.CheckpointOptions{StreamOptions: opt})
}

// ---- checkpointed streaming exploration ----

// StreamCheckpoint is a serializable snapshot of a streaming exploration:
// resuming from it converges to bit-identical results versus an
// uninterrupted run, and a fingerprint rejects resumption under changed
// parameters.
type StreamCheckpoint = dse.StreamCheckpoint

// CheckpointOptions extends StreamOptions with resume, periodic-checkpoint,
// and progress callbacks.
type CheckpointOptions = dse.CheckpointOptions

// StreamProgress is the live counter set a checkpointed exploration reports
// after each completed shape.
type StreamProgress = dse.StreamProgress

// StreamShard restricts a checkpointed exploration to a contiguous range of
// grid shapes — the unit of work cordobad's cluster coordinator fans out.
// Shard results keep whole-grid point identity, so MergeStreamResults folds
// them back into the exact single-node result.
type StreamShard = dse.ShardRange

// MergeStreamResults merges disjoint shard results into the whole-grid
// result. The survivor envelope, its IDs, and all integer counters equal a
// single-node run exactly; the floating-point aggregate sums match to within
// re-association.
func MergeStreamResults(results []*StreamResult) (*StreamResult, error) {
	return dse.MergeShardResults(results)
}

// ExploreStreamCheckpointed is ExploreStreamAt with checkpoint/resume and
// progress reporting — the engine behind cordobad's async job API.
func ExploreStreamCheckpointed(ctx context.Context, task Task, g KnobGrid, fab Fab, ci CarbonIntensity, opt CheckpointOptions) (*StreamResult, error) {
	return dse.EvaluateStream(ctx, task, g, fab, ci, opt)
}

// ---- surrogate-guided Pareto search ----

// SurrogateOptions tunes ExploreSurrogate: seed, evaluation budget,
// population/generation limits, plus the usual stream options and
// checkpoint/resume hooks.
type SurrogateOptions = dse.SurrogateOptions

// SurrogateResult is a surrogate run's outcome: the recovered envelope as a
// StreamResult plus budget accounting and the exact set of evaluated grid
// ids.
type SurrogateResult = dse.SurrogateResult

// SurrogateCheckpoint is a serializable snapshot of a surrogate search;
// resuming from it is byte-identical to an uninterrupted run under the same
// seed.
type SurrogateCheckpoint = dse.SurrogateCheckpoint

// SurrogateProgress is the live counter set a surrogate search reports after
// each generation.
type SurrogateProgress = dse.SurrogateProgress

// EnvelopeQuality compares a candidate envelope against an exhaustive oracle:
// hypervolume ratio, additive epsilon, and coverage.
type EnvelopeQuality = dse.Quality

// ExploreSurrogate runs the budgeted surrogate-guided Pareto search over a
// knob grid: NSGA-II-style selection over the lattice, RBF-ranked offspring,
// and true evaluations only for the candidates that survive ranking. For a
// fixed seed the result is byte-identical across runs, worker counts, and
// checkpoint/resume. With a budget >= the grid size it degrades to the exact
// exhaustive envelope.
func ExploreSurrogate(ctx context.Context, task Task, g KnobGrid, fab Fab, ci CarbonIntensity, opt SurrogateOptions) (*SurrogateResult, error) {
	return dse.EvaluateSurrogate(ctx, task, g, fab, ci, opt)
}

// MeasureEnvelopeQuality scores a candidate envelope against the exhaustive
// oracle's on the shared (E·D, C_emb·D) plane.
func MeasureEnvelopeQuality(candidate, oracle *StreamResult) EnvelopeQuality {
	return dse.MeasureQuality(candidate, oracle)
}

// DefaultSurrogateBudget returns the evaluation budget a surrogate run uses
// when none is given: 2% of the grid, clamped to [256, 8192] and never above
// the grid size.
func DefaultSurrogateBudget(gridPoints int64, population int) int64 {
	return dse.DefaultSurrogateBudget(gridPoints, population)
}

// ---- uncertainty (§IV-B) ----

// UncertainDesign is a candidate reduced to (E, D, C_emb) for unknown-CI
// analysis.
type UncertainDesign = uncertainty.Design

// Survivors returns the designs that can be tCDP-optimal for some CI_use(t)
// under the fixed-work analysis (same inference count for every design, the
// Fig. 12 setting); all others are safely eliminated even without carbon
// transparency.
func Survivors(designs []UncertainDesign) []int { return uncertainty.Survivors(designs) }

// SurvivorsFixedTime is the fixed-time variant (eq. IV.7: every design runs
// at its fixed power for the same lifetime); OptimalUnderTrace winners are
// always members of this set.
func SurvivorsFixedTime(designs []UncertainDesign) []int {
	return uncertainty.SurvivorsFixedTime(designs)
}

// DesignsFromSpace converts an explored space for unknown-CI analysis.
func DesignsFromSpace(s *DesignSpace) []UncertainDesign { return uncertainty.FromDSE(s) }

// ConstantCI is a flat grid trace.
func ConstantCI(ci CarbonIntensity) CITrace { return grid.Constant{Intensity: ci} }

// DiurnalCI is a solar-driven daily swing around a mean intensity.
func DiurnalCI(mean, swing CarbonIntensity) CITrace { return grid.Diurnal{Mean: mean, Swing: swing} }

// DecarbonizationRamp moves linearly from start to end over span.
func DecarbonizationRamp(start, end CarbonIntensity, span Time) CITrace {
	return grid.Ramp{Start: start, End: end, Span: span}
}

// NamedCITraces returns the reference CI_use(t) traces cordobad serves,
// keyed by Name().
func NamedCITraces() []CITrace { return grid.NamedTraces() }

// ---- cumulative-trace engine ----

// CumulativeCI is a precomputed prefix integral F(t) = ∫₀ᵗ CI(u)du of a
// trace: window integrals, averages, and operational carbon in O(log n) per
// query, exact for the closed-form trace shapes.
type CumulativeCI = grid.Cumulative

// NewCumulativeCI builds the prefix integral of a trace. The horizon bounds
// the precomputed table for traces without a closed form (zero selects a
// default of three years); queries beyond it stay correct but slower.
func NewCumulativeCI(tr CITrace, horizon Time) (*CumulativeCI, error) {
	return grid.NewCumulative(tr, horizon)
}

// ---- carbon-aware launch windows ----

// WindowRequest describes a deferrable job: duration, power draw, deadline,
// and candidate start-time granularity.
type WindowRequest = sched.WindowRequest

// WindowPlan is a launch-window search outcome: best, worst, and run-now
// windows plus the savings fraction.
type WindowPlan = sched.WindowPlan

// ExecutionWindow is one candidate execution slot with its operational
// carbon and average CI.
type ExecutionWindow = sched.Window

// FindLaunchWindow returns the lowest-carbon execution window for a job on a
// cumulative trace, searching candidate starts up to the deadline.
func FindLaunchWindow(cum *CumulativeCI, req WindowRequest) (WindowPlan, error) {
	return sched.FindWindow(cum, req)
}

// OptimalUnderTrace returns the index of the tCDP-optimal design under a CI
// trace; by the §IV-B theorem it is always a member of Survivors.
func OptimalUnderTrace(designs []UncertainDesign, tr CITrace, life Time) (int, error) {
	return uncertainty.OptimalUnderTrace(designs, tr, life, 1000)
}

// ---- VR SoC case study (§VI-D) ----

// VRPlatform is a Quest 2-class SoC model.
type VRPlatform = soc.SoC

// VRTask is a profiled VR task with its TLP occupancy histogram.
type VRTask = soc.VRTask

// Quest2 returns the platform calibrated to Table V.
func Quest2() VRPlatform { return soc.Quest2() }

// PaperVRTasks returns the §VI-D tasks (G-2, M-1, B-1, SG-1, All Tasks).
func PaperVRTasks() []VRTask { return soc.PaperVRTasks() }

// ---- hardware lifetime (§VII) ----

// RefreshService models a deployment whose hardware-refresh cadence is
// being optimized: frequent refresh rides node efficiency gains but pays
// embodied carbon per chip.
type RefreshService = lifecycle.Service

// DefaultRefreshService returns a 10-year datacenter service starting at
// 14 nm with nodes advancing every 2.5 years.
func DefaultRefreshService() RefreshService { return lifecycle.DefaultService() }

// RefreshPeriods returns the conventional 1–10-year candidate cadences.
func RefreshPeriods() []Time { return lifecycle.DefaultPeriods() }

// ---- experiment harness ----

// Experiments lists the reproducible paper tables and figures.
func Experiments() []experiments.Experiment { return experiments.All() }

// RunExperiment renders the experiment with the given key (e.g. "table2",
// "fig8") to w.
func RunExperiment(key string, w io.Writer) error {
	e, err := experiments.ByKey(key)
	if err != nil {
		return err
	}
	return e.Render(w)
}

// ExperimentKeys lists all experiment keys in paper order.
func ExperimentKeys() []string { return experiments.Keys() }

// ExperimentResult returns the experiment's typed result structure for
// programmatic consumption (the same data the renderers format).
func ExperimentResult(key string) (any, error) { return experiments.Result(key) }

// ExportExperimentJSON streams the experiment's typed result as indented
// JSON to w.
func ExportExperimentJSON(key string, w io.Writer) error { return experiments.ExportJSON(key, w) }

// ExportExperimentCSV streams the experiment's plottable series as CSV to w;
// keys without a tabular form return an error suggesting JSON.
func ExportExperimentCSV(key string, w io.Writer) error { return experiments.ExportCSV(key, w) }

// XRGamingTask returns the §IV-A motivating XR gaming session with
// per-kernel call rates (camera-rate tracking, display-rate upscaling).
func XRGamingTask() Task { return workload.XRGamingSession() }
