package server

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// latencyBuckets are the upper bounds (seconds) of the request-duration
// histogram. They bracket the observed spread: a cache hit answers in
// microseconds, a full 121-point grid evaluation in hundreds of
// milliseconds on a loaded box.
var latencyBuckets = [...]float64{
	0.0005, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// family is one metric family of the exposition: the renderer writes its
// # HELP and # TYPE lines, then samples writes its series.
type family struct {
	name, typ, help string
	samples         func(w *sampleWriter)
}

// counter and gauge describe a family of one unlabelled sample.
func counter(name, help string, v any) family {
	return family{name, "counter", help, func(w *sampleWriter) { w.sample("", v) }}
}

func gauge(name, help string, v any) family {
	return family{name, "gauge", help, func(w *sampleWriter) { w.sample("", v) }}
}

// sampleWriter renders the series of the family being written.
type sampleWriter struct {
	b    strings.Builder
	name string
}

// labelEscaper applies the text format's only label-value escapes; every
// other byte is written raw.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// sample writes one series: the family name plus suffix (_bucket, _sum or
// _count for histograms and summaries), the label name/value pairs, and the
// value in fmt's default format, which is %d for integers and %g for floats.
func (w *sampleWriter) sample(suffix string, v any, labels ...string) {
	w.b.WriteString(w.name)
	w.b.WriteString(suffix)
	sep := "{"
	for i := 0; i < len(labels); i += 2 {
		w.b.WriteString(sep)
		sep = ","
		w.b.WriteString(labels[i])
		w.b.WriteString(`="`)
		labelEscaper.WriteString(&w.b, labels[i+1])
		w.b.WriteString(`"`)
	}
	if len(labels) > 0 {
		w.b.WriteString("}")
	}
	fmt.Fprintf(&w.b, " %v\n", v)
}

// vec holds one series per label value, created on first use. Looking up
// an existing series is lock-free and allocation-free.
type vec[K cmp.Ordered, V any] struct {
	m sync.Map // K → *V
}

func (v *vec[K, V]) get(k K) *V {
	x, ok := v.m.Load(k)
	if !ok {
		x, _ = v.m.LoadOrStore(k, new(V))
	}
	return x.(*V)
}

// keys returns the label values seen so far, in ascending order.
func (v *vec[K, V]) keys() []K {
	var ks []K
	v.m.Range(func(k, _ any) bool {
		ks = append(ks, k.(K))
		return true
	})
	slices.Sort(ks)
	return ks
}

// histogram counts observations into latencyBuckets plus +Inf. Each bucket
// holds only its own observations; write accumulates them, so _count is the
// +Inf bucket by construction.
type histogram struct {
	buckets  [len(latencyBuckets) + 1]atomic.Int64
	sumNanos atomic.Int64
}

func (h *histogram) observe(seconds float64) {
	// The first bucket whose bound is >= seconds; +Inf when none is.
	h.buckets[sort.SearchFloat64s(latencyBuckets[:], seconds)].Add(1)
	h.sumNanos.Add(int64(seconds * 1e9))
}

func (h *histogram) write(w *sampleWriter, label, value string) {
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < len(latencyBuckets) {
			le = strconv.FormatFloat(latencyBuckets[i], 'g', -1, 64)
		}
		w.sample("_bucket", cum, label, value, "le", le)
	}
	w.sample("_sum", float64(h.sumNanos.Load())/1e9, label, value)
	w.sample("_count", cum, label, value)
}

// routeMetrics is one route's status-code counters and latency histogram.
type routeMetrics struct {
	codes   vec[int, atomic.Int64]
	latency histogram
}

// Metrics is cordobad's metrics registry. It holds the server's own request,
// cache, engine, schedule and trace counters; the pool, memo, job manager
// and coordinator register collectors over the state they own. Observing is
// lock-free; WriteProm renders every family in Prometheus text format.
type Metrics struct {
	collectors []func() []family

	routes vec[string, routeMetrics]

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	dseStreamed atomic.Int64 // grid points enumerated by the streaming engine
	dsePruned   atomic.Int64 // of those, proven never-optimal and discarded

	surrogateRuns        atomic.Int64 // surrogate searches served
	surrogateEvals       atomic.Int64 // true evaluations they paid
	surrogateSkipped     atomic.Int64 // candidates the RBF ranking filtered out
	surrogateGenerations atomic.Int64 // NSGA generations run across them

	modelEvals vec[string, atomic.Int64] // design evaluations by backend name

	scheduleSearches atomic.Int64 // launch-window searches served
	scheduleWindows  atomic.Int64 // candidate windows evaluated across them
	traceLookups     atomic.Int64 // named-trace resolutions (schedule + dse)
}

// NewMetrics returns a registry holding the server's own families.
func NewMetrics() *Metrics {
	m := &Metrics{}
	m.register(m.families)
	return m
}

// register adds collectors. Each is called once per scrape to sample its
// source and return the families rendered from that sample, so the families
// of one source stay mutually consistent. Registration happens while the
// server is assembled, before the first scrape.
func (m *Metrics) register(cs ...func() []family) {
	m.collectors = append(m.collectors, cs...)
}

// ObserveRequest records one completed request on a route.
func (m *Metrics) ObserveRequest(route string, code int, seconds float64) {
	rm := m.routes.get(route)
	rm.codes.get(code).Add(1)
	rm.latency.observe(seconds)
}

// CacheHit / CacheMiss record response-cache outcomes.
func (m *Metrics) CacheHit()  { m.cacheHits.Add(1) }
func (m *Metrics) CacheMiss() { m.cacheMisses.Add(1) }

// ObserveDSEStream records one streaming exploration: how many grid points
// it enumerated and how many it proved never-optimal along the way.
func (m *Metrics) ObserveDSEStream(streamed, pruned int64) {
	m.dseStreamed.Add(streamed)
	m.dsePruned.Add(pruned)
}

// ObserveDSESurrogate records one surrogate-guided search: the true
// evaluations it paid, the candidates its ranking filtered without paying,
// and the generations it ran.
func (m *Metrics) ObserveDSESurrogate(evals, skipped, generations int64) {
	m.surrogateRuns.Add(1)
	m.surrogateEvals.Add(evals)
	m.surrogateSkipped.Add(skipped)
	m.surrogateGenerations.Add(generations)
}

// ObserveModelEvals records n design evaluations priced by the named
// embodied-carbon backend ("act", "chiplet", "stacked-3d").
func (m *Metrics) ObserveModelEvals(model string, n int64) {
	if model == "" {
		model = "act"
	}
	m.modelEvals.get(model).Add(n)
}

// ObserveSchedule records one launch-window search and the number of
// candidate windows it evaluated.
func (m *Metrics) ObserveSchedule(candidates int) {
	m.scheduleSearches.Add(1)
	m.scheduleWindows.Add(int64(candidates))
}

// ObserveTraceLookup records one named-trace resolution.
func (m *Metrics) ObserveTraceLookup() { m.traceLookups.Add(1) }

// families is the collector of the server's own counters.
func (m *Metrics) families() []family {
	routes := m.routes.keys()
	return []family{
		{"cordobad_requests_total", "counter", "Completed HTTP requests by route and status code.", func(w *sampleWriter) {
			for _, route := range routes {
				codes := &m.routes.get(route).codes
				for _, code := range codes.keys() {
					w.sample("", codes.get(code).Load(), "route", route, "code", strconv.Itoa(code))
				}
			}
		}},
		{"cordobad_request_duration_seconds", "histogram", "Request latency by route.", func(w *sampleWriter) {
			for _, route := range routes {
				m.routes.get(route).latency.write(w, "route", route)
			}
		}},
		counter("cordobad_cache_hits_total", "Response-cache hits.", m.cacheHits.Load()),
		counter("cordobad_cache_misses_total", "Response-cache misses.", m.cacheMisses.Load()),
		counter("cordobad_dse_points_streamed_total", "Grid points enumerated by the streaming DSE engine.", m.dseStreamed.Load()),
		counter("cordobad_dse_points_pruned_total", "Grid points proven never-optimal and discarded while streaming.", m.dsePruned.Load()),
		counter("cordobad_dse_surrogate_runs_total", "Surrogate-guided Pareto searches served.", m.surrogateRuns.Load()),
		counter("cordobad_dse_surrogate_evaluations_total", "True design evaluations paid by surrogate searches.", m.surrogateEvals.Load()),
		counter("cordobad_dse_surrogate_skipped_total", "Candidates filtered by the surrogate ranking without a true evaluation.", m.surrogateSkipped.Load()),
		counter("cordobad_dse_surrogate_generations_total", "NSGA generations run across surrogate searches.", m.surrogateGenerations.Load()),
		{"cordobad_model_evaluations_total", "counter", "Design evaluations by embodied-carbon backend.", func(w *sampleWriter) {
			for _, model := range m.modelEvals.keys() {
				w.sample("", m.modelEvals.get(model).Load(), "model", model)
			}
		}},
		counter("cordobad_schedule_searches_total", "Launch-window searches served by POST /v1/schedule.", m.scheduleSearches.Load()),
		counter("cordobad_schedule_windows_total", "Candidate execution windows evaluated across all searches.", m.scheduleWindows.Load()),
		counter("cordobad_trace_lookups_total", "Named CI_use(t) trace resolutions.", m.traceLookups.Load()),
	}
}

// WriteProm renders every registered family in Prometheus text exposition
// format.
func (m *Metrics) WriteProm(w io.Writer) error {
	sw := &sampleWriter{}
	for _, c := range m.collectors {
		for _, f := range c() {
			fmt.Fprintf(&sw.b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
			sw.name = f.name
			f.samples(sw)
		}
	}
	_, err := io.WriteString(w, sw.b.String())
	return err
}
