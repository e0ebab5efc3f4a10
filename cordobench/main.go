// Command cordobench is the cordobad benchmark. It drives in-process
// cordobad daemons over loopback through the typed client, one workload per
// run, checks every answer, and prints each metric with its unit and sample
// count. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they are
// the per-layer ones, and a reconciliation table of stage sums against the
// end-to-end time is printed above them. See README.md for the workloads,
// the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// opts are one run's settings.
type opts struct {
	seed   int64
	dur    time.Duration
	traced bool
	dir    string // scratch directory for job stores, removed at exit
}

// metric is one reported number. n is its sample count; beyond, for a
// percentile, is how many samples lie past it (-1 otherwise).
type metric struct {
	name   string
	unit   string
	value  float64
	n      int
	beyond int
}

// report collects one run's results.
type report struct {
	workload  string
	endToEnd  []metric
	layers    []metric
	notes     []string // counters, per-kind breakdowns, reconciliation rows
	attempted int
	failed    int
	checks    []string // one line per check, "ok ..." or "FAIL ..."
}

func (r *report) e2e(name, unit string, v float64, n int) {
	r.endToEnd = append(r.endToEnd, metric{name, unit, v, n, -1})
}

func (r *report) e2ePct(name, unit string, s samples, p float64, scale float64) {
	v, beyond := s.pct(p)
	r.endToEnd = append(r.endToEnd, metric{name, unit, v * scale, len(s), beyond})
}

func (r *report) layer(name, unit string, v float64, n int) {
	r.layers = append(r.layers, metric{name, unit, v, n, -1})
}

func (r *report) layerPct(name, unit string, s samples, p float64) {
	v, beyond := s.pct(p)
	r.layers = append(r.layers, metric{name, unit, v, len(s), beyond})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records one correctness check as an attempted operation that
// fails when the check does.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		r.checks = append(r.checks, "ok   "+fmt.Sprintf(format, args...))
		return
	}
	r.failOp(format, args...)
}

// failOp records a failed operation already counted as attempted.
func (r *report) failOp(format string, args ...any) {
	r.checks = append(r.checks, "FAIL "+fmt.Sprintf(format, args...))
	r.failed++
}

func (r *report) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "workload %s\n", r.workload)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintln(w, "checks:")
	for _, c := range r.checks {
		fmt.Fprintf(w, "  %s\n", c)
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "error_rate %.6f (%d failed of %d attempted)\n", errRate, r.failed, r.attempted)
	show := r.endToEnd
	title := "end-to-end metrics"
	if traced {
		show, title = r.layers, "per-layer metrics"
	}
	fmt.Fprintln(w, title+":")
	for _, m := range show {
		line := fmt.Sprintf("  %-34s %14.6g %-6s n=%d", m.name, m.value, m.unit, m.n)
		if m.beyond >= 0 {
			line += fmt.Sprintf(" beyond=%d", m.beyond)
		}
		fmt.Fprintln(w, line)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.failed == 0, max(r.attempted, 1), r.failed, map[string]val{}}
	for _, m := range show {
		if (traced && perLayerJSON[m.name]) || (!traced && endToEndJSON[m.name]) {
			out.Metrics[m.name] = val{m.value, m.unit}
		}
	}
	b, _ := json.Marshal(out)
	fmt.Fprintln(w, string(b))
}

func main() {
	workload := flag.String("workload", "", "interactive, batch or cluster")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	workdir := flag.String("workdir", ".bench_build", "directory for scratch files")
	flag.Parse()

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fail(err)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fail(err)
	}
	o := opts{seed: *seed, dur: time.Duration(*seconds) * time.Second, traced: *trace == 1, dir: dir}
	var rep *report
	switch *workload {
	case "interactive":
		rep, err = runInteractive(o)
	case "batch":
		rep, err = runJobs(o, false)
	case "cluster":
		rep, err = runJobs(o, true)
	default:
		err = fmt.Errorf("unknown workload %q (want interactive, batch or cluster)", *workload)
	}
	os.RemoveAll(dir)
	if err != nil {
		fail(err)
	}
	rep.print(os.Stdout, o.traced)
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cordobench:", err)
	os.Exit(1)
}

// endToEndJSON names the end-to-end metrics the JSON line carries. Printed
// but left out: req_p99_ms, whose run-to-run spread on the 2-vCPU host was
// set by host stalls rather than by the program (README.md).
var endToEndJSON = map[string]bool{
	"setup_s": true, "req_p50_ms": true, "capacity_rps": true, "job_p50_s": true, "points_per_s": true,
	"surrogate_job_p50_s": true, "surrogate_hv_ratio": true, "peak_rss_mb": true,
}

// perLayerJSON names the per-layer metrics every workload measures; only
// these go into the traced run's JSON line. The workload-specific ones
// (cache hit/miss handler times, generator lag, cluster overhead, skew,
// envelope decode and merge) are printed in the table above it.
var perLayerJSON = map[string]bool{
	"server.handler_ms_p50": true, "server.wire_ms_p50": true, "server.cache_hit_ratio": true,
	"server.pool_waiting_mean": true, "api.decode_us": true, "api.encode_us": true,
	"dse.memo_hit_ratio": true, "dse.memo_evictions": true, "dse.stream_ms_per_kpoint": true,
	"dse.stream_allocs_per_kpoint": true, "dse.pruned_ratio": true, "dse.surrogate_ms_per_eval": true,
	"dse.surrogate_allocs_per_eval": true, "dse.surrogate_eval_fraction": true,
	"accel.shape_profile_us": true, "accel.profile_calls": true, "accel.shape_cost_ns": true,
	"carbon.embodied_us": true, "carbon.classes": true, "pareto.offer_ns": true, "pareto.accept_ratio": true,
	"job.queue_wait_ms": true, "job.run_s": true, "job.checkpoint_put_ms": true, "job.checkpoints": true,
	"job.checkpoint_bytes": true, "client.done_lag_ms": true, "client.result_read_ms": true,
	"cluster.shards_retried": true, "trace.overhead_pct": true,
}
