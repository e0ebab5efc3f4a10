// Command benchcheck guards against performance regressions: it parses
// `go test -bench` output on stdin, compares each benchmark's ns/op — and,
// when present, B/op and allocs/op — against a checked-in baseline, and
// exits non-zero when any result regresses past its budget (-max-ratio for
// time, -max-alloc-ratio for memory). A baseline entry may also carry a
// faster_than gate naming another benchmark and a factor: when both are in
// the run, the entry's ns/op must be at most the other's divided by the
// factor. Regenerate the baseline after an intentional change with -update,
// which keeps every faster_than gate. A benchmark run several times
// (go test -count N) is gated, and recorded, on the median of its runs.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkStreamingDSE -benchtime 1x . | benchcheck -baseline testdata/bench_baseline.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// benchLine matches one result row, e.g.
//
//	BenchmarkStreamingDSE/naive-8   1  7613378000 ns/op  93437848 B/op  1234 allocs/op
//
// The trailing -N on the name is the GOMAXPROCS suffix and is stripped so
// baselines recorded on one machine compare on another. The memory columns
// only appear under -benchmem or b.ReportAllocs() and are optional.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.e+]+) ns/op(?:\s+([0-9]+) B/op\s+([0-9]+) allocs/op)?`)

// benchResult is one benchmark's measurements; BOp and AllocsOp are negative
// when the run did not report memory. FasterThan exists only in baselines.
type benchResult struct {
	NsOp       float64     `json:"ns_op"`
	BOp        float64     `json:"b_op,omitempty"`
	AllocsOp   float64     `json:"allocs_op,omitempty"`
	FasterThan *fasterThan `json:"faster_than,omitempty"`
}

// fasterThan is a relative-speed gate: the benchmark must run at least
// Factor times faster (in ns/op) than the benchmark Name in the same run.
type fasterThan struct {
	Name   string  `json:"name"`
	Factor float64 `json:"factor"`
}

// UnmarshalJSON reads a baseline entry. An entry holding only ns_op gates
// time alone: its absent memory columns become the negative sentinels.
func (b *benchResult) UnmarshalJSON(data []byte) error {
	type alias benchResult
	var a alias
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	*b = benchResult(a)
	if b.BOp == 0 && b.AllocsOp == 0 {
		b.BOp, b.AllocsOp = -1, -1
	}
	return nil
}

// MarshalJSON drops absent memory columns (negative sentinels) instead of
// serializing them, keeping baselines clean for time-only benchmarks.
func (b benchResult) MarshalJSON() ([]byte, error) {
	type alias benchResult
	a := alias(b)
	if a.BOp < 0 {
		a.BOp = 0
	}
	if a.AllocsOp < 0 {
		a.AllocsOp = 0
	}
	return json.Marshal(a)
}

// parseBench extracts name → result from go test -bench output, echoing the
// input through to w so the pipeline stays readable. A name that appears
// several times (go test -count N) gets the median of each column over its
// runs, so one noisy sample neither fails nor passes a gate on its own.
func parseBench(r io.Reader, w io.Writer) (map[string]benchResult, error) {
	runs := map[string][]benchResult{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(w, line)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", line, err)
		}
		res := benchResult{NsOp: ns, BOp: -1, AllocsOp: -1}
		if m[3] != "" {
			if res.BOp, err = strconv.ParseFloat(m[3], 64); err != nil {
				return nil, fmt.Errorf("parsing %q: %w", line, err)
			}
			if res.AllocsOp, err = strconv.ParseFloat(m[4], 64); err != nil {
				return nil, fmt.Errorf("parsing %q: %w", line, err)
			}
		}
		runs[m[1]] = append(runs[m[1]], res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	results := make(map[string]benchResult, len(runs))
	for name, rs := range runs {
		results[name] = benchResult{
			NsOp:     median(rs, func(b benchResult) float64 { return b.NsOp }),
			BOp:      median(rs, func(b benchResult) float64 { return b.BOp }),
			AllocsOp: median(rs, func(b benchResult) float64 { return b.AllocsOp }),
		}
	}
	return results, nil
}

// median returns the median of one column over rs (the mean of the middle
// two for an even count).
func median(rs []benchResult, col func(benchResult) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = col(r)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// check compares results against the baseline and returns one line per
// violation: a benchmark slower than maxRatio times its baseline ns/op,
// one allocating more than maxAllocRatio times its baseline B/op or
// allocs/op (gated only when both the run and the baseline carry memory
// columns), one missing from the baseline entirely, or one slower than its
// baseline's faster_than gate allows against a benchmark in the same run.
func check(results, baseline map[string]benchResult, maxRatio, maxAllocRatio float64) []string {
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	var violations []string
	for _, name := range names {
		got := results[name]
		base, ok := baseline[name]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("%s: no baseline entry (rerun with -update)", name))
			continue
		}
		if base.NsOp > 0 && got.NsOp > maxRatio*base.NsOp {
			violations = append(violations,
				fmt.Sprintf("%s: %.3gms vs baseline %.3gms (%.2fx > %.2gx budget)",
					name, got.NsOp/1e6, base.NsOp/1e6, got.NsOp/base.NsOp, maxRatio))
		}
		if got.BOp >= 0 && base.BOp > 0 && got.BOp > maxAllocRatio*base.BOp {
			violations = append(violations,
				fmt.Sprintf("%s: %.4g B/op vs baseline %.4g (%.2fx > %.2gx budget)",
					name, got.BOp, base.BOp, got.BOp/base.BOp, maxAllocRatio))
		}
		if got.AllocsOp >= 0 && base.AllocsOp > 0 && got.AllocsOp > maxAllocRatio*base.AllocsOp {
			violations = append(violations,
				fmt.Sprintf("%s: %.4g allocs/op vs baseline %.4g (%.2fx > %.2gx budget)",
					name, got.AllocsOp, base.AllocsOp, got.AllocsOp/base.AllocsOp, maxAllocRatio))
		}
		if g := base.FasterThan; g != nil {
			if other, ok := results[g.Name]; ok && got.NsOp*g.Factor > other.NsOp {
				violations = append(violations,
					fmt.Sprintf("%s: %.3gms is %.2fx faster than %s (%.3gms), gate is %gx",
						name, got.NsOp/1e6, other.NsOp/got.NsOp, g.Name, other.NsOp/1e6, g.Factor))
			}
		}
	}
	return violations
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baselinePath  = fs.String("baseline", "testdata/bench_baseline.json", "baseline JSON path")
		update        = fs.Bool("update", false, "rewrite the baseline from this run")
		maxRatio      = fs.Float64("max-ratio", 2.0, "fail when ns/op exceeds baseline by this factor")
		maxAllocRatio = fs.Float64("max-alloc-ratio", 1.3, "fail when B/op or allocs/op exceeds baseline by this factor")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	results, err := parseBench(stdin, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchcheck:", err)
		return 2
	}
	if len(results) == 0 {
		fmt.Fprintln(stderr, "benchcheck: no benchmark results on stdin")
		return 2
	}

	if *update {
		// Merge into the existing baseline rather than overwriting it, so
		// per-package bench runs (root DSE, sched window search) can each
		// refresh their own entries without clobbering the others'.
		merged := map[string]benchResult{}
		if raw, err := os.ReadFile(*baselinePath); err == nil {
			if err := json.Unmarshal(raw, &merged); err != nil {
				fmt.Fprintln(stderr, "benchcheck: existing baseline:", err)
				return 2
			}
		}
		for name, res := range results {
			res.FasterThan = merged[name].FasterThan
			merged[name] = res
		}
		b, err := json.MarshalIndent(merged, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "benchcheck:", err)
			return 2
		}
		if err := os.WriteFile(*baselinePath, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "benchcheck:", err)
			return 2
		}
		fmt.Fprintf(stderr, "benchcheck: wrote %d entries (%d updated) to %s\n",
			len(merged), len(results), *baselinePath)
		return 0
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchcheck: reading baseline (rerun with -update):", err)
		return 2
	}
	baseline := map[string]benchResult{}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		fmt.Fprintln(stderr, "benchcheck: baseline:", err)
		return 2
	}

	for name, res := range results {
		if g := baseline[name].FasterThan; g != nil {
			if other, ok := results[g.Name]; ok {
				fmt.Fprintf(stderr, "benchcheck: %s is %.2fx faster than %s (gate %gx)\n", name, other.NsOp/res.NsOp, g.Name, g.Factor)
			}
		}
	}
	violations := check(results, baseline, *maxRatio, *maxAllocRatio)
	for _, v := range violations {
		fmt.Fprintln(stderr, "benchcheck: FAIL", v)
	}
	if len(violations) > 0 {
		return 1
	}
	fmt.Fprintf(stderr, "benchcheck: %d benchmarks within budget (%.2gx time, %.2gx memory)\n", len(results), *maxRatio, *maxAllocRatio)
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
