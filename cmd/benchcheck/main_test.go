package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: cordoba
BenchmarkStreamingDSE/naive-8         	       1	7613378000 ns/op	93437848 B/op	  316410 allocs/op
BenchmarkStreamingDSE/streaming-8     	       2	 536123456 ns/op	210000000 B/op	  794000 allocs/op
BenchmarkEvaluateParallel 	      10	 123456789 ns/op
PASS
ok  	cordoba	10.123s
`

func TestParseBenchStripsSuffix(t *testing.T) {
	results, err := parseBench(strings.NewReader(sampleOutput), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]benchResult{
		"BenchmarkStreamingDSE/naive":     {NsOp: 7613378000, BOp: 93437848, AllocsOp: 316410},
		"BenchmarkStreamingDSE/streaming": {NsOp: 536123456, BOp: 210000000, AllocsOp: 794000},
		"BenchmarkEvaluateParallel":       {NsOp: 123456789, BOp: -1, AllocsOp: -1},
	}
	if len(results) != len(want) {
		t.Fatalf("parsed %v, want %v", results, want)
	}
	for name, res := range want {
		if results[name] != res {
			t.Errorf("%s = %v, want %v", name, results[name], res)
		}
	}
}

// TestParseBenchMedianOfRepeats: a benchmark repeated by -count N is gated
// on the median of each column, so a single slow (or fast) sample does not
// decide the gate.
func TestParseBenchMedianOfRepeats(t *testing.T) {
	const out = `BenchmarkA-2   1   900 ns/op   100 B/op   10 allocs/op
BenchmarkB-2   1   50 ns/op
BenchmarkA-2   1   5000 ns/op   120 B/op   9 allocs/op
BenchmarkB-2   1   70 ns/op
BenchmarkA-2   1   1000 ns/op   9000 B/op   11 allocs/op
BenchmarkA-2   1   1100 ns/op   110 B/op   10 allocs/op
BenchmarkA-2   1   950 ns/op   105 B/op   12 allocs/op
`
	results, err := parseBench(strings.NewReader(out), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]benchResult{
		"BenchmarkA": {NsOp: 1000, BOp: 110, AllocsOp: 10},
		"BenchmarkB": {NsOp: 60, BOp: -1, AllocsOp: -1},
	}
	for name, res := range want {
		if results[name] != res {
			t.Errorf("%s = %+v, want %+v", name, results[name], res)
		}
	}

	// The 5000 ns/op outlier would fail a 2x gate on its own; the median
	// passes it.
	baseline := map[string]benchResult{"BenchmarkA": {NsOp: 1000, BOp: 110, AllocsOp: 10}, "BenchmarkB": {NsOp: 60}}
	if v := check(results, baseline, 2.0, 1.3); len(v) != 0 {
		t.Errorf("median run flagged: %v", v)
	}
}

func TestCheckFlagsRegressionsAndMissing(t *testing.T) {
	results := map[string]benchResult{
		"BenchmarkA": {NsOp: 900, BOp: -1, AllocsOp: -1},
		"BenchmarkB": {NsOp: 2100, BOp: -1, AllocsOp: -1},
		"BenchmarkC": {NsOp: 5, BOp: -1, AllocsOp: -1},
	}
	baseline := map[string]benchResult{
		"BenchmarkA": {NsOp: 1000},
		"BenchmarkB": {NsOp: 1000},
	}
	got := check(results, baseline, 2.0, 1.3)
	if len(got) != 2 {
		t.Fatalf("violations = %v, want a regression and a missing entry", got)
	}
	if !strings.Contains(got[0], "BenchmarkB") || !strings.Contains(got[0], "2.10x") {
		t.Errorf("regression line = %q", got[0])
	}
	if !strings.Contains(got[1], "BenchmarkC") || !strings.Contains(got[1], "no baseline") {
		t.Errorf("missing-baseline line = %q", got[1])
	}
}

func TestCheckGatesAllocations(t *testing.T) {
	baseline := map[string]benchResult{
		"BenchmarkA": {NsOp: 1000, BOp: 1000, AllocsOp: 100},
	}

	// Within time budget but 2x the allocations: both memory axes fire.
	results := map[string]benchResult{
		"BenchmarkA": {NsOp: 1000, BOp: 2000, AllocsOp: 200},
	}
	got := check(results, baseline, 2.0, 1.3)
	if len(got) != 2 {
		t.Fatalf("violations = %v, want B/op and allocs/op regressions", got)
	}
	if !strings.Contains(got[0], "B/op") || !strings.Contains(got[1], "allocs/op") {
		t.Errorf("violations = %v", got)
	}

	// A run without memory columns never trips the memory gate.
	results = map[string]benchResult{
		"BenchmarkA": {NsOp: 1000, BOp: -1, AllocsOp: -1},
	}
	if got := check(results, baseline, 2.0, 1.3); len(got) != 0 {
		t.Fatalf("violations = %v, want none for a time-only run", got)
	}

	// A baseline without memory data never gates a memory-reporting run.
	results = map[string]benchResult{
		"BenchmarkA": {NsOp: 1000, BOp: 99999, AllocsOp: 99999},
	}
	if got := check(results, map[string]benchResult{"BenchmarkA": {NsOp: 1000, BOp: -1, AllocsOp: -1}}, 2.0, 1.3); len(got) != 0 {
		t.Fatalf("violations = %v, want none against a time-only baseline", got)
	}
}

func TestBaselineTimeOnlyEntry(t *testing.T) {
	// An entry holding only ns_op gates time and never gates memory.
	dir := t.TempDir()
	base := filepath.Join(dir, "baseline.json")
	timeOnly := `{"BenchmarkStreamingDSE/naive": {"ns_op": 7613378000}, "BenchmarkStreamingDSE/streaming": {"ns_op": 536123456}, "BenchmarkEvaluateParallel": {"ns_op": 123456789}}`
	if err := os.WriteFile(base, []byte(timeOnly), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-baseline", base},
		strings.NewReader(sampleOutput), io.Discard, io.Discard); code != 0 {
		t.Fatalf("time-only compare exited %d", code)
	}
	slow := strings.Replace(sampleOutput, "7613378000 ns/op", "22840134000 ns/op", 1)
	if code := run([]string{"-baseline", base},
		strings.NewReader(slow), io.Discard, io.Discard); code != 1 {
		t.Fatalf("time-only regression exited %d, want 1", code)
	}
}

func TestRunUpdateThenPass(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "baseline.json")

	if code := run([]string{"-baseline", base, "-update"},
		strings.NewReader(sampleOutput), io.Discard, io.Discard); code != 0 {
		t.Fatalf("-update exited %d", code)
	}
	if _, err := os.Stat(base); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-baseline", base},
		strings.NewReader(sampleOutput), io.Discard, io.Discard); code != 0 {
		t.Fatalf("clean compare exited %d", code)
	}

	// 3x slower on one benchmark: must fail.
	slow := strings.Replace(sampleOutput, "7613378000 ns/op", "22840134000 ns/op", 1)
	var errOut strings.Builder
	if code := run([]string{"-baseline", base},
		strings.NewReader(slow), io.Discard, &errOut); code != 1 {
		t.Fatalf("regression exited %d, want 1\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "BenchmarkStreamingDSE/naive") {
		t.Fatalf("regression output missing benchmark name:\n%s", errOut.String())
	}

	// 2x the allocations at unchanged speed: must also fail.
	hungry := strings.Replace(sampleOutput, "316410 allocs/op", "632820 allocs/op", 1)
	errOut.Reset()
	if code := run([]string{"-baseline", base},
		strings.NewReader(hungry), io.Discard, &errOut); code != 1 {
		t.Fatalf("alloc regression exited %d, want 1\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "allocs/op") {
		t.Fatalf("alloc regression output missing axis:\n%s", errOut.String())
	}

	// Empty input is an operator error, not a pass.
	if code := run([]string{"-baseline", base},
		strings.NewReader("PASS\n"), io.Discard, io.Discard); code != 2 {
		t.Fatalf("empty input exited %d, want 2", code)
	}
}

func TestRunUpdateMergesAcrossPackages(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "baseline.json")

	if code := run([]string{"-baseline", base, "-update"},
		strings.NewReader(sampleOutput), io.Discard, io.Discard); code != 0 {
		t.Fatalf("first -update exited %d", code)
	}

	// A second package's bench run must extend the baseline, not replace it.
	other := "BenchmarkScheduleWindow/cumulative-8 \t 100 \t 11708 ns/op\n"
	if code := run([]string{"-baseline", base, "-update"},
		strings.NewReader(other), io.Discard, io.Discard); code != 0 {
		t.Fatalf("second -update exited %d", code)
	}

	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"BenchmarkStreamingDSE/naive",
		"BenchmarkScheduleWindow/cumulative",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("merged baseline missing %q:\n%s", want, raw)
		}
	}

	// Re-running a benchmark overwrites its own entry in place.
	faster := strings.Replace(other, "11708 ns/op", "9000 ns/op", 1)
	if code := run([]string{"-baseline", base, "-update"},
		strings.NewReader(faster), io.Discard, io.Discard); code != 0 {
		t.Fatalf("third -update exited %d", code)
	}
	raw, err = os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "9000") || strings.Contains(string(raw), "11708") {
		t.Errorf("entry not refreshed in place:\n%s", raw)
	}
}

func TestCheckFasterThan(t *testing.T) {
	baseline := map[string]benchResult{
		"BenchmarkS/fast": {NsOp: 100, FasterThan: &fasterThan{Name: "BenchmarkS/slow", Factor: 3}},
		"BenchmarkS/slow": {NsOp: 400},
	}

	// 4x faster against a 3x gate: passes.
	results := map[string]benchResult{
		"BenchmarkS/fast": {NsOp: 100, BOp: -1, AllocsOp: -1},
		"BenchmarkS/slow": {NsOp: 400, BOp: -1, AllocsOp: -1},
	}
	if got := check(results, baseline, 2.0, 1.3); len(got) != 0 {
		t.Fatalf("violations = %v, want none at 4x", got)
	}

	// Within its own 2x time budget, but only 2.5x faster than the other
	// benchmark of the same run: the ratio gate fires alone.
	results["BenchmarkS/fast"] = benchResult{NsOp: 160, BOp: -1, AllocsOp: -1}
	got := check(results, baseline, 2.0, 1.3)
	if len(got) != 1 || !strings.Contains(got[0], "BenchmarkS/fast") || !strings.Contains(got[0], "2.50x faster than BenchmarkS/slow") {
		t.Fatalf("violations = %v, want one ratio violation at 2.5x", got)
	}

	// The gate needs both results: a run of the fast benchmark alone is
	// held to its own baseline only.
	delete(results, "BenchmarkS/slow")
	if got := check(results, baseline, 2.0, 1.3); len(got) != 0 {
		t.Fatalf("violations = %v, want none without the other benchmark", got)
	}
}

func TestRunUpdateKeepsFasterThan(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "baseline.json")
	gated := `{"BenchmarkStreamingDSE/streaming": {"ns_op": 536123456, "faster_than": {"name": "BenchmarkStreamingDSE/naive", "factor": 10}}}`
	if err := os.WriteFile(base, []byte(gated), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-baseline", base, "-update"},
		strings.NewReader(sampleOutput), io.Discard, io.Discard); code != 0 {
		t.Fatalf("-update exited %d", code)
	}
	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"faster_than"`) || !strings.Contains(string(raw), `"factor": 10`) {
		t.Fatalf("-update dropped the faster_than gate:\n%s", raw)
	}

	// The sample's streaming run is 14.2x faster than naive: passes. At
	// twice its time it is 7.1x faster, past the 10x gate; the time budget
	// is widened so the ratio gate fires alone.
	if code := run([]string{"-baseline", base},
		strings.NewReader(sampleOutput), io.Discard, io.Discard); code != 0 {
		t.Fatalf("clean compare exited %d", code)
	}
	slow := strings.Replace(sampleOutput, " 536123456 ns/op", " 1072246912 ns/op", 1)
	var errOut strings.Builder
	if code := run([]string{"-baseline", base, "-max-ratio", "3"},
		strings.NewReader(slow), io.Discard, &errOut); code != 1 {
		t.Fatalf("ratio regression exited %d, want 1\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "gate is 10x") {
		t.Fatalf("ratio regression output missing the gate:\n%s", errOut.String())
	}
}
