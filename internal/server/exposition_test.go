package server

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cordoba"
	"cordoba/api"
	"cordoba/internal/accel"
	"cordoba/internal/job"
	"cordoba/internal/nn"
)

var updateProm = flag.Bool("update", false, "rewrite the pinned /metrics expositions under testdata")

// pinnedExposition renders a registry with every family populated: two
// routes whose 200, 400 and 500 answers land in the first, a middle and the
// +Inf latency bucket, the cache, DSE and surrogate counters, the default
// and chiplet backends, schedule and trace counters, a memo that has hit,
// missed and evicted, every job counter (a fractional CO₂ figure among
// them), the anonymous and one named tenant, and nonzero in-flight and pool
// gauges. A coordinator adds two workers, one up and one down.
func pinnedExposition(t *testing.T, coordinator bool) string {
	t.Helper()
	m := NewMetrics()
	for _, o := range []struct {
		route string
		code  int
		secs  float64
	}{
		{"/v1/dse", 200, 0.0001}, {"/v1/dse", 200, 0.03}, {"/v1/dse", 400, 0.002}, {"/v1/dse", 500, 42},
		{"/v1/jobs", 200, 0.0004}, {"/v1/jobs", 400, 0.2}, {"/v1/jobs", 500, 11},
	} {
		m.ObserveRequest(o.route, o.code, o.secs)
	}
	m.CacheHit()
	m.CacheHit()
	m.CacheMiss()
	m.ObserveDSEStream(1200, 1100)
	m.ObserveDSESurrogate(300, 40, 7)
	m.ObserveModelEvals("", 5)
	m.ObserveModelEvals("chiplet", 3)
	m.ObserveSchedule(24)
	m.ObserveTraceLookup()
	m.ObserveTraceLookup()

	// Three distinct shapes through a two-entry memo: three misses, one
	// eviction, then a hit on the shape inserted last.
	memo := cordoba.NewMemoCache(2)
	grid := cordoba.Grid()
	rn18 := slices.Index(nn.AllKernels(), nn.RN18)
	var dst [1]*accel.ShapeProfile
	for _, c := range []cordoba.AcceleratorConfig{grid[0], grid[len(grid)/2], grid[len(grid)-1], grid[len(grid)-1]} {
		if err := memo.Profiles(c, []int{rn18}, dst[:]); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := memo.Stats(); hits != 1 || misses != 3 || memo.Evictions() != 1 {
		t.Fatalf("memo stats = (%d hits, %d misses, %d evictions), want (1, 3, 1)", hits, misses, memo.Evictions())
	}
	s := &Server{metrics: m, memo: memo}
	m.register(s.families)
	m.register(func() []family {
		return jobFamilies(job.Counts{
			Queued: 2, Running: 1, Succeeded: 5, Failed: 1, Canceled: 2,
			Submitted: 11, Resumed: 1, Checkpoints: 17, Rejected: 3,
			QuotaRejected: 4, Deferred: 2, CO2AvoidedG: 123.456, Adopted: 1,
		})
	})
	m.register(func() []family {
		return tenantFamilies(map[string]job.TenantCount{
			"":     {Queued: 1, Running: 1, Points: 121},
			"acme": {Queued: 1, Points: 2048},
		})
	})
	if coordinator {
		m.register(func() []family {
			return clusterFamilies(api.ClusterStatus{
				Role: "coordinator",
				Workers: []api.ClusterWorker{
					{URL: "http://10.0.0.1:8080", State: "up", ShardsDone: 6, ShardsFailed: 1, AvgShardS: 0.75},
					{URL: "http://10.0.0.2:8080", State: "down", ShardsFailed: 2},
				},
				ShardsDispatched: 9, ShardsRetried: 2, ShardsMerged: 6,
			})
		})
	}
	s.inflight.Add(2)
	pool := NewPool(4, 1, m)
	pool.inflight.Add(1)
	pool.waiting.Add(3)

	var sb strings.Builder
	if err := m.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestMetricsExpositionPinned holds every family's HELP, TYPE and sample
// lines byte-for-byte against the pinned expositions; only the order of
// families is free.
func TestMetricsExpositionPinned(t *testing.T) {
	for _, tc := range []struct {
		name        string
		coordinator bool
	}{{"plain", false}, {"coordinator", true}} {
		t.Run(tc.name, func(t *testing.T) {
			got := pinnedExposition(t, tc.coordinator)
			checkExposition(t, got)
			path := filepath.Join("testdata", "metrics_"+tc.name+".prom")
			if *updateProm {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			gotBlocks, wantBlocks := familyBlocks(t, got), familyBlocks(t, string(want))
			for name, block := range wantBlocks {
				if gotBlocks[name] != block {
					t.Errorf("family %s:\ngot:\n%s\nwant:\n%s", name, gotBlocks[name], block)
				}
			}
			for name := range gotBlocks {
				if _, ok := wantBlocks[name]; !ok {
					t.Errorf("unpinned family %s", name)
				}
			}
		})
	}
}

// TestMetricsCatalogued holds API.md's metric catalogue to the registry:
// every family a plain daemon or a coordinator renders has a row, and every
// row names a rendered family.
func TestMetricsCatalogued(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		if rest, ok := strings.CutPrefix(line, "| `cordobad_"); ok {
			name, _, _ := strings.Cut(rest, "`")
			rows["cordobad_"+name] = true
		}
	}
	rendered := map[string]bool{}
	for _, coordinator := range []bool{false, true} {
		for name := range familyBlocks(t, pinnedExposition(t, coordinator)) {
			rendered[name] = true
			if !rows[name] {
				t.Errorf("API.md §Operations has no row for %s", name)
			}
		}
	}
	for name := range rows {
		if !rendered[name] {
			t.Errorf("API.md §Operations lists %s, which no daemon renders", name)
		}
	}
}

// familyBlocks splits an exposition into its families: each block is the
// HELP line and every line after it up to the next HELP.
func familyBlocks(t *testing.T, text string) map[string]string {
	t.Helper()
	blocks := map[string]string{}
	name := ""
	for _, line := range strings.SplitAfter(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ = strings.Cut(rest, " ")
		}
		if name == "" {
			t.Fatalf("line before the first HELP: %q", line)
		}
		blocks[name] += line
	}
	return blocks
}

// scrapeValue returns the value of one series in s's /metrics exposition.
func scrapeValue(t *testing.T, s *Server, series string) float64 {
	t.Helper()
	return seriesValue(t, do(t, s, "GET", "/metrics", "").Body.String(), series)
}

// seriesValue returns the value of one series in an exposition.
func seriesValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("exposition has no series %s", series)
	return 0
}

// TestMetricsObserveAllocs pins the request and counter paths at zero
// allocations once a series exists: they run on every request.
func TestMetricsObserveAllocs(t *testing.T) {
	m := newTestServer(t, Config{}).metrics
	for _, code := range []int{200, 404, 500} {
		m.ObserveRequest("/v1/dse", code, 0.01)
	}
	m.ObserveModelEvals("chiplet", 1)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"ObserveRequest 200", func() { m.ObserveRequest("/v1/dse", 200, 0.01) }},
		{"ObserveRequest 404", func() { m.ObserveRequest("/v1/dse", 404, 0.2) }},
		{"ObserveRequest 500", func() { m.ObserveRequest("/v1/dse", 500, 30) }},
		{"CacheHit", m.CacheHit},
		{"CacheMiss", m.CacheMiss},
		{"ObserveDSEStream", func() { m.ObserveDSEStream(12, 3) }},
		{"ObserveDSESurrogate", func() { m.ObserveDSESurrogate(40, 5, 2) }},
		{"ObserveModelEvals", func() { m.ObserveModelEvals("chiplet", 4) }},
		{"ObserveSchedule", func() { m.ObserveSchedule(24) }},
		{"ObserveTraceLookup", m.ObserveTraceLookup},
	} {
		if n := testing.AllocsPerRun(100, tc.f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}

// checkExposition validates a scrape against the text exposition format:
// every family has exactly one HELP and one TYPE, both before its samples;
// every sample belongs to the family above it (histograms and summaries
// through their _bucket, _sum and _count series); label values use only
// the format's three escapes; no series repeats; every value is a float.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	if !strings.HasSuffix(text, "\n") {
		t.Fatalf("exposition does not end in a newline")
	}
	var family, typ string
	seen := map[string]bool{}   // families
	series := map[string]bool{} // name + labels
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf("line %d %q: %s", i+1, line, fmt.Sprintf(format, args...))
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			if family != "" && typ == "" {
				fail("family %s has no TYPE", family)
			}
			family, _, _ = strings.Cut(rest, " ")
			typ = ""
			if seen[family] {
				fail("second HELP for %s", family)
			}
			seen[family] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			switch {
			case name != family:
				fail("TYPE for %s under HELP for %s", name, family)
			case typ != "":
				fail("second TYPE for %s", name)
			case kind != "counter" && kind != "gauge" && kind != "histogram" && kind != "summary" && kind != "untyped":
				fail("unknown type %q", kind)
			}
			typ = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			fail("unexpected comment")
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			fail("%v", err)
			continue
		}
		if typ == "" {
			fail("sample before its family's HELP and TYPE")
		}
		suffix, ok := strings.CutPrefix(name, family)
		if !ok || (suffix != "" && !((typ == "histogram" && suffix == "_bucket") ||
			((typ == "histogram" || typ == "summary") && (suffix == "_sum" || suffix == "_count")))) {
			fail("sample %s does not belong to %s family %s", name, typ, family)
		}
		if key := name + "{" + strings.Join(labels, ",") + "}"; series[key] {
			fail("series %s appears twice", key)
		} else {
			series[key] = true
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			fail("value %q is not a float", value)
		}
	}
	if typ == "" {
		t.Errorf("family %s has no TYPE", family)
	}
}

// parseSample splits a sample line into its metric name, its label pairs
// (rendered name="raw value", in order) and its value, rejecting any label
// escape other than \\, \" and \n.
func parseSample(line string) (name string, labels []string, value string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return "", nil, "", fmt.Errorf("no metric name")
	}
	name, rest := line[:i], line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for !strings.HasPrefix(rest, "}") {
			eq := strings.Index(rest, `="`)
			if eq <= 0 {
				return "", nil, "", fmt.Errorf("malformed label in %q", rest)
			}
			label := rest[:eq]
			rest = rest[eq+2:]
			var v strings.Builder
			for {
				if rest == "" {
					return "", nil, "", fmt.Errorf("unterminated value of label %s", label)
				}
				c := rest[0]
				rest = rest[1:]
				if c == '"' {
					break
				}
				if c == '\\' {
					if rest == "" || !strings.ContainsRune(`\"n`, rune(rest[0])) {
						return "", nil, "", fmt.Errorf("label %s: escape other than \\\\, \\\" or \\n", label)
					}
					c = map[byte]byte{'\\': '\\', '"': '"', 'n': '\n'}[rest[0]]
					rest = rest[1:]
				}
				v.WriteByte(c)
			}
			labels = append(labels, label+"="+strconv.Quote(v.String()))
			rest = strings.TrimPrefix(rest, ",")
		}
		rest = rest[1:]
	}
	value, ok := strings.CutPrefix(rest, " ")
	if !ok || value == "" || strings.Contains(value, " ") {
		return "", nil, "", fmt.Errorf("want one value after the series")
	}
	return name, labels, value, nil
}
