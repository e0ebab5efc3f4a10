package dse

import (
	"runtime"
	"slices"
	"testing"

	"cordoba/internal/accel"
	"cordoba/internal/nn"
	"cordoba/internal/units"
)

// kernelIdx resolves kernels to their canonical indices.
func kernelIdx(ids ...nn.KernelID) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		if out[i] = slices.Index(nn.AllKernels(), id); out[i] < 0 {
			panic("unknown kernel " + id)
		}
	}
	return out
}

// memoTestConfigs returns n configurations with n distinct shape keys.
func memoTestConfigs(n int) []accel.Config {
	out := make([]accel.Config, n)
	for i := range out {
		out[i] = accel.New("m", 8+i, 4*units.MiB)
	}
	return out
}

// TestMemoPartialEviction pins the flush-stampede fix: the cache used to
// clear the whole map when an insert found it full, so a working set one
// entry over the bound flushed everything on every cycle — a steady-state
// hit rate of zero exactly when the cache mattered most. Partial eviction
// keeps ~3/4 of the working set resident, so cycling max+1 distinct shapes
// must retain a hit rate well above half.
func TestMemoPartialEviction(t *testing.T) {
	const max = 8
	mc := NewMemoCache(max)
	cfgs := memoTestConfigs(max + 1)
	rn18, dst := kernelIdx(nn.RN18), make([]*accel.ShapeProfile, 1)

	for round := 0; round < 20; round++ {
		for _, c := range cfgs {
			if err := mc.Profiles(c, rn18, dst); err != nil {
				t.Fatal(err)
			}
		}
	}
	hits, misses := mc.Stats()
	total := hits + misses
	if rate := float64(hits) / float64(total); rate < 0.5 {
		t.Fatalf("hit rate %.2f (hits %d / %d) with working set max+1; full-map flush regression", rate, hits, total)
	}
	if mc.Evictions() == 0 {
		t.Fatal("no evictions counted despite working set exceeding the bound")
	}
	if n := mc.Len(); n > max {
		t.Fatalf("cache holds %d entries, bound is %d", n, max)
	}
}

// TestMemoEvictionCounter: each capacity eviction drops len/4 (min 1)
// entries and counts every one of them.
func TestMemoEvictionCounter(t *testing.T) {
	const max = 4
	mc := NewMemoCache(max)
	cfgs := memoTestConfigs(max + 1)
	rn18, dst := kernelIdx(nn.RN18), make([]*accel.ShapeProfile, 1)
	for _, c := range cfgs {
		if err := mc.Profiles(c, rn18, dst); err != nil {
			t.Fatal(err)
		}
	}
	// The 5th insert found the cache full and dropped max/4 = 1 entry.
	if got := mc.Evictions(); got != 1 {
		t.Fatalf("Evictions() = %d, want 1", got)
	}
	if n := mc.Len(); n != max {
		t.Fatalf("Len() = %d, want %d", n, max)
	}
}

// TestMemoProfilesBatchedLookup: the batched per-shape lookup returns the
// same canonical pointers as one-kernel lookups and counts hits/misses
// identically.
func TestMemoProfilesBatchedLookup(t *testing.T) {
	mc := NewMemoCache(0)
	cfg := accel.New("m", 16, 4*units.MiB)
	kernels := []nn.KernelID{nn.RN18, nn.RN50, nn.GN}
	idx := kernelIdx(kernels...)

	dst := make([]*accel.ShapeProfile, len(kernels))
	if err := mc.Profiles(cfg, idx, dst); err != nil {
		t.Fatal(err)
	}
	for i, id := range kernels {
		if dst[i] == nil || dst[i].Kernel != id {
			t.Fatalf("dst[%d] = %+v, want profile of %s", i, dst[i], id)
		}
		var single [1]*accel.ShapeProfile
		if err := mc.Profiles(cfg, idx[i:i+1], single[:]); err != nil {
			t.Fatal(err)
		}
		if single[0] != dst[i] {
			t.Fatalf("one-kernel lookup of %s returned a different pointer than the batched lookup", id)
		}
	}

	// A second batched pass is a full hit: no new misses, no allocations.
	_, missesBefore := mc.Stats()
	allocs := testing.AllocsPerRun(10, func() {
		if err := mc.Profiles(cfg, idx, dst); err != nil {
			t.Fatal(err)
		}
	})
	if _, missesAfter := mc.Stats(); missesAfter != missesBefore {
		t.Fatalf("repeat batched lookup missed (%d → %d)", missesBefore, missesAfter)
	}
	if allocs > 0 {
		t.Fatalf("hot batched lookup allocates %.1f objects, want 0", allocs)
	}
}

// TestMemoChurnKeepsTableBounded: eviction clears the map and reinserts
// its survivors. Deleting in place instead left the table at its
// high-water size — Go maps never shrink — and steady insert/evict churn
// grew it to ~4× the footprint of a cache filled once, so the daemons'
// memory tracked how many profiles they had ever computed. The bound
// leaves room for the survivor buffer eviction keeps.
func TestMemoChurnKeepsTableBounded(t *testing.T) {
	const max = 4096
	sp, err := accel.New("m", 8, 4*units.MiB).ShapeProfile(nn.RN18)
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	kernels, dst := kernelIdx(nn.RN18), []*accel.ShapeProfile{sp}
	insert := func(mc *MemoCache, from, n int) {
		for i := from; i < from+n; i++ {
			mc.insertLocked(accel.ShapeKey{MACArrays: i + 1}, kernels, dst)
		}
	}

	base := heap()
	filled := NewMemoCache(max)
	insert(filled, 0, max)
	once := heap() - base
	runtime.KeepAlive(filled)

	base = heap()
	churned := NewMemoCache(max)
	insert(churned, 0, 40*max)
	after := heap() - base
	runtime.KeepAlive(churned)

	if after > 2*once {
		t.Fatalf("after %d inserts the %d-entry cache holds %d B, %.1f× a cache filled once (%d B)",
			40*max, max, after, float64(after)/float64(once), once)
	}
}

// TestMemoMissBuildsFromSibling: a miss whose MAC count is already cached
// at another SRAM size builds only the SRAM-dependent half of its profile,
// and one whose SRAM size is already cached at another MAC count only the
// SRAM-independent half (each one slice fewer than a cold miss); the result
// replays exactly like a profile built from scratch.
func TestMemoMissBuildsFromSibling(t *testing.T) {
	kernels := kernelIdx(nn.SR512)
	dst := make([]*accel.ShapeProfile, 1)
	missAllocs := func(cfgAt func(i int) accel.Config) float64 {
		mc := NewMemoCache(0)
		if err := mc.Profiles(cfgAt(0), kernels, dst); err != nil {
			t.Fatal(err)
		}
		i := 1
		return testing.AllocsPerRun(50, func() {
			if err := mc.Profiles(cfgAt(i), kernels, dst); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	sibling := missAllocs(func(i int) accel.Config { return accel.New("", 16, units.MB(float64(1+i))) })
	memSibling := missAllocs(func(i int) accel.Config { return accel.New("", 16+i, units.MB(1)) })
	cold := missAllocs(func(i int) accel.Config { return accel.New("", 16+i, units.MB(float64(1+i))) })
	if sibling > cold-0.5 {
		t.Fatalf("a miss with a cached sibling allocates %.1f objects, a cold miss %.1f; want one slice fewer", sibling, cold)
	}
	if memSibling > cold-0.5 {
		t.Fatalf("a miss with a cached SRAM sibling allocates %.1f objects, a cold miss %.1f; want one slice fewer", memSibling, cold)
	}

	c := accel.New("", 16, units.MB(7))
	want, err := c.KernelCost(nn.SR512)
	if err != nil {
		t.Fatal(err)
	}
	for _, siblings := range [][]accel.Config{
		{accel.New("", 16, units.MB(3))},                                // shares the SRAM-independent half
		{accel.New("", 8, units.MB(7))},                                 // shares the SRAM-dependent half
		{accel.New("", 16, units.MB(3)), accel.New("", 8, units.MB(7))}, // shares both
	} {
		mc := NewMemoCache(0)
		for _, cfg := range append(siblings, c) {
			if err := mc.Profiles(cfg, kernels, dst); err != nil {
				t.Fatal(err)
			}
		}
		if got := dst[0].Cost(c); got != want {
			t.Fatalf("profile built from siblings %v replays %+v, direct %+v", siblings, got, want)
		}
	}

	// A shared memo serves tasks with different kernels. Shapes filled by
	// another task's kernel since under the same compute or memory key must
	// not hide this kernel's siblings: the miss still shares both halves.
	mallocs := func(f func()) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	lookup := func(mc *MemoCache, cfg accel.Config, kernels []int) {
		if err := mc.Profiles(cfg, kernels, dst); err != nil {
			t.Fatal(err)
		}
	}
	other := kernelIdx(nn.RN18)
	mc := NewMemoCache(0)
	lookup(mc, accel.New("", 16, units.MB(3)), kernels)
	lookup(mc, accel.New("", 16, units.MB(5)), other) // same compute key
	lookup(mc, accel.New("", 8, units.MB(7)), kernels)
	lookup(mc, accel.New("", 12, units.MB(7)), other) // same memory key
	shared := mallocs(func() { lookup(mc, c, kernels) })
	if got := dst[0].Cost(c); got != want {
		t.Fatalf("profile built from siblings across tasks replays %+v, direct %+v", got, want)
	}
	coldMemo := NewMemoCache(0)
	lookup(coldMemo, accel.New("", 24, units.MB(9)), other)
	coldOnce := mallocs(func() { lookup(coldMemo, c, kernels) })
	if shared+2 > coldOnce {
		t.Fatalf("a miss with both halves cached across another task's shapes allocates %d objects, a cold miss %d; want two slices fewer", shared, coldOnce)
	}
}

// TestMemoShapeOverBoundLeftUncached: a shape whose kernels alone exceed
// the bound is returned uncached and leaves the cache as it was, instead of
// evicting every other shape and then caching nothing.
func TestMemoShapeOverBoundLeftUncached(t *testing.T) {
	const max = 4
	mc := NewMemoCache(max)
	cfgs := memoTestConfigs(3)
	two := kernelIdx(nn.RN18, nn.RN50)
	dst := make([]*accel.ShapeProfile, nn.NumKernels)
	for _, c := range cfgs[:2] {
		if err := mc.Profiles(c, two, dst); err != nil {
			t.Fatal(err)
		}
	}
	all := kernelIdx(nn.AllKernels()...)
	for round := 0; round < 3; round++ {
		if err := mc.Profiles(cfgs[2], all, dst); err != nil {
			t.Fatal(err)
		}
		for i, id := range nn.AllKernels() {
			if dst[i] == nil || dst[i].Kernel != id || dst[i].Key != cfgs[2].ShapeKey() {
				t.Fatalf("dst[%d] = %+v, want the profile of %s on the requested shape", i, dst[i], id)
			}
		}
	}
	if n, ev := mc.Len(), mc.Evictions(); n != max || ev != 0 {
		t.Fatalf("Len() = %d, Evictions() = %d after over-bound requests; want %d and 0", n, ev, max)
	}
	_, misses := mc.Stats()
	for _, c := range cfgs[:2] {
		if err := mc.Profiles(c, two, dst); err != nil {
			t.Fatal(err)
		}
	}
	if _, m := mc.Stats(); m != misses {
		t.Fatalf("the cached shapes missed after over-bound requests (%d → %d)", misses, m)
	}
}

// TestMemoFullHitAllocatesNothing: a full hit is one map lookup per shape,
// allocation-free whether the caller lists the kernels in the order that
// filled the shape's slot or in another.
func TestMemoFullHitAllocatesNothing(t *testing.T) {
	mc := NewMemoCache(0)
	cfg := accel.New("m", 24, 6*units.MiB)
	kernels := nn.AllKernels()
	reversed := slices.Clone(kernels)
	slices.Reverse(reversed)
	dst := make([]*accel.ShapeProfile, len(kernels))
	if err := mc.Profiles(cfg, kernelIdx(kernels...), dst); err != nil {
		t.Fatal(err)
	}
	for _, order := range [][]nn.KernelID{kernels, reversed} {
		idx := kernelIdx(order...)
		_, missesBefore := mc.Stats()
		allocs := testing.AllocsPerRun(20, func() {
			if err := mc.Profiles(cfg, idx, dst); err != nil {
				t.Fatal(err)
			}
		})
		if _, missesAfter := mc.Stats(); missesAfter != missesBefore {
			t.Fatalf("full hit missed (%d → %d)", missesBefore, missesAfter)
		}
		if allocs != 0 {
			t.Fatalf("full hit over %d kernels allocates %.1f objects, want 0", len(order), allocs)
		}
		for i, id := range order {
			if dst[i].Kernel != id {
				t.Fatalf("dst[%d] profiles %s, want %s", i, dst[i].Kernel, id)
			}
		}
	}
}

// TestMemoBoundHoldsWhenShapeGrows: a request adding kernels to a shape
// already cached must evict other shapes to stay within the bound, never
// the growing shape itself, keep its existing profiles canonical, and count
// each profile. Eviction picks shapes at random, so the scenario repeats.
func TestMemoBoundHoldsWhenShapeGrows(t *testing.T) {
	const max = 6
	two := kernelIdx(nn.RN18, nn.RN50)
	four := kernelIdx(nn.RN18, nn.RN50, nn.GN, nn.SR512)
	cfgs := memoTestConfigs(3)
	for round := 0; round < 20; round++ {
		mc := NewMemoCache(max)
		first := make([]*accel.ShapeProfile, len(two))
		for i, c := range cfgs {
			dst := make([]*accel.ShapeProfile, len(two))
			if err := mc.Profiles(c, two, dst); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				copy(first, dst)
			}
		}
		if n := mc.Len(); n != max {
			t.Fatalf("Len() = %d after filling, want %d", n, max)
		}

		dst := make([]*accel.ShapeProfile, len(four))
		if err := mc.Profiles(cfgs[0], four, dst); err != nil {
			t.Fatal(err)
		}
		held := 0
		for _, s := range mc.m {
			for _, sp := range s.p {
				if sp != nil {
					held++
				}
			}
		}
		if n := mc.Len(); n > max || n != held {
			t.Fatalf("cache counts %d profiles and holds %d after a cached shape grew, bound is %d", n, held, max)
		}
		if dst[0] != first[0] || dst[1] != first[1] {
			t.Fatal("growing a cached shape replaced its existing profiles")
		}
		if got := mc.Evictions(); got != 2 {
			t.Fatalf("Evictions() = %d, want the 2 profiles of the one shape dropped", got)
		}
		hits, misses := mc.Stats()
		if hits != 2 || misses != 3*2+2 {
			t.Fatalf("Stats() = %d hits, %d misses; want 2, 8", hits, misses)
		}

		// The grown shape is now a full hit.
		again := make([]*accel.ShapeProfile, len(four))
		if err := mc.Profiles(cfgs[0], four, again); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(again, dst) {
			t.Fatal("the grown shape does not replay its canonical profiles")
		}
		if _, m := mc.Stats(); m != misses {
			t.Fatalf("the grown shape missed again (%d → %d)", misses, m)
		}
	}
}

// TestMemoInsertKeepsFirstProfile: when two workers miss the same shape and
// kernel, the first insert wins and the second caller gets its pointer, so
// every caller replays one canonical profile.
func TestMemoInsertKeepsFirstProfile(t *testing.T) {
	c := accel.New("m", 8, 4*units.MiB)
	a, err := c.ShapeProfile(nn.RN18)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.ShapeProfile(nn.RN18)
	if err != nil {
		t.Fatal(err)
	}
	mc := NewMemoCache(0)
	kernels := kernelIdx(nn.RN18)
	mc.insertLocked(c.ShapeKey(), kernels, []*accel.ShapeProfile{a})
	dst := []*accel.ShapeProfile{b}
	mc.insertLocked(c.ShapeKey(), kernels, dst)
	if dst[0] != a || mc.Len() != 1 {
		t.Fatalf("second insert left %p (first %p) and %d profiles, want the first and 1", dst[0], a, mc.Len())
	}
}
