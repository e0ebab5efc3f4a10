package dse

import (
	"runtime"
	"testing"

	"cordoba/internal/accel"
	"cordoba/internal/nn"
	"cordoba/internal/units"
)

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

	for round := 0; round < 20; round++ {
		for _, c := range cfgs {
			if _, err := mc.Profile(c, nn.RN18); err != nil {
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
	for _, c := range cfgs {
		if _, err := mc.Profile(c, nn.RN18); err != nil {
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
// same canonical pointers as the per-kernel path and counts hits/misses
// identically.
func TestMemoProfilesBatchedLookup(t *testing.T) {
	mc := NewMemoCache(0)
	cfg := accel.New("m", 16, 4*units.MiB)
	kernels := []nn.KernelID{nn.RN18, nn.RN50, nn.GN}

	dst := make([]*accel.ShapeProfile, len(kernels))
	if err := mc.Profiles(cfg, kernels, dst); err != nil {
		t.Fatal(err)
	}
	for i, id := range kernels {
		if dst[i] == nil || dst[i].Kernel != id {
			t.Fatalf("dst[%d] = %+v, want profile of %s", i, dst[i], id)
		}
		single, err := mc.Profile(cfg, id)
		if err != nil {
			t.Fatal(err)
		}
		if single != dst[i] {
			t.Fatalf("Profile(%s) returned a different pointer than the batched lookup", id)
		}
	}

	// A second batched pass is a full hit: no new misses, no allocations.
	_, missesBefore := mc.Stats()
	allocs := testing.AllocsPerRun(10, func() {
		if err := mc.Profiles(cfg, kernels, dst); err != nil {
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
	insert := func(mc *MemoCache, from, n int) {
		for i := from; i < from+n; i++ {
			mc.insertLocked(memoKey{kernel: nn.RN18, key: accel.ShapeKey{MACArrays: i + 1}}, sp)
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
	kernels := []nn.KernelID{nn.SR512}
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
}
