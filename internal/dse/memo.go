package dse

import (
	"sync"
	"sync/atomic"

	"cordoba/internal/accel"
	"cordoba/internal/nn"
)

// DefaultMemoEntries bounds the shared shape-profile cache. One entry is a
// kernel's layer shapes for one (MAC arrays, SRAM) pair — a few hundred
// bytes — so the default admits every shape of a Fig. 8-scale grid for all
// fifteen kernels (121 × 15 = 1815 entries) with room for several requests'
// worth of distinct shapes on top.
const DefaultMemoEntries = 8192

// memoEvictFraction is the share of entries dropped when an insert finds the
// cache full. Partial eviction keeps the surviving ~3/4 of the working set
// hot: the historical full-map flush meant a working set one entry over the
// bound forced every worker to recompute every profile — a thundering-herd
// recomputation exactly when the cache was most needed.
const memoEvictFraction = 4 // evict len/memoEvictFraction entries

// memoKey identifies a cached profile: the (kernel, config-signature) pair
// of the issue spec, with accel.ShapeKey as the signature — the exact set
// of Config fields a kernel's layer shapes depend on.
type memoKey struct {
	kernel nn.KernelID
	key    accel.ShapeKey
}

// memoEntry is one cached profile, set aside while evictLocked rebuilds.
type memoEntry struct {
	key memoKey
	sp  *accel.ShapeProfile
}

// MemoCache is the concurrency-safe memoization layer of the streaming DSE
// engine: it caches accel.ShapeProfile values keyed on (kernel, ShapeKey),
// so the dominant per-point cost — walking a kernel's layers — is paid once
// per shape per worker-pool run and replayed across every DVFS/node cell,
// every task sharing the kernel, and every request sharing the cache.
//
// The cache is bounded: when an insert would exceed the limit, a random
// ~25% of the entries are evicted under the lock (Go's map iteration order
// is randomized, so walking the map is a cheap random sample). Evictions are
// counted and exported as cordobad_memo_evictions_total.
type MemoCache struct {
	mu   sync.RWMutex
	max  int
	m    map[memoKey]*accel.ShapeProfile
	kept []memoEntry // eviction's survivor buffer, see evictLocked

	// bases maps (kernel, ShapeKey.ComputeKey) and mems maps (kernel,
	// ShapeKey.MemKey) to the latest profile inserted under them. A miss builds its profile from those siblings
	// (accel.Config.ShapeProfileFrom), so every SRAM size of one MAC count
	// shares a single copy of the SRAM-independent half, and every MAC count
	// of one SRAM size a single copy of the SRAM-dependent half. Cleared on
	// eviction, which bounds them by the cache size.
	bases, mems map[memoKey]*accel.ShapeProfile

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// NewMemoCache returns a cache bounded to max profiles; max < 1 selects
// DefaultMemoEntries.
func NewMemoCache(max int) *MemoCache {
	if max < 1 {
		max = DefaultMemoEntries
	}
	return &MemoCache{
		max:   max,
		m:     make(map[memoKey]*accel.ShapeProfile),
		bases: make(map[memoKey]*accel.ShapeProfile),
		mems:  make(map[memoKey]*accel.ShapeProfile),
	}
}

// evictLocked makes room for one insert by dropping a random fraction of the
// map. The survivors are set aside, the map cleared and the survivors put
// back, because deleting in place would leave every deleted slot behind: Go
// maps never shrink, and under steady insert/evict churn such a table grows
// to several times the size the bound implies, so memory would track the
// number of profiles ever computed rather than the bound. Clearing keeps
// the table's allocation and the survivor buffer is reused, so evictions
// allocate nothing after the first. Called with mu held for writing and
// len(m) >= max.
func (mc *MemoCache) evictLocked() {
	drop := len(mc.m) / memoEvictFraction
	if drop < 1 {
		drop = 1
	}
	mc.evictions.Add(int64(drop))
	if cap(mc.kept) < len(mc.m) {
		mc.kept = make([]memoEntry, 0, len(mc.m))
	}
	kept := mc.kept[:0]
	for k, sp := range mc.m {
		if drop > 0 {
			drop-- // iteration order is random, so the dropped set is too
			continue
		}
		kept = append(kept, memoEntry{k, sp})
	}
	clear(mc.m)
	for _, e := range kept {
		mc.m[e.key] = e.sp
	}
	clear(kept) // drop the buffer's profile references until the next eviction
	mc.kept = kept
	clear(mc.bases)
	clear(mc.mems)
}

// insertLocked stores sp under k, evicting if full. When another worker
// already inserted the key, the previous profile wins so every caller replays
// one canonical pointer. Returns the canonical profile.
func (mc *MemoCache) insertLocked(k memoKey, sp *accel.ShapeProfile) *accel.ShapeProfile {
	if prev, ok := mc.m[k]; ok {
		return prev
	}
	if len(mc.m) >= mc.max {
		mc.evictLocked()
	}
	mc.m[k] = sp
	mc.bases[memoKey{k.kernel, k.key.ComputeKey()}] = sp
	mc.mems[memoKey{k.kernel, k.key.MemKey()}] = sp
	return sp
}

// Profile returns the shape profile of kernel id on configuration c,
// computing and caching it on first use. The returned profile is shared and
// immutable; callers replay it with ShapeProfile.Cost.
func (mc *MemoCache) Profile(c accel.Config, id nn.KernelID) (*accel.ShapeProfile, error) {
	var dst [1]*accel.ShapeProfile
	err := mc.Profiles(c, []nn.KernelID{id}, dst[:])
	return dst[0], err
}

// Profiles fills dst (parallel to kernels) with the shape profiles of every
// kernel on configuration c, taking one read-lock round-trip per shape
// instead of one per kernel — the batched lookup the streaming engine's
// per-shape hot path rides. The ShapeKey is computed once; on a full hit the
// call performs no allocations. Missing profiles are computed outside the
// lock, each from its cached siblings of another SRAM size and of another
// MAC count when there are, and inserted with a single write-lock
// round-trip.
func (mc *MemoCache) Profiles(c accel.Config, kernels []nn.KernelID, dst []*accel.ShapeProfile) error {
	key := c.ShapeKey()

	missing := 0
	mc.mu.RLock()
	for i, id := range kernels {
		k := memoKey{kernel: id, key: key}
		sp, ok := mc.m[k]
		if !ok {
			missing++
			sp = mc.bases[memoKey{id, key.ComputeKey()}] // a sibling to build from, or nil
		}
		dst[i] = sp
	}
	mc.mu.RUnlock()
	mc.hits.Add(int64(len(kernels) - missing))
	if missing == 0 {
		return nil
	}
	mc.misses.Add(int64(missing))

	for i, id := range kernels {
		if dst[i] != nil && dst[i].Key == key {
			continue // hit
		}
		mc.mu.RLock()
		mem := mc.mems[memoKey{id, key.MemKey()}]
		mc.mu.RUnlock()
		sp, err := c.ShapeProfileFrom(id, dst[i], mem)
		if err != nil {
			return err
		}
		dst[i] = sp
	}
	mc.mu.Lock()
	for i, id := range kernels {
		dst[i] = mc.insertLocked(memoKey{kernel: id, key: key}, dst[i])
	}
	mc.mu.Unlock()
	return nil
}

// Len returns the number of cached profiles.
func (mc *MemoCache) Len() int {
	mc.mu.RLock()
	defer mc.mu.RUnlock()
	return len(mc.m)
}

// Stats returns the lifetime hit and miss counters.
func (mc *MemoCache) Stats() (hits, misses int64) {
	return mc.hits.Load(), mc.misses.Load()
}

// Evictions returns the number of entries dropped by capacity eviction
// (each eviction event drops a random ~25% of the cache). Exported as
// cordobad_memo_evictions_total.
func (mc *MemoCache) Evictions() int64 {
	return mc.evictions.Load()
}
