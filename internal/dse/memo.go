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
const memoEvictFraction = 4 // evict at least len/memoEvictFraction entries

// profileSet holds at most one profile per kernel, indexed by the kernel's
// canonical index (nn.KernelIndex).
type profileSet [nn.NumKernels]*accel.ShapeProfile

// memoSlot is one shape's cached kernel profiles; n counts the non-nil ones.
type memoSlot struct {
	p profileSet
	n int
}

// memoEntry is one cached shape, set aside while evictLocked rebuilds.
type memoEntry struct {
	key  accel.ShapeKey
	slot memoSlot
}

// MemoCache is the concurrency-safe memoization layer of the streaming DSE
// engine: it caches accel.ShapeProfile values per (kernel, ShapeKey), so the
// dominant per-point cost — walking a kernel's layers — is paid once per
// shape and replayed across every DVFS/node cell, every task sharing the
// kernel, and every request sharing the cache. Its map is keyed on the
// ShapeKey alone; each entry is a slot with one position per kernel, so a
// caller asking for all of a shape's kernels hashes the float-heavy key once
// and indexes the slot by canonical kernel index.
//
// The bound counts profiles: an insert that would exceed it first evicts
// random whole shapes until at least ~25% of the profiles are gone (map
// iteration order is randomized, so walking the map is a cheap random
// sample). Evicted profiles are exported as cordobad_memo_evictions_total.
type MemoCache struct {
	mu   sync.RWMutex
	max  int // bound on profiles
	n    int // profiles held
	m    map[accel.ShapeKey]memoSlot
	kept []memoEntry // eviction's survivor buffer, see evictLocked

	// bases maps ShapeKey.ComputeKey and mems ShapeKey.MemKey to the latest
	// profile of each kernel inserted under them. A miss builds its profile
	// from those siblings (accel.Config.ShapeProfileFrom), so every SRAM size
	// of one MAC count shares one copy of the SRAM-independent half, and
	// every MAC count of one SRAM size one copy of the SRAM-dependent half.
	// Cleared on eviction, which bounds them.
	bases, mems map[accel.ShapeKey]profileSet

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
		m:     make(map[accel.ShapeKey]memoSlot),
		bases: make(map[accel.ShapeKey]profileSet),
		mems:  make(map[accel.ShapeKey]profileSet),
	}
}

// evictLocked drops random shapes other than keep until at least len/4
// (min 1) profiles are gone. The survivors are set aside, the map cleared
// and the survivors put back: Go maps never shrink, so deleting in place
// would let steady insert/evict churn grow the table to several times the
// size the bound implies. Clearing keeps the table's allocation and the
// survivor buffer is reused, so evictions allocate nothing after the first.
// Called with mu held for writing.
func (mc *MemoCache) evictLocked(keep accel.ShapeKey) {
	drop := max(mc.n/memoEvictFraction, 1)
	if cap(mc.kept) < len(mc.m) {
		mc.kept = make([]memoEntry, 0, len(mc.m))
	}
	kept := mc.kept[:0]
	dropped := 0
	for k, s := range mc.m {
		if dropped < drop && k != keep {
			dropped += s.n // iteration order is random, so the dropped set is too
			continue
		}
		kept = append(kept, memoEntry{k, s})
	}
	mc.n -= dropped
	mc.evictions.Add(int64(dropped))
	clear(mc.m)
	for _, e := range kept {
		mc.m[e.key] = e.slot
	}
	clear(kept) // drop the buffer's profile references until the next eviction
	mc.kept = kept
	clear(mc.bases)
	clear(mc.mems)
}

// insertLocked stores dst (parallel to kernels) in key's slot, first
// evicting other shapes when the new profiles would exceed the bound. A
// kernel the slot already holds keeps its profile, which replaces dst's, so
// every caller replays one canonical pointer. A shape whose profiles alone
// would exceed the bound is left uncached and the cache as it was. Called
// with mu held for writing.
func (mc *MemoCache) insertLocked(key accel.ShapeKey, kernels []int, dst []*accel.ShapeProfile) {
	s := mc.m[key]
	add := 0
	for _, k := range kernels {
		if s.p[k] == nil {
			add++
		}
	}
	if s.n+add > mc.max {
		return
	}
	for mc.n+add > mc.max {
		mc.evictLocked(key)
	}
	ck, mk := key.ComputeKey(), key.MemKey()
	base, mem := mc.bases[ck], mc.mems[mk]
	for i, k := range kernels {
		if s.p[k] != nil {
			dst[i] = s.p[k]
			continue
		}
		s.p[k], base[k], mem[k] = dst[i], dst[i], dst[i]
		s.n++
		mc.n++
	}
	mc.m[key], mc.bases[ck], mc.mems[mk] = s, base, mem
}

// Profile returns the shape profile of kernel id on configuration c,
// computing and caching it on first use. The returned profile is shared and
// immutable; callers replay it with ShapeProfile.Cost.
func (mc *MemoCache) Profile(c accel.Config, id nn.KernelID) (*accel.ShapeProfile, error) {
	k, ok := nn.KernelIndex(id)
	if !ok {
		return c.ShapeProfile(id) // reports the unknown kernel
	}
	var dst [1]*accel.ShapeProfile
	err := mc.Profiles(c, []int{k}, dst[:])
	return dst[0], err
}

// Profiles fills dst (parallel to kernels, each a canonical index — see
// nn.KernelIndex) with the shape profiles of every kernel on configuration
// c: the batched lookup the engine's per-shape hot path rides. A full hit
// is one read-locked map lookup and allocates nothing. Missing profiles are
// computed outside the lock, from cached siblings of another SRAM size or
// MAC count when there are, and inserted with one write-lock round-trip.
// Hits and misses count kernels.
func (mc *MemoCache) Profiles(c accel.Config, kernels []int, dst []*accel.ShapeProfile) error {
	key := c.ShapeKey()
	mc.mu.RLock()
	s := mc.m[key]
	mc.mu.RUnlock()
	missing := 0
	for i, k := range kernels {
		if dst[i] = s.p[k]; dst[i] == nil {
			missing++
		}
	}
	mc.hits.Add(int64(len(kernels) - missing))
	if missing == 0 {
		return nil
	}
	mc.misses.Add(int64(missing))

	mc.mu.RLock()
	base, mem := mc.bases[key.ComputeKey()], mc.mems[key.MemKey()]
	mc.mu.RUnlock()
	for i, k := range kernels {
		if dst[i] != nil {
			continue
		}
		sp, err := c.ShapeProfileFrom(nn.KernelAt(k), base[k], mem[k])
		if err != nil {
			return err
		}
		dst[i] = sp
	}
	mc.mu.Lock()
	mc.insertLocked(key, kernels, dst)
	mc.mu.Unlock()
	return nil
}

// Len returns the number of cached profiles.
func (mc *MemoCache) Len() int {
	mc.mu.RLock()
	defer mc.mu.RUnlock()
	return mc.n
}

// Stats returns the lifetime hit and miss counters, counted per kernel.
func (mc *MemoCache) Stats() (hits, misses int64) {
	return mc.hits.Load(), mc.misses.Load()
}

// Evictions returns the number of profiles dropped by capacity eviction.
// Exported as cordobad_memo_evictions_total.
func (mc *MemoCache) Evictions() int64 {
	return mc.evictions.Load()
}
