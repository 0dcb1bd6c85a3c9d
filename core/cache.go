package core

import (
	"math"
	"sync"
	"sync/atomic"
)

// resolveKey identifies one Equation 1 fixed point: the full Spec plus the
// calibration Params. Both are flat comparable structs, so the pair is a
// valid map key and two keys are equal exactly when Resolve would do the
// identical computation.
type resolveKey struct {
	Spec   Spec
	Params Params
}

// resolveEntry caches Resolve's full result, error included (validation and
// convergence failures are as deterministic as successes).
type resolveEntry struct {
	d   Design
	err error
}

// resolveShardCount is how many independently locked shards the cache
// spreads across, so concurrent sweep workers do not serialize on one mutex.
const resolveShardCount = 16

// maxResolveEntriesPerShard bounds memory: a full shard is cleared before
// inserting (wholesale eviction — the sweeps that refill it are exactly the
// workloads that hit it). ~4k entries/shard x 16 shards x ~350 B/entry stays
// around 20 MB worst case.
var maxResolveEntriesPerShard = 4096

type resolveCacheShard struct {
	mu sync.RWMutex
	m  map[resolveKey]resolveEntry
}

type resolveCacheT struct {
	shards [resolveShardCount]resolveCacheShard
	hits   atomic.Uint64
	misses atomic.Uint64
}

var resolveCache resolveCacheT

// shardFor hashes the key's most variable fields (the grid axes) into a
// shard index.
func (c *resolveCacheT) shardFor(k resolveKey) *resolveCacheShard {
	h := math.Float64bits(k.Spec.CapacityMah)
	h = h*31 + math.Float64bits(k.Spec.WheelbaseMM)
	h = h*31 + math.Float64bits(k.Spec.PayloadG)
	h = h*31 + math.Float64bits(k.Spec.TWR)
	h = h*31 + math.Float64bits(k.Spec.Compute.PowerW)
	h = h*31 + math.Float64bits(k.Spec.SensorsG)
	h = h*31 + uint64(k.Spec.Cells)
	h ^= h >> 33
	return &c.shards[h%resolveShardCount]
}

// ResolveCached is Resolve behind a process-wide concurrency-safe
// memoization cache keyed on (Spec, Params). The grid sweeps (BestConfig,
// the Pareto frontiers, the figure generators) revisit identical fixed
// points thousands of times; the cache collapses each distinct point to one
// computation. Resolve is pure, so the returned Design is identical to an
// uncached call.
func ResolveCached(spec Spec, p Params) (Design, error) {
	k := resolveKey{Spec: spec, Params: p}
	s := resolveCache.shardFor(k)

	s.mu.RLock()
	e, ok := s.m[k]
	s.mu.RUnlock()
	if ok {
		resolveCache.hits.Add(1)
		return e.d, e.err
	}
	resolveCache.misses.Add(1)

	d, err := Resolve(spec, p)

	s.mu.Lock()
	if s.m == nil || len(s.m) >= maxResolveEntriesPerShard {
		s.m = make(map[resolveKey]resolveEntry, maxResolveEntriesPerShard/4)
	}
	s.m[k] = resolveEntry{d: d, err: err}
	s.mu.Unlock()
	return d, err
}

// ResolveCacheStats reports cumulative cache behavior: hits, misses, and the
// current number of resident entries.
func ResolveCacheStats() (hits, misses uint64, entries int) {
	for i := range resolveCache.shards {
		s := &resolveCache.shards[i]
		s.mu.RLock()
		entries += len(s.m)
		s.mu.RUnlock()
	}
	return resolveCache.hits.Load(), resolveCache.misses.Load(), entries
}

// ResetResolveCache drops every cached entry and zeroes the counters
// (benchmarks use it to measure cold and warm paths separately).
func ResetResolveCache() {
	for i := range resolveCache.shards {
		s := &resolveCache.shards[i]
		s.mu.Lock()
		s.m = nil
		s.mu.Unlock()
	}
	resolveCache.hits.Store(0)
	resolveCache.misses.Store(0)
}
