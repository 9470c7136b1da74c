package serve

import (
	"sync"
	"sync/atomic"
)

// EgoCache is the shared ego-context cache: it memoises the deterministic
// BFS segment of a node so repeat queries skip the traversal and subgraph
// induction entirely. Entries are keyed by (graph version, context size,
// node) — the graph version is assigned per distinct graph identity, so one
// cache can safely back many servers, models and snapshot generations: a hot
// swap that keeps the same served graph keeps every warmed entry, while a
// dataset change gets a fresh key space instead of stale contexts.
//
// The hot path is allocation-free (pinned by BenchmarkEgoCacheHit): a hit is
// one RLock-ed map probe on a value-type key plus two atomic stores. Eviction
// is CLOCK (second chance): every hit marks its entry used; when an insert
// overflows the capacity, a sweep clears used marks and evicts unmarked
// entries, so sustained hits keep an entry resident without any bookkeeping
// allocation on the read side.
type EgoCache struct {
	cap int

	mu      sync.RWMutex
	entries map[ctxKey]*cacheEntry

	vmu   sync.Mutex
	vers  map[any]uint64 // graph identity (graph.NodeSource.GraphKey) → version
	nextV uint64

	hits, misses, evictions atomic.Int64
}

// ctxKey is the cache key: graph version, context size, node. A value type,
// so lookups allocate nothing.
type ctxKey struct {
	gver uint64
	size int32
	node int32
}

type cacheEntry struct {
	seg  *segment
	used atomic.Bool // CLOCK reference bit, set on every hit
}

// DefaultCacheCap is the entry capacity of a cache built with size ≤ 0.
const DefaultCacheCap = 1 << 16

// newEgoCache builds a shared ego-context cache holding up to capacity
// segments (≤ 0 means DefaultCacheCap).
func newEgoCache(capacity int) *EgoCache {
	if capacity <= 0 {
		capacity = DefaultCacheCap
	}
	return &EgoCache{
		cap:     capacity,
		entries: make(map[ctxKey]*cacheEntry),
		vers:    make(map[any]uint64),
	}
}

// versionOf returns the cache's stable version number for a graph identity
// (a source's GraphKey — the *graph.Graph pointer for in-memory datasets,
// the view pointer for shard-backed ones), assigning the next one on first
// sight. Two servers over the same graph share warmed entries; a different
// graph can never collide with them.
func (c *EgoCache) versionOf(key any) uint64 {
	c.vmu.Lock()
	defer c.vmu.Unlock()
	if v, ok := c.vers[key]; ok {
		return v
	}
	c.nextV++
	c.vers[key] = c.nextV
	return c.nextV
}

// get returns the cached segment for k, counting the probe as a hit or miss.
func (c *EgoCache) get(k ctxKey) (*segment, bool) {
	c.mu.RLock()
	e, ok := c.entries[k]
	c.mu.RUnlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	e.used.Store(true)
	c.hits.Add(1)
	return e.seg, true
}

// put inserts a freshly built segment, evicting via CLOCK sweep if the cache
// is over capacity. Like sync.Map.LoadOrStore, a concurrent first-builder
// race resolves to one canonical segment.
func (c *EgoCache) put(k ctxKey, seg *segment) *segment {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		return e.seg
	}
	c.entries[k] = &cacheEntry{seg: seg}
	for len(c.entries) > c.cap {
		var victim ctxKey
		found := false
		for key, e := range c.entries {
			if key == k {
				continue // never evict the entry being inserted
			}
			if !e.used.Load() {
				victim, found = key, true
				break
			}
			e.used.Store(false) // second chance spent
		}
		if !found {
			for key := range c.entries {
				if key != k {
					victim, found = key, true
					break
				}
			}
		}
		if !found {
			break // capacity 1 and only the new entry present
		}
		delete(c.entries, victim)
		c.evictions.Add(1)
	}
	return seg
}

// CacheStats snapshots the cache counters.
type CacheStats struct {
	Hits      int64 // lookups answered without BFS
	Misses    int64 // lookups that had to build the segment
	Evictions int64 // entries removed by the CLOCK sweep
	Size      int   // resident entries
	Cap       int   // configured capacity
}

// Stats snapshots the cache counters.
func (c *EgoCache) Stats() CacheStats {
	c.mu.RLock()
	size := len(c.entries)
	c.mu.RUnlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Size:      size,
		Cap:       c.cap,
	}
}
