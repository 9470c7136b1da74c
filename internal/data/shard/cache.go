package shard

import (
	"sync"
	"sync/atomic"
)

// blockCache is the byte-budgeted LRU over fixed-size segment blocks that
// backs the pread I/O mode. Keys are (segment id, block index) — blocks are
// addressed within a segment, never across one, so a block boundary is
// always 8-byte aligned with the segment payload and a 4-byte element never
// straddles two blocks.
//
// The cache owns its buffers. A block handed out by get or put is pinned
// while its reader decodes it (View.segRead releases the pin once visit
// returns; no caller keeps the slice), and residency is one more pin.
// Eviction drops the cache's pin; whoever drops the last one — the evicting
// insert or the last reader — puts the buffer on a free list of at most
// maxFreeBlocks spares, and a miss reads into a spare of its length. So a
// steady-state miss costs one pread and no allocation, and resident plus
// spare bytes stay within the budget plus maxFreeBlocks blocks, with at
// most one more pinned block per concurrent reader.
//
// The counters (hits/misses/evictions/bytes) are the observable side of the
// out-of-core contract — exposed through View.IOStats into serve /metrics
// and the CLI training stats.
type blockCache struct {
	budget    int64
	blockSize int

	mu    sync.Mutex
	m     map[blockKey]*blockEntry
	lru   blockEntry // sentinel of the LRU ring: lru.next = most recent
	bytes int64
	free  []*blockEntry // unpinned spare buffers, oldest first

	hits, misses, evictions atomic.Int64
}

// maxFreeBlocks bounds the free list: enough spares for the readers that
// miss at once (serve and sampling-pipeline workers) plus the tail blocks
// of the small segments, which are shorter than a block.
const maxFreeBlocks = 8

type blockKey struct {
	seg uint32 // shard index × maxSegsPerShard + segment kind
	idx int32  // block index within the segment
}

// blockEntry is one block buffer. pins counts its readers, plus one while
// it is resident; pins and the LRU links are guarded by the cache mutex.
type blockEntry struct {
	key        blockKey
	data       []byte
	pins       int32
	prev, next *blockEntry
}

func newBlockCache(budget int64, blockSize int) *blockCache {
	c := &blockCache{
		budget:    budget,
		blockSize: blockSize,
		m:         make(map[blockKey]*blockEntry),
		free:      make([]*blockEntry, 0, maxFreeBlocks),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

func (c *blockCache) unlink(e *blockEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *blockCache) pushFront(e *blockEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

// get returns the cached block pinned, counting the probe.
func (c *blockCache) get(k blockKey) (*blockEntry, bool) {
	c.mu.Lock()
	e, ok := c.m[k]
	if ok {
		c.unlink(e)
		c.pushFront(e)
		e.pins++
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e, true
}

// alloc returns a pinned, non-resident buffer of n bytes for a miss to read
// into: the newest spare of that length, else a new one.
func (c *blockCache) alloc(k blockKey, n int) *blockEntry {
	var e *blockEntry
	c.mu.Lock()
	for i := len(c.free) - 1; i >= 0; i-- {
		if len(c.free[i].data) == n {
			e = c.free[i]
			c.free = append(c.free[:i], c.free[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	if e == nil {
		e = &blockEntry{data: make([]byte, n)}
	}
	e.key, e.pins = k, 1
	return e
}

// put inserts a freshly loaded block (pinned by alloc) and evicts
// least-recently-used blocks until the byte budget holds again (the inserted
// block always stays — a budget smaller than one block degrades to
// single-block residency, it never deadlocks). A concurrent double-load
// resolves to the first insert: the loser's buffer is recycled and the
// winner comes back pinned instead.
func (c *blockCache) put(e *blockEntry) *blockEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.m[e.key]; ok {
		c.unlink(old)
		c.pushFront(old)
		old.pins++
		c.unpin(e)
		return old
	}
	c.m[e.key] = e
	e.pins++ // the cache's own pin
	c.pushFront(e)
	c.bytes += int64(len(e.data))
	for c.bytes > c.budget && c.lru.prev != c.lru.next {
		back := c.lru.prev
		c.unlink(back)
		delete(c.m, back.key)
		c.bytes -= int64(len(back.data))
		c.evictions.Add(1)
		c.unpin(back)
	}
	return e
}

// release drops a reader's pin (taken by get, alloc or put).
func (c *blockCache) release(e *blockEntry) {
	c.mu.Lock()
	c.unpin(e)
	c.mu.Unlock()
}

// unpin drops one pin under c.mu and recycles the buffer with the last.
func (c *blockCache) unpin(e *blockEntry) {
	e.pins--
	if e.pins == 0 {
		c.recycle(e)
	}
}

// recycle makes an unpinned, evicted buffer the newest spare, dropping the
// oldest one to the collector when the list is full. Called under c.mu.
func (c *blockCache) recycle(e *blockEntry) {
	if len(c.free) == maxFreeBlocks {
		copy(c.free, c.free[1:])
		c.free = c.free[:maxFreeBlocks-1]
	}
	c.free = append(c.free, e)
}

// residentBytes reports the current cache size.
func (c *blockCache) residentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
