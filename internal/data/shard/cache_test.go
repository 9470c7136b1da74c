package shard

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"torchgt/internal/graph"
)

// TestBlockCachePinnedEvictionWaitsForRelease: an evicted block that a
// reader still has pinned keeps its bytes until the release, and only then
// is its buffer handed to the next miss.
func TestBlockCachePinnedEvictionWaitsForRelease(t *testing.T) {
	c := newBlockCache(512, 512) // budget of one block
	k1, k2, k3 := blockKey{idx: 1}, blockKey{idx: 2}, blockKey{idx: 3}

	e1 := c.put(fill(c.alloc(k1, 512), 0xa1)) // pinned by alloc
	e2 := c.put(fill(c.alloc(k2, 512), 0xa2)) // evicts e1 while it is pinned
	if _, ok := c.get(k1); ok {
		t.Fatal("k1 still resident after eviction")
	}
	e3 := c.alloc(k3, 512)
	if e3 == e1 {
		t.Fatal("a pinned, evicted buffer was reused before its release")
	}
	if !bytes.Equal(e1.data, bytes.Repeat([]byte{0xa1}, 512)) {
		t.Fatal("a pinned, evicted block changed under its reader")
	}
	c.release(e1)
	if len(c.free) != 1 || c.free[0] != e1 {
		t.Fatalf("released evicted block not recycled: free list %d", len(c.free))
	}
	c.release(e2)
	c.put(fill(e3, 0xa3)) // evicts the unpinned e2: straight to the free list
	c.release(e3)
	if len(c.free) != 2 || c.free[1] != e2 {
		t.Fatalf("unpinned evicted block not recycled: free list %d", len(c.free))
	}
	if got := c.alloc(blockKey{idx: 4}, 512); got != e2 {
		t.Fatal("miss did not read into a recycled buffer")
	}
	if got := c.alloc(blockKey{idx: 5}, 100); got == e1 || len(got.data) != 100 {
		t.Fatal("a short tail block took a spare of another length")
	}
	if c.evictions.Load() != 2 || c.residentBytes() != 512 {
		t.Fatalf("evictions %d, resident %d", c.evictions.Load(), c.residentBytes())
	}
}

// TestBlockCacheDoubleLoadKeepsFirst: two readers that missed on the same
// block both load it; the first insert wins, the second reader gets the
// winner back pinned, and the loser's buffer is recycled.
func TestBlockCacheDoubleLoadKeepsFirst(t *testing.T) {
	c := newBlockCache(4<<10, 512)
	k := blockKey{seg: 3, idx: 7}
	first, second := fill(c.alloc(k, 512), 1), fill(c.alloc(k, 512), 2)
	if got := c.put(first); got != first {
		t.Fatal("first insert not kept")
	}
	if got := c.put(second); got != first {
		t.Fatal("double-load did not resolve to the first insert")
	}
	if p := first.pins; p != 3 || len(c.free) != 1 || c.free[0] != second {
		t.Fatalf("pins %d (two readers and the cache), free list %d: loser not recycled", p, len(c.free))
	}
	if c.residentBytes() != 512 || c.evictions.Load() != 0 {
		t.Fatalf("resident %d, evictions %d", c.residentBytes(), c.evictions.Load())
	}
	c.release(first)
	c.release(first)
	if len(c.free) != 1 {
		t.Fatal("a resident block was recycled")
	}
}

// TestBlockCacheSteadyMissAllocatesNothing: once the free list is primed, a
// miss-insert-release cycle that evicts one block allocates nothing.
func TestBlockCacheSteadyMissAllocatesNothing(t *testing.T) {
	c := newBlockCache(1<<10, 512)
	idx := int32(0)
	cycle := func() {
		idx++
		k := blockKey{idx: idx}
		if _, ok := c.get(k); ok {
			t.Fatal("unexpected hit")
		}
		c.release(c.put(c.alloc(k, 512)))
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state miss allocates %.1f times", allocs)
	}
}

// TestViewReadErrorRecyclesBuffer: a failing ReadAt sets the sticky error
// and hands its buffer back to the free list.
func TestViewReadErrorRecyclesBuffer(t *testing.T) {
	ds := testDataset(t, 200)
	v := openView(t, writeShards(t, ds, 2), Options{CacheBytes: 4 << 10, BlockBytes: 512})
	if err := v.shards[0].f.Close(); err != nil {
		t.Fatal(err)
	}
	feat := make([]float32, v.FeatDim())
	v.CopyFeatureRow(feat, 0) // the first feature block is a full one
	err := v.SourceErr()
	if err == nil || !strings.Contains(err.Error(), "read feat of shard 0") {
		t.Fatalf("SourceErr = %v, want the failed read", err)
	}
	if len(v.cache.free) != 1 || v.cache.residentBytes() != 0 {
		t.Fatalf("failed read: free list %d, resident %d", len(v.cache.free), v.cache.residentBytes())
	}
	if st := v.IOStats(); st.Misses != 1 || st.BytesRead != 0 {
		t.Fatalf("failed read counted as %+v", st)
	}
}

// TestViewIOStatsSweepPinned: a single-goroutine sweep over every accessor
// and a seeded random feature sweep gives exactly the hit, miss, eviction
// and byte counts of the LRU before it recycled buffers — recycling changes
// buffer ownership, never which blocks are read or kept.
func TestViewIOStatsSweepPinned(t *testing.T) {
	ds := testDataset(t, 600)
	v := openView(t, writeShards(t, ds, 4), Options{CacheBytes: 4 << 10, BlockBytes: 512})
	compareSources(t, ds, v, "sweep")
	rng := rand.New(rand.NewSource(5))
	feat := make([]float32, v.FeatDim())
	var adj []int32
	for k := 0; k < 3000; k++ {
		i := int32(rng.Intn(ds.G.N))
		v.CopyFeatureRow(feat, i)
		adj = v.AppendNeighbors(adj, i)
	}
	want := graph.IOStats{Hits: 5199, Misses: 8340, Evictions: 8332, BytesRead: 4061744, CachedBytes: 4096, BudgetBytes: 4 << 10}
	if st := v.IOStats(); st != want {
		t.Fatalf("I/O stats %+v, want %+v", st, want)
	}
}

func fill(e *blockEntry, b byte) *blockEntry {
	for i := range e.data {
		e.data[i] = b
	}
	return e
}

// BenchmarkShardReadMiss is a CopyFeatureRow sweep that misses on every call:
// a budget of one 512-byte block, and consecutive rows two blocks apart. CI
// holds it at 0 allocs/op — a miss reads into a recycled buffer.
func BenchmarkShardReadMiss(b *testing.B) {
	ds := testDataset(b, 1024)
	v := openView(b, writeShards(b, ds, 2), Options{CacheBytes: 512, BlockBytes: 512})
	feat := make([]float32, v.FeatDim())
	stride := int32(2 * 512 / (4 * v.FeatDim()))
	n := int32(v.NumNodes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.CopyFeatureRow(feat, int32(i)*stride%n)
	}
	b.StopTimer()
	if st := v.IOStats(); st.Hits != 0 || v.SourceErr() != nil {
		b.Fatalf("sweep hit the cache or failed: %+v", st)
	}
}
