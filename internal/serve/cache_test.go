package serve

import (
	"context"
	"testing"

	"torchgt/internal/graph"
)

// sharedServer builds a server over ds whose contexts live in cache — the
// wiring a Registry gives every generation it builds.
func sharedServer(t *testing.T, snap *Snapshot, ds *graph.NodeDataset, opts Options, cache *EgoCache) *Server {
	t.Helper()
	s, err := newServer(snap, graph.SourceOf(ds), opts, cache)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestEgoCacheHitMissEviction exercises the counters and the CLOCK sweep on
// a deliberately tiny cache.
func TestEgoCacheHitMissEviction(t *testing.T) {
	ds := testDataset(192, 80)
	snap := testSnapshot(t, ds, 81)
	s := mustServer(t, snap, ds, Options{Workers: 1, CacheCap: 4})
	cache := s.Cache()

	// First touch of each node is a miss; repeat touches are hits.
	for _, n := range []int32{0, 1, 2} {
		s.segmentFor(n)
	}
	st := cache.Stats()
	if st.Misses != 3 || st.Hits != 0 || st.Size != 3 {
		t.Fatalf("after cold fills: %+v", st)
	}
	a := s.segmentFor(1)
	st = cache.Stats()
	if st.Hits != 1 || st.Misses != 3 {
		t.Fatalf("after warm probe: %+v", st)
	}

	// Overflow the capacity: the sweep must evict, the size stay bounded,
	// and a rebuilt segment must equal the evicted one (pure function).
	for n := int32(3); n < 20; n++ {
		s.segmentFor(n)
	}
	st = cache.Stats()
	if st.Size > 4 {
		t.Fatalf("cache exceeded capacity: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("overflow produced no evictions: %+v", st)
	}
	b := s.segmentFor(1) // likely evicted and rebuilt — must be identical
	if len(a.nodes) != len(b.nodes) {
		t.Fatal("rebuilt segment differs from original")
	}
	for i := range a.nodes {
		if a.nodes[i] != b.nodes[i] {
			t.Fatal("rebuilt segment differs from original")
		}
	}
}

// TestEgoCacheKeysByContextShape: the same node under different CtxSize
// options must occupy distinct entries — sharing a cache across differently
// configured servers cannot alias their contexts.
func TestEgoCacheKeysByContextShape(t *testing.T) {
	ds := testDataset(192, 82)
	snap := testSnapshot(t, ds, 83)
	cache := newEgoCache(0)
	wide := sharedServer(t, snap, ds, Options{Workers: 1, CtxSize: 32}, cache)
	tiny := sharedServer(t, snap, ds, Options{Workers: 1, CtxSize: 2}, cache)

	a := wide.segmentFor(5)
	b := tiny.segmentFor(5)
	if len(b.nodes) > 2 || len(a.nodes) <= len(b.nodes) {
		t.Fatalf("context sizes aliased: wide=%d tiny=%d nodes", len(a.nodes), len(b.nodes))
	}
	if cache.Stats().Misses != 2 {
		t.Fatalf("expected two distinct cold fills, got %+v", cache.Stats())
	}
}

// TestEgoCacheVersionsByGraph: two different graphs through one shared cache
// get distinct versions, so equal node ids never collide.
func TestEgoCacheVersionsByGraph(t *testing.T) {
	cache := newEgoCache(0)
	ds1 := testDataset(96, 84)
	ds2 := testDataset(96, 85)
	v1 := cache.versionOf(ds1.G)
	v2 := cache.versionOf(ds2.G)
	if v1 == v2 {
		t.Fatal("distinct graphs share a cache version")
	}
	if cache.versionOf(ds1.G) != v1 {
		t.Fatal("cache version not stable for the same graph")
	}
}

// TestEgoCacheSurvivesHotSwap pins the headline property: a hot swap over
// the same served graph keeps every warmed ego context — repeat queries
// after the swap are cache hits, not fresh BFS runs.
func TestEgoCacheSurvivesHotSwap(t *testing.T) {
	ds := testDataset(128, 86)
	r := testRegistry(t, ds, ModelOptions{Serve: Options{Workers: 1}})
	if _, err := r.Publish("m", testSnapshot(t, ds, 87)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Swap("m", 0); err != nil {
		t.Fatal(err)
	}
	if resp := r.Predict(context.Background(), "m", 7); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	missesWarm := r.Cache().Stats().Misses

	if _, err := r.Publish("m", testSnapshot(t, ds, 88)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Swap("m", 0); err != nil {
		t.Fatal(err)
	}
	resp := r.Predict(context.Background(), "m", 7)
	if resp.Err != nil || resp.Gen != 2 {
		t.Fatalf("post-swap predict: gen=%d err=%v", resp.Gen, resp.Err)
	}
	st := r.Cache().Stats()
	if st.Misses != missesWarm {
		t.Fatalf("hot swap lost warmed contexts: misses %d → %d", missesWarm, st.Misses)
	}
	if st.Hits == 0 {
		t.Fatal("post-swap repeat query did not hit the cache")
	}
	waitFor(t, "drain", func() bool { return r.Stats().Draining == 0 })
}
