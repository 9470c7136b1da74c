package serve

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"torchgt/internal/data/shard"
	"torchgt/internal/graph"
	"torchgt/internal/tensor"
)

// Serving-path benchmarks for the CI benchmark-regression gate: allocs/op of
// a warm PredictBatch measures how much per-request garbage the batch
// builder + pooled forward pass generate. tensor workers are pinned to 1 so
// the numbers count buffers, not goroutine launches (same convention as the
// attention alloc benchmarks).

// benchServer builds a one-worker engine (maxBatch 0 keeps the default) and
// warms it with one PredictBatch of batch nodes. Callers pin tensor workers
// to 1 first, so each replica's plan runs its heads in order.
func benchServer(b *testing.B, batch, maxBatch int) (*Server, []int32) {
	b.Helper()
	ds := testDataset(256, 41)
	snap := testSnapshot(b, ds, 42)
	s, err := NewServer(snap, ds, Options{Workers: 1, MaxBatch: maxBatch})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	nodes := make([]int32, batch)
	for i := range nodes {
		nodes[i] = int32((i * 37) % ds.G.N)
	}
	s.PredictBatch(nodes) // warm up the workspace pools
	return s, nodes
}

func benchPredictBatch(b *testing.B, batch int) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	s, nodes := benchServer(b, batch, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := s.PredictBatch(nodes)
		if rs[0].Err != nil {
			b.Fatal(rs[0].Err)
		}
	}
}

func BenchmarkServeBatch1(b *testing.B)  { benchPredictBatch(b, 1) }
func BenchmarkServeBatch8(b *testing.B)  { benchPredictBatch(b, 8) }
func BenchmarkServeBatch32(b *testing.B) { benchPredictBatch(b, 32) }

// BenchmarkServeBatch8Full runs BenchmarkServeBatch8's built batch through a
// forward without Targets: every row through every layer, the work a served
// batch did before the forward was pruned to the targets' receptive field.
// CI gates BenchmarkServeBatch8/BenchmarkServeBatch8Full, which holds the
// whole served request — batch build included — below the bare full forward.
func BenchmarkServeBatch8Full(b *testing.B) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	s, nodes := benchServer(b, 8, 8)
	m, err := s.snap.Materialize()
	if err != nil {
		b.Fatal(err)
	}
	batch, err := s.buildBatch(nodes)
	if err != nil {
		b.Fatal(err)
	}
	batch.in.Targets = nil
	m.Forward(batch.in, batch.spec, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(batch.in, batch.spec, false)
	}
}

// BenchmarkServePredictIdle is one Predict through the scheduler on an idle
// engine at the default MaxBatch and MaxDelay: a lone request must cost about
// one batch-1 forward (BenchmarkServeBatch1), not that plus MaxDelay of
// waiting for company that is not coming. CI gates the ratio of the two.
func BenchmarkServePredictIdle(b *testing.B) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	s, nodes := benchServer(b, 1, 0)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := s.Predict(ctx, nodes[0]); r.Err != nil {
			b.Fatal(r.Err)
		}
	}
}

// benchCold serves cold 16-node batches at the ego-shard benchmark's
// geometry: arxiv-sim at 8192 nodes, a 512-node request pool cycled through
// a 64-entry ego cache (so every context is rebuilt), one tensor worker.
// With shards set the source is an 8-way shard view through a 256 KiB cache
// of 16 KiB blocks, and KiB_read/op reports its disk traffic per batch; else
// it is the in-memory dataset. One pass over the pool warms the pools first.
func benchCold(b *testing.B, shards bool) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	ds, err := graph.LoadNodeScaled("arxiv-sim", 8192, 1)
	if err != nil {
		b.Fatal(err)
	}
	var src graph.NodeSource = graph.SourceOf(ds)
	var view *shard.View
	if shards {
		dir := filepath.Join(b.TempDir(), "shards")
		if _, err := shard.Write(dir, ds, 8); err != nil {
			b.Fatal(err)
		}
		if view, err = shard.Open(dir, shard.Options{CacheBytes: 256 << 10, BlockBytes: 16 << 10}); err != nil {
			b.Fatal(err)
		}
		defer view.Close()
		src = view
	}
	s, err := NewServerSource(testSnapshot(b, ds, 48), src, Options{Workers: 1, MaxBatch: 16, CacheCap: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	pool := rand.New(rand.NewSource(49)).Perm(ds.G.N)[:512]
	batch := make([]int32, 16)
	serve := func(i int) {
		for j := range batch {
			batch[j] = int32(pool[(i*16+j)%len(pool)])
		}
		if rs := s.PredictBatch(batch); rs[0].Err != nil {
			b.Fatal(rs[0].Err)
		}
	}
	for i := 0; i < len(pool)/16; i++ {
		serve(i)
	}
	var read0 int64
	if view != nil {
		read0 = view.IOStats().BytesRead
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(i)
	}
	b.StopTimer()
	if view != nil {
		b.ReportMetric(float64(view.IOStats().BytesRead-read0)/1024/float64(b.N), "KiB_read/op")
	}
}

// BenchmarkServeBatch16Cold is the shard-backed cold batch; CI gates its
// allocs and its ratio to BenchmarkServeBatch16ColdMem, the same batches over
// the in-memory dataset.
func BenchmarkServeBatch16Cold(b *testing.B)    { benchCold(b, true) }
func BenchmarkServeBatch16ColdMem(b *testing.B) { benchCold(b, false) }

// BenchmarkEgoCacheHit measures the warm ego-context lookup — the hot path a
// repeat query takes instead of a BFS rebuild. The contract (enforced by the
// CI benchmark gate) is that cache hits are allocation-free.
func BenchmarkEgoCacheHit(b *testing.B) {
	ds := testDataset(256, 44)
	snap := testSnapshot(b, ds, 45)
	s, err := NewServer(snap, ds, Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	s.segmentFor(7) // cold fill
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if seg := s.segmentFor(7); seg == nil {
			b.Fatal("nil segment")
		}
	}
	if s.cache.Stats().Hits < int64(b.N) {
		b.Fatal("benchmark loop did not hit the cache")
	}
}

// BenchmarkRegistrySwap measures one full hot swap: spin up the replacement
// replica pool from the published snapshot, flip the active generation, and
// drain + close the old pool in the background.
func BenchmarkRegistrySwap(b *testing.B) {
	ds := testDataset(256, 46)
	r := NewRegistry(0)
	b.Cleanup(func() { r.Close() })
	if err := r.Register("m", ds, ModelOptions{Serve: Options{Workers: 1}}); err != nil {
		b.Fatal(err)
	}
	if _, err := r.Publish("m", testSnapshot(b, ds, 47)); err != nil {
		b.Fatal(err)
	}
	if _, err := r.Swap("m", 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Swap("m", 1); err != nil {
			b.Fatal(err)
		}
	}
}
