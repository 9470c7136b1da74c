package sample

import (
	"path/filepath"
	"runtime"
	"testing"

	"torchgt/internal/data/shard"
	"torchgt/internal/graph"
)

func testSource(t testing.TB) (*graph.NodeDataset, graph.NodeSource) {
	t.Helper()
	ds, err := graph.LoadNodeScaled("arxiv-sim", 600, 13)
	if err != nil {
		t.Fatalf("LoadNodeScaled: %v", err)
	}
	return ds, graph.SourceOf(ds)
}

// snapshot is a deep copy of a Context's outputs, safe to retain past the
// pipeline callback.
type snapshot struct {
	target, label  int32
	serial         uint64
	nodes          []int32
	rowPtr, colIdx []int32
	x              []float32
	degIn, degOut  []int32
}

func snap(c *Context) snapshot {
	return snapshot{
		target: c.Target, label: c.Label, serial: c.Serial,
		nodes:  append([]int32(nil), c.Nodes...),
		rowPtr: append([]int32(nil), c.Sub.RowPtr...),
		colIdx: append([]int32(nil), c.Sub.ColIdx...),
		x:      append([]float32(nil), c.X.Data[:c.X.Rows*c.X.Cols]...),
		degIn:  append([]int32(nil), c.DegIn...),
		degOut: append([]int32(nil), c.DegOut...),
	}
}

func equalSnap(a, b snapshot) bool {
	if a.target != b.target || a.label != b.label || a.serial != b.serial {
		return false
	}
	eq32 := func(x, y []int32) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !eq32(a.nodes, b.nodes) || !eq32(a.rowPtr, b.rowPtr) || !eq32(a.colIdx, b.colIdx) ||
		!eq32(a.degIn, b.degIn) || !eq32(a.degOut, b.degOut) {
		return false
	}
	if len(a.x) != len(b.x) {
		return false
	}
	for i := range a.x {
		if a.x[i] != b.x[i] {
			return false
		}
	}
	return true
}

func runPipeline(t *testing.T, src graph.NodeSource, workers int, targets []int32) []snapshot {
	t.Helper()
	s := New(src, Config{MaxSize: 24, Seed: 42, Workers: workers})
	var got []snapshot
	if err := NewPipeline(s).Each(targets, 100, func(c *Context) {
		got = append(got, snap(c))
	}); err != nil {
		t.Fatalf("workers=%d: Each: %v", workers, err)
	}
	return got
}

// TestPipelineDeterministicAcrossWorkers pins the core contract: the sampled
// ego-contexts are bitwise-identical and delivered in submission order for
// every worker count.
func TestPipelineDeterministicAcrossWorkers(t *testing.T) {
	ds, src := testSource(t)
	targets := make([]int32, 200)
	for i := range targets {
		targets[i] = int32((i * 7) % ds.G.N)
	}
	ref := runPipeline(t, src, 0, targets)
	if len(ref) != len(targets) {
		t.Fatalf("delivered %d contexts, want %d", len(ref), len(targets))
	}
	for i, g := range ref {
		if g.target != targets[i] || g.serial != 100+uint64(i) {
			t.Fatalf("out-of-order delivery at %d: target %d serial %d", i, g.target, g.serial)
		}
	}
	for _, workers := range []int{1, 2, 4, 7} {
		got := runPipeline(t, src, workers, targets)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d delivered %d contexts, want %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if !equalSnap(ref[i], got[i]) {
				t.Fatalf("workers=%d: context %d differs from synchronous run", workers, i)
			}
		}
	}
}

// TestPipelineOrderUnderContention stresses the delivery-order invariant
// with far more workers than runnable threads, so workers are routinely
// descheduled between claiming a sample and sending it. A pipeline that
// claimed the index before acquiring a pooled context could be lapped here
// (another worker wrapping the slot ring while one claim is stalled) and
// deliver a later sample in an earlier position.
func TestPipelineOrderUnderContention(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ds, src := testSource(t)
	targets := make([]int32, 20000)
	for i := range targets {
		targets[i] = int32((i * 13) % ds.G.N)
	}
	s := New(src, Config{MaxSize: 8, Seed: 5, Workers: 16})
	i := 0
	err := NewPipeline(s).Each(targets, 7, func(c *Context) {
		if c.Target != targets[i] || c.Serial != 7+uint64(i) {
			t.Fatalf("position %d: got target %d serial %d, want %d/%d",
				i, c.Target, c.Serial, targets[i], 7+uint64(i))
		}
		i++
	})
	if err != nil {
		t.Fatalf("Each: %v", err)
	}
	if i != len(targets) {
		t.Fatalf("delivered %d samples, want %d", i, len(targets))
	}
}

// TestPipelineReusedAcrossCalls: one Pipeline serving call after call — as the
// ego trainer drives it, one Each per optimiser step, lengths from a single
// target (the synchronous path) to several laps of the slot ring — delivers
// what a fresh pipeline per call delivers, out of the same 2·Workers
// contexts every time.
func TestPipelineReusedAcrossCalls(t *testing.T) {
	ds, src := testSource(t)
	for _, workers := range []int{0, 1, 3} {
		s := New(src, Config{MaxSize: 24, Seed: 42, Workers: workers})
		p := NewPipeline(s)
		pooled := map[*Context]bool{}
		serial := uint64(100)
		for call, n := range []int{1, 40, 2, 0, 7, 1, 23} {
			targets := make([]int32, n)
			for i := range targets {
				targets[i] = int32((call*31 + i*7) % ds.G.N)
			}
			var got, want []snapshot
			if err := p.Each(targets, serial, func(c *Context) {
				pooled[c] = true
				got = append(got, snap(c))
			}); err != nil {
				t.Fatal(err)
			}
			if err := NewPipeline(s).Each(targets, serial, func(c *Context) { want = append(want, snap(c)) }); err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("workers=%d call %d: delivered %d of %d", workers, call, len(got), n)
			}
			for i := range want {
				if !equalSnap(want[i], got[i]) {
					t.Fatalf("workers=%d call %d: context %d differs from a fresh pipeline's", workers, call, i)
				}
			}
			serial += uint64(n)
		}
		if limit := max(2*workers, 1); len(pooled) > limit {
			t.Fatalf("workers=%d: %d distinct contexts over the calls, pool is %d", workers, len(pooled), limit)
		}
	}
}

// TestPipelineShardBackingBitwise: sampling over a sharded view with a tight
// cache budget produces bitwise the same ego-contexts as the in-memory
// source — the whole point of the out-of-core path.
func TestPipelineShardBackingBitwise(t *testing.T) {
	ds, src := testSource(t)
	dir := filepath.Join(t.TempDir(), "shards")
	if _, err := shard.Write(dir, ds, 3); err != nil {
		t.Fatalf("shard.Write: %v", err)
	}
	v, err := shard.Open(dir, shard.Options{CacheBytes: 32 << 10, BlockBytes: 1 << 10})
	if err != nil {
		t.Fatalf("shard.Open: %v", err)
	}
	defer v.Close()

	targets := make([]int32, 150)
	for i := range targets {
		targets[i] = int32((i * 11) % ds.G.N)
	}
	ref := runPipeline(t, src, 0, targets)
	got := runPipeline(t, v, 4, targets)
	for i := range ref {
		if !equalSnap(ref[i], got[i]) {
			t.Fatalf("context %d: shard-backed sample differs from in-memory", i)
		}
	}
	st := v.IOStats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("expected cache traffic on the shard backing, got %+v", st)
	}
}

// TestSampleBounds: MaxSize caps the ego size, the target always leads, and
// nodes are unique.
func TestSampleBounds(t *testing.T) {
	ds, src := testSource(t)
	s := New(src, Config{MaxSize: 16, Seed: 1})
	c := s.NewContext()
	for target := int32(0); target < int32(ds.G.N); target += 23 {
		s.Sample(c, target, uint64(target))
		if len(c.Nodes) == 0 || len(c.Nodes) > 16 {
			t.Fatalf("target %d: ego size %d outside (0, 16]", target, len(c.Nodes))
		}
		if c.Nodes[0] != target {
			t.Fatalf("target %d not at position 0", target)
		}
		seen := map[int32]bool{}
		for _, n := range c.Nodes {
			if seen[n] {
				t.Fatalf("target %d: duplicate node %d", target, n)
			}
			seen[n] = true
		}
		if c.Sub.N != len(c.Nodes) || c.X.Rows != len(c.Nodes) {
			t.Fatalf("target %d: subgraph %d / features %d rows vs %d nodes",
				target, c.Sub.N, c.X.Rows, len(c.Nodes))
		}
		if c.Label != ds.Y[target] {
			t.Fatalf("target %d: label %d, want %d", target, c.Label, ds.Y[target])
		}
	}
}

// BenchmarkSampleSteady is the CI-gated allocation ceiling for the sampling
// hot path: one reused context, repeated samples over a shard-backed view.
func BenchmarkSampleSteady(b *testing.B) {
	ds, err := graph.LoadNodeScaled("arxiv-sim", 600, 13)
	if err != nil {
		b.Fatalf("LoadNodeScaled: %v", err)
	}
	dir := filepath.Join(b.TempDir(), "shards")
	if _, err := shard.Write(dir, ds, 3); err != nil {
		b.Fatalf("shard.Write: %v", err)
	}
	v, err := shard.Open(dir, shard.Options{CacheBytes: 1 << 20, BlockBytes: 8 << 10})
	if err != nil {
		b.Fatalf("shard.Open: %v", err)
	}
	defer v.Close()
	s := New(v, Config{MaxSize: 32, Seed: 7})
	c := s.NewContext()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(c, int32(i%ds.G.N), uint64(i))
	}
}
