package torchgt

import (
	"path/filepath"
	"testing"
)

// TestShardPublicSurface drives the out-of-core workflow end to end through
// the public API: shard a dataset, read the manifest back, open it
// disk-resident, check I/O accounting, train with ego sampling and serve —
// everything bitwise-consistent with the in-memory arrays.
func TestShardPublicSurface(t *testing.T) {
	ds := loadNode(t, "arxiv-sim", 220, 5)
	dir := filepath.Join(t.TempDir(), "shards")
	man, err := ShardNodeDataset(dir, ds, 3)
	if err != nil {
		t.Fatalf("ShardNodeDataset: %v", err)
	}
	if int(man.NumNodes) != ds.G.N || len(man.Shards) != 3 {
		t.Fatalf("manifest: %d nodes / %d shards", man.NumNodes, len(man.Shards))
	}
	for _, g := range man.Shards[0].Segments {
		if g.KindName() == "" {
			t.Fatalf("segment kind %d has no name", g.Kind)
		}
	}

	src, err := OpenNodeSource("shard://" + dir + "?cache=32KiB&block=2KiB")
	if err != nil {
		t.Fatalf("OpenNodeSource: %v", err)
	}
	if src.NumNodes() != ds.G.N || src.FeatDim() != ds.X.Cols {
		t.Fatal("shard source header disagrees with the dataset")
	}
	if src.GraphKey() == nil {
		t.Fatal("shard source has no graph identity for the ego cache")
	}
	if _, ok := DatasetIOStatsOf(src); !ok {
		t.Fatal("shard source reports no I/O stats")
	}
	if _, ok := DatasetIOStatsOf((&Dataset{Node: ds}).Source()); ok {
		t.Fatal("in-memory source claims I/O stats")
	}

	// Dataset.Materialize reconstructs the arrays from the shards.
	sd, err := OpenDataset("shard://" + dir)
	if err != nil {
		t.Fatal(err)
	}
	md, err := sd.Materialize()
	if err != nil {
		t.Fatalf("Materialize(shard): %v", err)
	}
	if md.Node.G.N != ds.G.N || md.Node.X.Rows != ds.X.Rows {
		t.Fatal("materialized dataset has wrong shape")
	}
	for i := range ds.X.Data {
		if md.Node.X.Data[i] != ds.X.Data[i] {
			t.Fatalf("materialized features diverge at %d", i)
		}
	}

	// Ego training lands on the same trajectory over either backing.
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 6)
	cfg.Layers = 1
	cfg.Heads = 2
	egoRun := func(task TaskSpec) *Result {
		t.Helper()
		ego, err := task.Ego()
		if err != nil {
			t.Fatal(err)
		}
		_, res := runSession(t, MethodGPSparse, cfg, ego, WithEpochs(1), WithSeed(7), WithSeqLen(12), WithBatchSize(16))
		return res
	}
	shardTask, err := TaskFromSpec("shard://" + dir + "?cache=32KiB&block=2KiB")
	if err != nil {
		t.Fatal(err)
	}
	memRes, shardRes := egoRun(NodeTask(ds)), egoRun(shardTask)
	if memRes.FinalTestAcc != shardRes.FinalTestAcc {
		t.Fatalf("ego training diverged across backings: %v vs %v",
			memRes.FinalTestAcc, shardRes.FinalTestAcc)
	}
	if st, _ := DatasetIOStatsOf(shardTask.Data().Stream); st.Misses == 0 {
		t.Fatalf("training drove no I/O: %+v", st)
	}

	// Serving over the disk-resident source answers like the in-memory one.
	snap, err := Freeze(NewGraphTransformer(cfg))
	if err != nil {
		t.Fatal(err)
	}
	memSrv, err := NewServer(snap, ds, ServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer memSrv.Close()
	shardSrv, err := NewServerSource(snap, src, ServeOptions{Workers: 1})
	if err != nil {
		t.Fatalf("NewServerSource: %v", err)
	}
	defer shardSrv.Close()
	a := memSrv.PredictBatch([]int32{0, 17, 101, 219})
	b := shardSrv.PredictBatch([]int32{0, 17, 101, 219})
	for i := range a {
		if a[i].Class != b[i].Class {
			t.Fatalf("node %d classified %d in memory, %d over shards",
				a[i].Node, a[i].Class, b[i].Class)
		}
	}

	// Misuse errors stay descriptive.
	if _, err := ShardNodeDataset(dir, nil, 2); err == nil {
		t.Fatal("ShardNodeDataset accepted a nil dataset")
	}
	if _, err := OpenDataset("shard://" + filepath.Join(dir, "nope")); err == nil {
		t.Fatal("OpenDataset accepted a missing shard directory")
	}
}
