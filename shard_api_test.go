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
	loaded, err := LoadShardManifest(dir)
	if err != nil {
		t.Fatalf("LoadShardManifest: %v", err)
	}
	if loaded.NumNodes != man.NumNodes || loaded.NumEdges != man.NumEdges {
		t.Fatalf("reloaded manifest disagrees: %+v vs %+v", loaded, man)
	}
	for _, g := range loaded.Shards[0].Segments {
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
	ego := EgoConfig{Epochs: 1, Seed: 7, MaxSize: 12, Batch: 16}
	memRes, err := TrainNodeEgoSource(cfg, (&Dataset{Node: ds}).Source(), ego)
	if err != nil {
		t.Fatalf("TrainNodeEgoSource(memory): %v", err)
	}
	ego.Workers = 4
	shardRes, err := TrainNodeEgoSource(cfg, src, ego)
	if err != nil {
		t.Fatalf("TrainNodeEgoSource(shard): %v", err)
	}
	if memRes.FinalTestAcc != shardRes.FinalTestAcc {
		t.Fatalf("ego training diverged across backings: %v vs %v",
			memRes.FinalTestAcc, shardRes.FinalTestAcc)
	}
	if st, _ := DatasetIOStatsOf(src); st.Misses == 0 {
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
	if _, err := LoadShardManifest(filepath.Join(dir, "nope")); err == nil {
		t.Fatal("LoadShardManifest accepted a missing directory")
	}
}
