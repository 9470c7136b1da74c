package train

import (
	"path/filepath"
	"testing"

	"torchgt/internal/data/shard"
	"torchgt/internal/graph"
	"torchgt/internal/model"
)

// TestEgoTrainerBackingInvariant pins the out-of-core training contract:
// the full training trajectory (per-epoch loss and accuracy, bitwise) is
// identical whether the trainer reads an in-memory dataset or a sharded
// on-disk view with a cache far smaller than the dataset, and for every
// sampling worker count.
func TestEgoTrainerBackingInvariant(t *testing.T) {
	skipIfShort(t)
	ds := graph.MakeNodeDataset(graph.NodeDatasetConfig{
		Name: "inv", NumNodes: 220, NumBlocks: 6, NumClasses: 4, FeatDim: 12,
		AvgDegIn: 8, AvgDegOut: 1, NoiseStd: 0.6, Seed: 51, Shuffle: true,
	})
	dir := filepath.Join(t.TempDir(), "shards")
	if _, err := shard.Write(dir, ds, 3); err != nil {
		t.Fatalf("shard.Write: %v", err)
	}
	v, err := shard.Open(dir, shard.Options{CacheBytes: 16 << 10, BlockBytes: 1 << 10})
	if err != nil {
		t.Fatalf("shard.Open: %v", err)
	}
	defer v.Close()

	modelCfg := model.GraphormerSlim(12, 4, 52)
	modelCfg.Layers = 1
	modelCfg.Heads = 2
	run := func(src graph.NodeSource, workers int) *Result {
		t.Helper()
		tr := NewEgoTrainerSource(EgoConfig{
			Epochs: 2, MaxSize: 12, Batch: 16, Seed: 53, Workers: workers,
		}, modelCfg, src)
		res, err := tr.Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}

	ref := run(graph.SourceOf(ds), 0)
	for _, c := range []struct {
		label   string
		src     graph.NodeSource
		workers int
	}{
		{"memory-4workers", graph.SourceOf(ds), 4},
		{"shard-sync", v, 0},
		{"shard-4workers", v, 4},
	} {
		got := run(c.src, c.workers)
		if len(got.Curve) != len(ref.Curve) {
			t.Fatalf("%s: %d epochs, want %d", c.label, len(got.Curve), len(ref.Curve))
		}
		for e := range ref.Curve {
			if got.Curve[e].Loss != ref.Curve[e].Loss || got.Curve[e].TestAcc != ref.Curve[e].TestAcc {
				t.Fatalf("%s: epoch %d diverged: loss %v vs %v, acc %v vs %v",
					c.label, e, got.Curve[e].Loss, ref.Curve[e].Loss,
					got.Curve[e].TestAcc, ref.Curve[e].TestAcc)
			}
		}
		if got.FinalTestAcc != ref.FinalTestAcc {
			t.Fatalf("%s: final acc %v, want %v", c.label, got.FinalTestAcc, ref.FinalTestAcc)
		}
	}
	if st := v.IOStats(); st.Misses == 0 {
		t.Fatalf("shard backing saw no I/O: %+v", st)
	}
}
