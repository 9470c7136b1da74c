package graph

import (
	"testing"
)

func TestMakeNodeDatasetShapes(t *testing.T) {
	d := MakeNodeDataset(NodeDatasetConfig{
		Name: "t", NumNodes: 200, NumBlocks: 8, NumClasses: 4,
		FeatDim: 16, AvgDegIn: 8, AvgDegOut: 2, NoiseStd: 1, Seed: 1, Shuffle: true,
	})
	if d.G.N != 200 || d.X.Rows != 200 || d.X.Cols != 16 || len(d.Y) != 200 {
		t.Fatal("shapes wrong")
	}
	if err := d.G.Validate(); err != nil {
		t.Fatal(err)
	}
	// labels in range, consistent with blocks
	for i, y := range d.Y {
		if y < 0 || y >= 4 {
			t.Fatalf("label out of range: %d", y)
		}
		if y != d.Blocks[i]%4 {
			t.Fatal("label != block % classes")
		}
	}
	// masks partition the node set
	for i := range d.Y {
		cnt := 0
		if d.TrainMask[i] {
			cnt++
		}
		if d.ValMask[i] {
			cnt++
		}
		if d.TestMask[i] {
			cnt++
		}
		if cnt != 1 {
			t.Fatalf("node %d in %d masks", i, cnt)
		}
	}
}

func TestLoadNodePresets(t *testing.T) {
	for _, name := range NodeDatasetNames() {
		d, err := LoadNodeScaled(name, 256, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.G.N != 256 {
			t.Fatalf("%s: scale override failed (N=%d)", name, d.G.N)
		}
		if d.NumClasses < 2 {
			t.Fatalf("%s: classes=%d", name, d.NumClasses)
		}
	}
	if _, err := LoadNodeScaled("nope", 256, 1); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestLoadNodeDeterministic(t *testing.T) {
	a, _ := LoadNodeScaled("arxiv-sim", 128, 9)
	b, _ := LoadNodeScaled("arxiv-sim", 128, 9)
	if a.G.NumEdges() != b.G.NumEdges() {
		t.Fatal("same seed must give same graph")
	}
	if !a.X.Equal(b.X, 0) {
		t.Fatal("same seed must give same features")
	}
}

func TestMakeGraphDatasetRegression(t *testing.T) {
	d := MakeGraphDataset(GraphDatasetConfig{
		Name: "t", Task: GraphRegression, NumGraphs: 50,
		MinNodes: 10, MaxNodes: 20, FeatDim: 8, Seed: 2,
	})
	if len(d.Graphs) != 50 || len(d.Targets) != 50 || len(d.Feats) != 50 {
		t.Fatal("counts wrong")
	}
	if len(d.TrainIdx)+len(d.ValIdx)+len(d.TestIdx) != 50 {
		t.Fatal("split sizes wrong")
	}
	for i, g := range d.Graphs {
		if g.N < 10 || g.N > 20 {
			t.Fatalf("graph %d size %d out of range", i, g.N)
		}
		if d.Feats[i].Rows != g.N || d.Feats[i].Cols != 8 {
			t.Fatal("feature shape wrong")
		}
	}
}

func TestMakeGraphDatasetClassificationBalanced(t *testing.T) {
	d := MakeGraphDataset(GraphDatasetConfig{
		Name: "t", Task: GraphClassification, NumGraphs: 100,
		MinNodes: 10, MaxNodes: 20, FeatDim: 8, Classes: 4, Seed: 3,
	})
	counts := make([]int, 4)
	for _, l := range d.Labels {
		counts[l]++
	}
	for c, n := range counts {
		if n != 25 {
			t.Fatalf("class %d has %d graphs, want 25 (rank binning)", c, n)
		}
	}
}

func TestMalNetLike(t *testing.T) {
	d := MakeMalNetLike(20, 128, 4)
	if len(d.Graphs) != 20 || d.NumClasses != 5 {
		t.Fatal("malnet counts wrong")
	}
	seen := map[int32]bool{}
	for _, l := range d.Labels {
		seen[l] = true
	}
	if len(seen) != 5 {
		t.Fatalf("expected all 5 classes present, got %d", len(seen))
	}
}

func TestLoadGraphLevelPresets(t *testing.T) {
	for _, name := range GraphLevelDatasetNames() {
		d, err := LoadGraphLevel(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(d.Graphs) == 0 {
			t.Fatalf("%s: empty", name)
		}
		switch d.Task {
		case GraphRegression:
			if len(d.Targets) != len(d.Graphs) {
				t.Fatalf("%s: target count", name)
			}
		case GraphClassification:
			if len(d.Labels) != len(d.Graphs) {
				t.Fatalf("%s: label count", name)
			}
		}
	}
	if _, err := LoadGraphLevel("nope", 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestTaskString(t *testing.T) {
	if NodeClassification.String() != "node-classification" ||
		GraphClassification.String() != "graph-classification" ||
		GraphRegression.String() != "graph-regression" {
		t.Fatal("Task.String wrong")
	}
	if Task(99).String() != "unknown-task" {
		t.Fatal("unknown task string")
	}
}
