package torchgt

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestPublicDatasetLoading(t *testing.T) {
	if ds := loadNode(t, "arxiv-sim", 256, 1); ds.G.N != 256 {
		t.Fatalf("node dataset has %d nodes", ds.G.N)
	}
	if _, err := OpenDataset("synth://nope"); err == nil {
		t.Fatal("unknown dataset must error")
	}
	if gds := loadGraphLevel(t, "zinc-sim", 1); len(gds.Graphs) == 0 {
		t.Fatal("graph dataset is empty")
	}
}

func TestPublicTrainNode(t *testing.T) {
	ds := loadNode(t, "arxiv-sim", 256, 2)
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 3)
	cfg.Layers = 2
	_, res := runSession(t, MethodTorchGT, cfg, NodeTask(ds), WithEpochs(4), WithSeed(4))
	if len(res.Curve) != 4 {
		t.Fatalf("curve length %d", len(res.Curve))
	}
}

func TestPublicTrainGraphLevel(t *testing.T) {
	gds := loadGraphLevel(t, "zinc-sim", 5)
	// shrink for test speed
	gds.Graphs = gds.Graphs[:60]
	gds.Feats = gds.Feats[:60]
	gds.Targets = gds.Targets[:60]
	gds.TrainIdx = filterIdx(gds.TrainIdx, 60)
	gds.ValIdx = filterIdx(gds.ValIdx, 60)
	gds.TestIdx = filterIdx(gds.TestIdx, 60)
	cfg := GraphormerSlim(gds.FeatDim, 1, 6)
	cfg.Layers = 1
	s, _ := runSession(t, MethodGPSparse, cfg, GraphLevelTask(gds), WithEpochs(2), WithBatchSize(8), WithSeed(7))
	if mae := s.EvalMAE(); mae <= 0 {
		t.Fatalf("regression MAE should be positive, got %v", mae)
	}
}

func filterIdx(idx []int, max int) []int {
	var out []int
	for _, i := range idx {
		if i < max {
			out = append(out, i)
		}
	}
	return out
}

func TestPublicSeqTrainer(t *testing.T) {
	ds := loadNode(t, "pokec-sim", 256, 8)
	cfg := NodeFormerLite(ds.X.Cols, ds.NumClasses, 9)
	cfg.Layers = 2
	_, res := runSession(t, MethodNodeFormer, cfg, NodeSeqTask(ds), WithEpochs(2), WithSeqLen(64), WithSeed(10))
	if len(res.Curve) != 2 {
		t.Fatalf("curve length %d", len(res.Curve))
	}
}

func TestPublicExperiments(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 15 {
		t.Fatalf("expected ≥15 experiments, got %d", len(ids))
	}
	var buf bytes.Buffer
	if err := RunExperimentContext(context.Background(), "fig9a", &buf, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "torchgt") {
		t.Fatal("experiment output incomplete")
	}
	if err := RunExperimentContext(context.Background(), "nope", &buf, false); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestParseMethodPublic(t *testing.T) {
	m, err := ParseMethod("torchgt")
	if err != nil || m != MethodTorchGT {
		t.Fatal("parse failed")
	}
}

func TestDatasetNameLists(t *testing.T) {
	if len(NodeDatasetNames()) < 5 || len(GraphDatasetNames()) != 3 {
		t.Fatal("dataset registries incomplete")
	}
}

func TestSetBackendAcceptsOnlyReference(t *testing.T) {
	for _, name := range []string{"", "ref", "reference"} {
		if prev, err := SetBackend(name); err != nil || prev != "reference" {
			t.Fatalf("SetBackend(%q) = %q, %v", name, prev, err)
		}
	}
	for _, name := range []string{"opt", "optimized", "Ref"} {
		if _, err := SetBackend(name); err == nil || !strings.Contains(err.Error(), "opt backend was removed") {
			t.Fatalf("SetBackend(%q): err %v", name, err)
		}
	}
}

func TestPublicCheckpointRoundTrip(t *testing.T) {
	ds := loadNode(t, "arxiv-sim", 128, 20)
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 21)
	cfg.Layers = 1
	m := NewGraphTransformer(cfg)
	path := t.TempDir() + "/model.ckpt"
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Seed = 999 // different init
	m2 := NewGraphTransformer(cfg2)
	if err := LoadModel(path, m2); err != nil {
		t.Fatal(err)
	}
	// identical weights ⇒ identical forward
	in := NodeInputs(ds)
	spec := &AttentionSpec{Mode: ModeFlash}
	a := m.Forward(in, spec, false)
	b := m2.Forward(in, spec, false)
	if !a.Equal(b, 0) {
		t.Fatal("loaded model diverges from saved model")
	}
}

func TestPublicEgoTrainer(t *testing.T) {
	ds := loadNode(t, "arxiv-sim", 192, 23)
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 24)
	cfg.Layers = 1
	res, err := TrainNodeEgoSource(cfg, (&Dataset{Node: ds}).Source(), EgoConfig{Epochs: 2, MaxSize: 12, Batch: 32, Seed: 25})
	if err != nil || len(res.Curve) != 2 {
		t.Fatalf("ego trainer via facade failed: %v", err)
	}
}
