package torchgt

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
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
	_, res := runSession(t, MethodNodeFormer, cfg, seqTask(t, ds), WithEpochs(2), WithSeqLen(64), WithSeed(10))
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

// TestAblationSamplingHonoursCancel: both halves of ablation-sampling train
// on the Loop under ctx, so a cancelled context returns context.Canceled
// before any training and writes no table.
func TestAblationSamplingHonoursCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	if err := RunExperimentContext(ctx, "ablation-sampling", &buf, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("cancelled experiment wrote %q", buf.String())
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

// TestPublicCheckpointRoundTrip: a model saved as a snapshot and loaded
// back runs the identical forward.
func TestPublicCheckpointRoundTrip(t *testing.T) {
	ds := loadNode(t, "arxiv-sim", 128, 20)
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 21)
	cfg.Layers = 1
	m := NewGraphTransformer(cfg)
	snap, err := Freeze(m)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.snap"
	if err := SaveSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := loaded.Materialize()
	if err != nil {
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

// TestSaveOverwritesAtomically: saving a snapshot over an existing file
// replaces it whole (the reload carries the second model's weights) and
// leaves no temporary sibling; saving into a missing directory is an error.
func TestSaveOverwritesAtomically(t *testing.T) {
	ds := loadNode(t, "arxiv-sim", 64, 22)
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 23)
	cfg.Layers = 1
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "m.snap")
	var last *GraphTransformer
	var snap *Snapshot
	for _, seed := range []int64{1, 2} {
		cfg.Seed = seed
		last = NewGraphTransformer(cfg)
		var err error
		if snap, err = Freeze(last); err != nil {
			t.Fatal(err)
		}
		if err := SaveSnapshot(snapPath, snap); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := LoadSnapshot(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := loaded.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	weightsEqual(t, replica, last)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "m.snap" {
		t.Fatalf("directory after two saves holds %v, want only m.snap", entries)
	}
	if err := SaveSnapshot(filepath.Join(dir, "no-such-dir", "m.snap"), snap); err == nil {
		t.Fatal("SaveSnapshot into a missing directory must fail")
	}
}

func TestPublicEgoTrainer(t *testing.T) {
	ds := loadNode(t, "arxiv-sim", 192, 23)
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 24)
	cfg.Layers = 1
	task, err := NodeTask(ds).Ego()
	if err != nil {
		t.Fatal(err)
	}
	_, res := runSession(t, MethodGPSparse, cfg, task, WithEpochs(2), WithSeqLen(12), WithBatchSize(32), WithSeed(25))
	if len(res.Curve) != 2 || res.Method != MethodGPSparse {
		t.Fatalf("ego session: %d epochs, method %v", len(res.Curve), res.Method)
	}
}
