package train

import (
	"context"
	"path/filepath"
	"testing"

	"torchgt/internal/model"
)

// runPair trains the same task serially and under SeqParallel=p and asserts
// the trajectories are bitwise identical: every curve point (loss, both
// accuracies, beta, pairs) and every final weight.
func runPair(t *testing.T, p int, build func(seqpar int) (Task, *model.GraphTransformer)) {
	t.Helper()
	serialTask, serialModel := build(0)
	serialRes, err := NewLoop(serialTask, serialModel, taskCfg(serialTask)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	parTask, parModel := build(p)
	parRes, err := NewLoop(parTask, parModel, taskCfg(parTask)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	assertSameCurve(t, serialRes.Curve, parRes.Curve)
	assertSameWeights(t, serialModel, parModel)
	if serialRes.FinalTestAcc != parRes.FinalTestAcc {
		t.Fatalf("P=%d: final accuracy diverges: %v vs %v", p, serialRes.FinalTestAcc, parRes.FinalTestAcc)
	}
	if sp := model.AsSeqParallel(parModel.Plan()); sp == nil {
		if p > 1 {
			t.Fatalf("P=%d: model is not running the sequence-parallel plan", p)
		}
	} else if p > 1 && sp.Comm().TotalBytes() == 0 {
		t.Fatalf("P=%d: no resharding traffic recorded", p)
	}
}

// TestSeqParallelBitwiseNodeTorchGT is the headline equality: full TorchGT
// node training — dual interleave switching between the Flash kernel (dense
// phases) and the ClusterSparse kernel (sparse phases), SPD bias, degree
// encodings, dropout — is bitwise identical to serial at P ∈ {1, 2, 4}.
// βthre is pinned: the Auto Tuner's ladder divides by wall-clock epoch time,
// which no two runs share (the same caveat applies serially).
func TestSeqParallelBitwiseNodeTorchGT(t *testing.T) {
	ds := smallNodeDataset(31)
	cfg := model.GraphormerSlim(12, 4, 32)
	cfg.Layers = 2
	cfg.Heads = 4
	build := func(seqpar int) (Task, *model.GraphTransformer) {
		tr := NewNodeTrainer(Config{
			Method: TorchGT, Epochs: 5, LR: 2e-3, ClusterK: 4, Db: 4, Seed: 33,
			Interval: 2, FixedBeta: 0.5, UseFixedBeta: true, SeqParallel: seqpar,
		}, cfg, ds)
		return tr, tr.Model
	}
	for _, p := range []int{1, 2, 4} {
		runPair(t, p, build)
	}
}

// TestSeqParallelBitwiseGraph covers the graph-level task: many small
// variable-size sequences with a global readout token, gradient accumulation
// over batches, flash attention. Graph sizes are arbitrary, so most shards
// are uneven and some are empty.
func TestSeqParallelBitwiseGraph(t *testing.T) {
	ds := smallGraphDataset(35)
	cfg := model.GraphormerSlim(8, 2, 36)
	cfg.Layers = 2
	cfg.Heads = 4
	build := func(seqpar int) (Task, *model.GraphTransformer) {
		tr := NewGraphTrainer(Config{
			Method: GPFlash, Epochs: 4, LR: 2e-3, BatchSize: 8, Seed: 37, SeqParallel: seqpar,
		}, cfg, ds)
		return tr, tr.Model
	}
	for _, p := range []int{2, 4} {
		runPair(t, p, build)
	}
}

// TestSeqParallelBitwiseSeq covers the sampled-sequence task: per-step
// induced subgraphs whose length is not divisible by the rank count.
func TestSeqParallelBitwiseSeq(t *testing.T) {
	ds := smallNodeDataset(41)
	cfg := model.GraphormerSlim(12, 4, 42)
	cfg.Layers = 2
	cfg.Heads = 4
	build := func(seqpar int) (Task, *model.GraphTransformer) {
		tr := NewSeqTrainer(Config{
			Method: GPFlash, Epochs: 3, LR: 2e-3, SeqLen: 50, Seed: 43, SeqParallel: seqpar,
		}, cfg, ds)
		return tr, tr.Model
	}
	runPair(t, 2, build)
}

// TestSeqParallelCancelCheckpointResume: cancel a sequence-parallel run
// mid-epoch, checkpoint it, resume — the resumed run must land bitwise where
// an uninterrupted sequence-parallel run lands (and, transitively, where the
// serial run lands). The checkpoint records SeqParallel, so the resumed
// trainer reconstructs the same plan.
func TestSeqParallelCancelCheckpointResume(t *testing.T) {
	ds := smallNodeDataset(51)
	cfg := model.GraphormerSlim(12, 4, 52)
	cfg.Layers = 1
	cfg.Heads = 2
	mk := func() *SeqTrainer {
		return NewSeqTrainer(Config{
			Method: GPFlash, Epochs: 4, LR: 2e-3, SeqLen: 48, Seed: 53, SeqParallel: 2,
		}, cfg, ds)
	}
	straight := mk()
	wantRes := straight.Run()

	tr := mk()
	if _, err := tr.RunCtx(&countdownCtx{Context: context.Background(), n: 5}); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	path := filepath.Join(t.TempDir(), "seqpar-mid.ckpt")
	if err := tr.Loop().Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(path, bindFor(ds, nil))
	if err != nil {
		t.Fatal(err)
	}
	if sp := model.AsSeqParallel(resumed.Model().Plan()); sp == nil || sp.P != 2 {
		t.Fatal("resumed model must run under the checkpointed SeqParallel(2) plan")
	}
	gotRes, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSameWeights(t, straight.Model, resumed.Model())
	assertSameCurve(t, wantRes.Curve, gotRes.Curve)
}
