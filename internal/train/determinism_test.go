package train

import (
	"context"
	"testing"

	"torchgt/internal/model"
)

// Trainer-level determinism: the kernel-level bitwise pins (see
// internal/tensor and internal/attention) must survive full training runs
// through all three trainers (node full-graph, graph-level, sampled-seq).

// trainerCases builds one fresh trainer per call for each of the three
// trainers (construction is deterministic in the seed, so repeated builds
// start from identical weights).
func trainerCases() map[string]func() (Task, *model.GraphTransformer) {
	return map[string]func() (Task, *model.GraphTransformer){
		"node-torchgt": func() (Task, *model.GraphTransformer) {
			ds := smallNodeDataset(1)
			cfg := model.GraphormerSlim(12, 4, 2)
			cfg.Layers = 2
			cfg.Heads = 4
			tr := NewNodeTrainer(NodeConfig{
				Method: TorchGT, Epochs: 5, LR: 2e-3, ClusterK: 4, Db: 4, Seed: 3, Interval: 4,
			}, cfg, ds)
			return tr, tr.Model
		},
		"graph-torchgt": func() (Task, *model.GraphTransformer) {
			ds := smallGraphDataset(5)
			cfg := model.GraphormerSlim(8, 2, 6)
			cfg.Layers = 2
			cfg.Heads = 2
			tr := NewGraphTrainer(GraphConfig{
				Method: TorchGT, Epochs: 5, LR: 2e-3, BatchSize: 8, Seed: 7,
			}, cfg, ds)
			return tr, tr.Model
		},
		"seq-gpflash": func() (Task, *model.GraphTransformer) {
			ds := smallNodeDataset(11)
			cfg := model.GraphormerSlim(12, 4, 12)
			cfg.Layers = 2
			cfg.Heads = 2
			tr := NewSeqTrainer(SeqConfig{
				Method: GPFlash, Epochs: 5, LR: 2e-3, SeqLen: 64, Seed: 13,
			}, cfg, ds)
			return tr, tr.Model
		},
	}
}

func runTrainer(t *testing.T, build func() (Task, *model.GraphTransformer)) (*Result, *model.GraphTransformer) {
	t.Helper()
	task, m := build()
	res, err := NewLoop(task, m, taskCfg(task)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, m
}

// TestTrainersRefBackendDeterministic pins the reference trajectory: two
// fresh runs of each trainer agree bitwise on every curve point and every
// weight. Together with the kernel-level pins (the flash kernel matches a
// naive loop bitwise, the fused bias+GELU matches the unfused pass
// bitwise), this keeps the training numerics frozen.
func TestTrainersRefBackendDeterministic(t *testing.T) {
	for name, build := range trainerCases() {
		t.Run(name, func(t *testing.T) {
			resA, mA := runTrainer(t, build)
			resB, mB := runTrainer(t, build)
			assertSameCurve(t, resA.Curve, resB.Curve)
			assertSameWeights(t, mA, mB)
		})
	}
}
