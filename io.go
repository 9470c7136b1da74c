package torchgt

import (
	"torchgt/internal/nn"
	"torchgt/internal/train"
)

// SaveModel writes a model's parameters to a checkpoint file.
func SaveModel(path string, m *GraphTransformer) error {
	return nn.SaveCheckpoint(path, m)
}

// LoadModel restores parameters into a model built from the same
// configuration.
func LoadModel(path string, m *GraphTransformer) error {
	return nn.LoadCheckpoint(path, m)
}

// EgoConfig tunes ego-sampled training (epochs, LR, ego-graph size and
// radius, targets per step, seed, sampling workers); zero values pick the
// defaults.
type EgoConfig = train.EgoConfig

// TrainNodeEgoSource trains node classification with ego-graph sampling (the
// Gophormer/NAGphormer baseline family the paper contrasts with
// long-sequence training in §II-C) over any node source; wrap an in-memory
// dataset with (&Dataset{Node: ds}).Source(). Disk-resident shard:// views
// train without materialising the graph: each step touches only the sampled
// ego contexts, read through the view's bounded block cache, so the memory
// footprint is the cache budget, not the dataset size. The trajectory is
// bitwise-identical for every ego.Workers count and every backing of the
// same dataset, under the same seed. Invalid inputs (nil or mismatched
// source, no training nodes) surface as errors.
func TrainNodeEgoSource(cfg ModelConfig, src NodeSource, ego EgoConfig) (*Result, error) {
	return train.NewEgoTrainerSource(ego, cfg, src).Run()
}
