package torchgt

import (
	"torchgt/internal/model"
	"torchgt/internal/sparse"
)

// AttentionSpec selects the attention kernel for custom training loops.
type AttentionSpec = model.AttentionSpec

// Pattern is a sparse attention pattern over token positions.
type Pattern = sparse.Pattern

// Attention modes for AttentionSpec.
const (
	ModeDense         = model.ModeDense
	ModeFlash         = model.ModeFlash
	ModeSparse        = model.ModeSparse
	ModeClusterSparse = model.ModeClusterSparse
	ModeKernelized    = model.ModeKernelized
)

// Inputs carries model inputs (features + encodings) for custom loops.
type Inputs = model.Inputs

// GraphTransformer is the shared Graphormer/GT architecture.
type GraphTransformer = model.GraphTransformer

// NewGraphTransformer instantiates a model from a configuration.
func NewGraphTransformer(cfg ModelConfig) *GraphTransformer {
	return model.NewGraphTransformer(cfg)
}
