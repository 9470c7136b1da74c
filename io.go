package torchgt

import "torchgt/internal/nn"

// SaveModel writes a model's parameters to a checkpoint file.
func SaveModel(path string, m *GraphTransformer) error {
	return nn.SaveCheckpoint(path, m)
}

// LoadModel restores parameters into a model built from the same
// configuration.
func LoadModel(path string, m *GraphTransformer) error {
	return nn.LoadCheckpoint(path, m)
}
