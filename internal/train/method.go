// Package train provides the training loops of the evaluation: the baseline
// methods (GP-Raw, GP-Flash, GP-Sparse) and the full TorchGT pipeline
// (METIS-style reordering → topology-induced pattern → dual-interleaved
// schedule → elastic cluster-sparse reformation with the Auto Tuner), plus
// convergence recording used by the figure/table harnesses.
package train

import (
	"fmt"
	"math/rand"
)

// newRand builds a deterministic RNG stream for a trainer seed.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Method enumerates the systems compared in Tables V–VII.
type Method int

const (
	// GPRaw is vanilla graph parallelism with dense attention (OOMs at scale).
	GPRaw Method = iota
	// GPFlash replaces dense attention with the tiled flash kernel.
	GPFlash
	// GPSparse uses the raw topology-induced sparse pattern every step.
	GPSparse
	// TorchGT is the full system: cluster reorder + dual-interleaved
	// attention + elastic computation reformation with Auto Tuner.
	TorchGT
	// TorchGTBF16 is TorchGT with BF16 tensor-storage emulation.
	TorchGTBF16
	// NodeFormerKernel uses linear (kernelized) attention — the
	// NodeFormer-lite configuration for Fig. 1.
	NodeFormerKernel
)

func (m Method) String() string {
	switch m {
	case GPRaw:
		return "gp-raw"
	case GPFlash:
		return "gp-flash"
	case GPSparse:
		return "gp-sparse"
	case TorchGT:
		return "torchgt"
	case TorchGTBF16:
		return "torchgt-bf16"
	case NodeFormerKernel:
		return "nodeformer"
	}
	return "unknown"
}

// ParseMethod converts a CLI name into a Method.
func ParseMethod(s string) (Method, error) {
	for _, m := range []Method{GPRaw, GPFlash, GPSparse, TorchGT, TorchGTBF16, NodeFormerKernel} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("train: unknown method %q", s)
}
