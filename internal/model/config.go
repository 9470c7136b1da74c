// Package model implements the graph transformer models evaluated in the
// paper — Graphormer (slim and large) and GT (Dwivedi–Bresson) — plus the
// GNN baselines of Table I (GCN, a GAT-style graph attention network) and a
// NodeFormer-lite. Models are built on internal/nn layers and
// internal/attention kernels; the attention method used at each training
// step is injected via an AttentionSpec so the trainer can switch between
// dense / flash / sparse / cluster-sparse per the Dual-interleaved schedule.
package model

import (
	"fmt"

	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// AttnMode selects the attention kernel family for a forward/backward pass.
type AttnMode int

const (
	// ModeDense materialises S×S scores (GP-Raw).
	ModeDense AttnMode = iota
	// ModeFlash is tiled streaming attention, FP32 (GP-Flash).
	ModeFlash
	// ModeSparse is the topology-induced pattern (GP-Sparse).
	ModeSparse
	// ModeClusterSparse is the Elastic-Computation-Reformation kernel.
	ModeClusterSparse
	// ModeKernelized is NodeFormer-style linear attention.
	ModeKernelized
)

func (m AttnMode) String() string {
	switch m {
	case ModeDense:
		return "dense"
	case ModeFlash:
		return "flash"
	case ModeSparse:
		return "sparse"
	case ModeClusterSparse:
		return "cluster-sparse"
	case ModeKernelized:
		return "kernelized"
	}
	return "unknown"
}

// AttentionSpec carries everything a forward pass needs to build its
// attention kernels for one step.
type AttentionSpec struct {
	Mode AttnMode
	// BF16 wraps the kernel in bfloat16 storage emulation (Table VII's
	// TorchGT-BF16).
	BF16 bool
	// Pattern is required for ModeSparse.
	Pattern *sparse.Pattern
	// Reformed is required for ModeClusterSparse.
	Reformed *sparse.Reformed
	// EdgeBuckets gives the SPD bias bucket of each Pattern entry
	// (ModeSparse with bias).
	EdgeBuckets []int32
	// KeepBuckets gives the bucket of each Reformed.Keep entry
	// (ModeClusterSparse with bias).
	KeepBuckets []int32
	// DenseBuckets[i][j] gives the bucket of pair (i, j) for ModeDense with
	// bias (small graphs only — this is O(S²) memory, which is the point).
	DenseBuckets [][]int32
}

// Validate checks the spec is self-consistent for sequence length s.
func (a *AttentionSpec) Validate(s int) error {
	switch a.Mode {
	case ModeSparse:
		if a.Pattern == nil {
			return fmt.Errorf("model: sparse mode requires Pattern")
		}
		if a.Pattern.S != s {
			return fmt.Errorf("model: pattern S=%d != sequence %d", a.Pattern.S, s)
		}
		if a.EdgeBuckets != nil && len(a.EdgeBuckets) != a.Pattern.NNZ() {
			return fmt.Errorf("model: edge buckets length mismatch")
		}
	case ModeClusterSparse:
		if a.Reformed == nil {
			return fmt.Errorf("model: cluster-sparse mode requires Reformed")
		}
		if a.Reformed.S != s {
			return fmt.Errorf("model: reformed S=%d != sequence %d", a.Reformed.S, s)
		}
		if a.KeepBuckets != nil && len(a.KeepBuckets) != a.Reformed.Keep.NNZ() {
			return fmt.Errorf("model: keep buckets length mismatch")
		}
	case ModeDense:
		if a.DenseBuckets != nil && len(a.DenseBuckets) != s {
			return fmt.Errorf("model: dense buckets shape mismatch")
		}
	}
	return nil
}

// Config describes a graph transformer instance.
type Config struct {
	Name      string
	Layers    int
	Hidden    int
	Heads     int
	FFNHidden int // 0 → 4×Hidden
	InDim     int
	OutDim    int
	Dropout   float64

	UseDegreeEnc bool // Graphormer centrality encoding
	UseSPDBias   bool // Graphormer/GT attention bias
	NumBuckets   int  // SPD bias buckets (0 → 8)
	UseLapPE     bool // GT Laplacian positional encoding
	LapDim       int

	GlobalToken bool // graph-level readout token

	Seed int64
}

func (c Config) withDefaults() Config {
	if c.FFNHidden == 0 {
		c.FFNHidden = 4 * c.Hidden
	}
	if c.NumBuckets == 0 {
		c.NumBuckets = 8
	}
	if c.Heads == 0 {
		c.Heads = 1
	}
	return c
}

// colSlice copies columns [c0, c0+w) of src into an R×w matrix drawn from ws
// (heap-allocated when ws is nil).
func colSlice(ws *tensor.Workspace, src *tensor.Mat, c0, w int) *tensor.Mat {
	out := ws.GetUninit(src.Rows, w)
	for i := 0; i < src.Rows; i++ {
		copy(out.Row(i), src.Row(i)[c0:c0+w])
	}
	return out
}

// addColSlice adds src (R×w) into dst columns [c0, c0+w).
func addColSlice(dst *tensor.Mat, src *tensor.Mat, c0 int) {
	for i := 0; i < src.Rows; i++ {
		d := dst.Row(i)[c0 : c0+src.Cols]
		s := src.Row(i)
		for j := range s {
			d[j] += s[j]
		}
	}
}
