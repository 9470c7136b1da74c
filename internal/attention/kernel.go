// Package attention implements the attention kernels at the centre of the
// TorchGT paper, each with forward and hand-written backward passes:
//
//   - Dense: the GP-Raw baseline — materialises the S×S score matrix
//     (O(S²) compute and memory), supports additive bias encodings.
//   - Flash: the GP-Flash baseline — tiled streaming-softmax attention that
//     never materialises S×S (O(S²) compute, O(S) extra memory), optionally
//     emulating BF16 storage precision; like real FlashAttention it does NOT
//     support bias encodings.
//   - Sparse: the topology-induced pattern — attends only pairs present in a
//     sparse.Pattern (O(E) compute), per-entry bias supported.
//   - ClusterSparse: the Elastic Computation Reformation kernel — CSR for
//     kept clusters plus dense db×db sub-blocks for transferred ones, which
//     converts scattered gathers into contiguous block computations.
//   - Kernelized: NodeFormer-lite linear attention (Performer-style feature
//     maps), used by the Fig. 1 reproduction.
//
// An Interleaver (interleave.go) schedules Dense vs Sparse per training step,
// implementing Dual-interleaved Attention's C1–C3 condition checks.
package attention

import (
	"math"

	"torchgt/internal/tensor"
)

// Kernel is a single-head attention computation with cached state: Forward
// must be called before Backward, and each Forward overwrites the cache.
type Kernel interface {
	// Forward computes O from q (S×dk), k (S×dk), v (S×dv).
	Forward(q, k, v *tensor.Mat) *tensor.Mat
	// Backward consumes upstream dO and returns dq, dk, dv.
	Backward(dO *tensor.Mat) (dq, dk, dv *tensor.Mat)
	// Name identifies the kernel in logs and benchmarks.
	Name() string
	// Pairs reports the number of attended (i, j) pairs of the last Forward,
	// the unit of attention compute cost used by the performance model.
	Pairs() int64
}

// WorkspaceUser is implemented by kernels that can draw their scratch and
// cache buffers from a tensor.Workspace instead of the heap. All kernels in
// this package implement it; a nil workspace (the default) falls back to
// plain allocation, so existing call sites are unaffected. Execution plans
// exploit this to place kernel scratch: every plan hands each head its
// owning rank's workspace, so a rank's kernels never touch another rank's
// arena.
//
// Ownership contract: buffers handed out by Forward/Backward (outputs,
// gradients, bias gradients) belong to the workspace and stay valid until
// its next Reset — callers reset only at step boundaries, after the
// optimiser has consumed every gradient.
type WorkspaceUser interface {
	SetWorkspace(ws *tensor.Workspace)
}

// WithWorkspace attaches ws to k when the kernel supports pooling and
// returns k for chaining.
func WithWorkspace(k Kernel, ws *tensor.Workspace) Kernel {
	if u, ok := k.(WorkspaceUser); ok {
		u.SetWorkspace(ws)
	}
	return k
}

func scaleFor(dk int) float32 { return float32(1.0 / math.Sqrt(float64(dk))) }

func checkQKV(q, k, v *tensor.Mat) {
	if q.Cols != k.Cols || q.Rows != k.Rows || k.Rows != v.Rows {
		panic("attention: inconsistent q/k/v shapes")
	}
}
