package torchgt

import "torchgt/internal/tensor"

// Compute backends: the matrix kernels every layer runs on — the attention
// kernels, nn.Linear, the serving replicas — have one order-preserving
// implementation, and the transcendental row ops around them (exp, softmax,
// bias+GELU) dispatch through a pluggable tensor.Backend. Two are built in:
//
//   - "ref" (reference): float64 math.Exp / GELU rounded to float32, the
//     bitwise-pinned numerics training defaults to. Trajectories are
//     reproducible across releases. On amd64 with AVX2+FMA the row ops run
//     four lanes at a time and return the same bits.
//   - "opt" (optimized): scalar float32 exp/tanh polynomials.
//     Self-deterministic (results independent of worker count); everything
//     but the exp/softmax/GELU paths is shared with "ref", and those differ
//     within a small documented tolerance. See DESIGN.md "Compute backends
//     and quantized serving".
//
// The selection is process-wide: SetBackend here, the TORCHGT_BACKEND
// environment variable, or the -backend flag on the CLI tools.
type (
	// Backend is the sealed compute-kernel interface (implementations live
	// in the tensor package).
	Backend = tensor.Backend
	// KernelSpeedup is one op's timing on both backends and their ratio.
	KernelSpeedup = tensor.KernelSpeedup
)

// SetBackend activates the compute backend named by a CLI spelling ("ref",
// "reference", "opt", "optimized"; "" keeps the reference default) for all
// subsequent kernel dispatch, process-wide. It returns the previously active
// backend's name so callers can restore it.
func SetBackend(name string) (prev string, err error) { return tensor.SetBackend(name) }

// ActiveBackend reports the backend all kernels currently dispatch through.
func ActiveBackend() Backend { return tensor.ActiveBackend() }

// KernelISA names the instruction set the shared matrix kernels run on in
// this process: "avx2" (hand-written lane-wise micro-kernels, picked when the
// CPU has AVX2) or "portable" (the pure-Go loops). There is nothing to select:
// the two produce the same bits, and differ several-fold in speed.
func KernelISA() string { return tensor.KernelISA() }

// BackendNames lists the selectable backend spellings (canonical short
// forms, as accepted by SetBackend and the -backend CLI flags).
func BackendNames() []string { return tensor.BackendNames() }

// BackendTuningReport times every op that differs between the two backends
// on a fixed synthetic operand (some tens of milliseconds; nothing is cached) and
// returns both timings with their ratio ref/opt — a measurement, not a
// promise that "opt" is the faster side.
func BackendTuningReport() []KernelSpeedup { return tensor.TuningReport() }
