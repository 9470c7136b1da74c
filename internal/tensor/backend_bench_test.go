package tensor

import (
	"math/rand"
	"testing"
)

// Per-kernel benchmarks at a transformer-step-like size (256 tokens × 128
// hidden): the shared matrix kernels, and the row ops on each backend.
// Worker count pinned to 1 so the numbers measure the kernels, not the
// scheduler.

func benchKernel(b *testing.B, run func(a, bm, c, cs, ct *Mat)) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, 256, 128)
	bm := randMat(rng, 128, 128)
	c := New(256, 128)  // A·B
	cs := New(256, 256) // A·Aᵀ (scores shape)
	ct := New(128, 128) // Aᵀ·A (weight-grad shape)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(a, bm, c, cs, ct)
	}
}

func BenchmarkMatMul(b *testing.B) {
	benchKernel(b, func(a, bm, c, _, _ *Mat) { MatMul(c, a, bm) })
}

// BenchmarkMatMulPortable is BenchmarkMatMul with the micro-kernels switched
// off, whatever the CPU: the denominator of the CI ratio that locks their
// win, and the number to watch for the claim that the explicit float32(x*y)
// conversions cost amd64 nothing.
func BenchmarkMatMulPortable(b *testing.B) {
	defer portable()()
	benchKernel(b, func(a, bm, c, _, _ *Mat) { MatMul(c, a, bm) })
}

// portable switches every lane-wise kernel off until the returned func runs.
func portable() (restore func()) {
	have := useAVX2
	useAVX2 = false
	return func() { useAVX2 = have }
}

func BenchmarkMatMulT(b *testing.B) {
	benchKernel(b, func(a, _, _, cs, _ *Mat) { MatMulT(cs, a, a) })
}

func BenchmarkTMatMul(b *testing.B) {
	benchKernel(b, func(a, _, _, _, ct *Mat) { TMatMul(ct, a, a) })
}

func BenchmarkSoftmaxRowsRef(b *testing.B) {
	benchKernel(b, func(a, _, _, _, _ *Mat) { Reference.SoftmaxRows(a) })
}

func BenchmarkSoftmaxRowsOpt(b *testing.B) {
	benchKernel(b, func(a, _, _, _, _ *Mat) { Optimized.SoftmaxRows(a) })
}

func BenchmarkExpShiftRef(b *testing.B) {
	benchKernel(b, func(a, _, c, _, _ *Mat) { Reference.ExpShift(c.Data, a.Data, -1) })
}

// BenchmarkExpShiftRefPortable and BenchmarkBiasGELURefPortable are the
// reference row ops on the scalar math.Exp / math.Tanh loops: the
// denominators of the CI ratios that lock the lane-wise kernels' win.
func BenchmarkExpShiftRefPortable(b *testing.B) {
	defer portable()()
	benchKernel(b, func(a, _, c, _, _ *Mat) { Reference.ExpShift(c.Data, a.Data, -1) })
}

func BenchmarkExpShiftOpt(b *testing.B) {
	benchKernel(b, func(a, _, c, _, _ *Mat) { Optimized.ExpShift(c.Data, a.Data, -1) })
}

// benchBiasGELU starts every iteration from the same unit-normal
// pre-activations: BiasGELU writes u+bias back into u, and an operand left
// to accumulate its bias drifts into tanh's ±1 early return within a few
// iterations, where the scalar side has nothing to compute.
func benchBiasGELU(b *testing.B, be Backend) {
	benchKernel(b, func(a, bm, c, cs, _ *Mat) {
		u := cs.Data[:len(a.Data)]
		copy(u, a.Data)
		be.BiasGELU(c, FromSlice(a.Rows, a.Cols, u), bm.Row(0))
	})
}

func BenchmarkBiasGELURef(b *testing.B) { benchBiasGELU(b, Reference) }

func BenchmarkBiasGELURefPortable(b *testing.B) {
	defer portable()()
	benchBiasGELU(b, Reference)
}

func BenchmarkBiasGELUOpt(b *testing.B) { benchBiasGELU(b, Optimized) }
