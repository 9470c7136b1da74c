package tensor

import (
	"math/rand"
	"testing"
)

// Per-kernel benchmarks at a transformer-step-like size (256 tokens × 128
// hidden): the matrix kernels and the transcendental row ops. Worker count
// pinned to 1 so the numbers measure the kernels, not the scheduler. The
// row-op benchmarks keep their …Ref names because the CI ratio gates in
// ci/bench-baseline.json are keyed on them.

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
	benchKernel(b, func(a, _, _, _, _ *Mat) { SoftmaxRows(a) })
}

func BenchmarkExpShiftRef(b *testing.B) {
	benchKernel(b, func(a, _, c, _, _ *Mat) { ExpShift(c.Data, a.Data, -1) })
}

// BenchmarkExpShiftRefPortable and BenchmarkBiasGELURefPortable are the
// reference row ops on the scalar math.Exp / math.Tanh loops: the
// denominators of the CI ratios that lock the lane-wise kernels' win.
func BenchmarkExpShiftRefPortable(b *testing.B) {
	defer portable()()
	benchKernel(b, func(a, _, c, _, _ *Mat) { ExpShift(c.Data, a.Data, -1) })
}

// benchBiasGELU starts every iteration from the same unit-normal
// pre-activations: BiasGELU writes u+bias back into u, and an operand left
// to accumulate its bias drifts into tanh's ±1 early return within a few
// iterations, where the scalar side has nothing to compute.
func benchBiasGELU(b *testing.B) {
	benchKernel(b, func(a, bm, c, cs, _ *Mat) {
		u := cs.Data[:len(a.Data)]
		copy(u, a.Data)
		BiasGELU(c, FromSlice(a.Rows, a.Cols, u), bm.Row(0))
	})
}

func BenchmarkBiasGELURef(b *testing.B) { benchBiasGELU(b) }

func BenchmarkBiasGELURefPortable(b *testing.B) {
	defer portable()()
	benchBiasGELU(b)
}

// benchGatherRows is the indexed-row work of one sparse-attention head pass
// at node-full's shape: 1024 query rows at the GraphormerSlim head width 8,
// each attending about nine keys (9 216 pairs) named by an index list — the
// dots against the keys, then the weighted sum of their value rows.
func benchGatherRows(b *testing.B) {
	const s, d, deg = 1024, 8, 9
	rng := rand.New(rand.NewSource(1))
	q, k, v, o := randMat(rng, s, d), randMat(rng, s, d), randMat(rng, s, d), New(s, d)
	idx := make([]int32, s*deg)
	for e := range idx {
		idx[e] = int32(rng.Intn(s))
	}
	p := make([]float32, deg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < s; r++ {
			cols := idx[r*deg : (r+1)*deg]
			GatherDots(p, q.Row(r), k, cols)
			GatherWeightedRowSum(o.Row(r), v, p, cols, false)
		}
	}
}

func BenchmarkGatherRows(b *testing.B) { benchGatherRows(b) }

// BenchmarkGatherRowsPortable is BenchmarkGatherRows on the Go loops: the
// denominator of the CI ratio that locks the gather micro-kernels' win.
func BenchmarkGatherRowsPortable(b *testing.B) {
	defer portable()()
	benchGatherRows(b)
}

// benchFlashTiles is the row-block work of one flash head's step at the
// training shape (S=1024, Dh=8, 64-key tiles) for one block of FlashRows
// query rows, exponentials left out: per tile the forward's scores and
// accumulation, the backward's recomputed scores, score gradients, dK/dV
// scatter and dQ accumulation.
func benchFlashTiles(b *testing.B) {
	const s, d, tile, R = 1024, 8, 64, FlashRows
	rng := rand.New(rand.NewSource(1))
	q, k, v, dk, dv := randMat(rng, s, d), randMat(rng, s, d), randMat(rng, s, d), New(s, d), New(s, d)
	qT, dOT, accT, dqT := randVec(rng, d*R), randVec(rng, d*R), make([]float32, d*R), make([]float32, d*R)
	p, ds, sc := make([]float32, tile*R), make([]float32, tile*R), make([]float32, tile*R)
	for i := range p {
		p[i], ds[i] = rng.Float32(), rng.Float32()-0.5
	}
	m, sub, l, lse, di, corr := make([]float32, R), make([]float32, R), make([]float32, R), make([]float32, R), make([]float32, R), make([]float32, R)
	for r := range R {
		m[r], corr[r] = negInf32, 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j0 := 0; j0 < s; j0 += tile {
			FlashScores(sc, qT, k, j0, j0+tile, 0.35, m, sub)
			FlashAccum(accT, l, p, v, j0, j0+tile, corr)
			FlashScores(sc, qT, k, j0, j0+tile, 0.35, lse, nil)
			FlashDS(sc, p, dOT, v, j0, j0+tile, di, 0.35)
			FlashScatter(dv, j0, j0+tile, p, q, 0, R)
			FlashScatter(dk, j0, j0+tile, ds, q, 0, R)
			FlashAccum(dqT, nil, ds, k, j0, j0+tile, nil)
		}
	}
}

func BenchmarkFlashTiles(b *testing.B) { benchFlashTiles(b) }

// BenchmarkFlashTilesPortable is BenchmarkFlashTiles on the Go loops: the
// denominator of the CI ratio that locks the flash micro-kernels' win.
func BenchmarkFlashTilesPortable(b *testing.B) {
	defer portable()()
	benchFlashTiles(b)
}
