package tensor

import "math"

// refBackend is the bitwise-pinned reference implementation of the
// transcendental row ops: float64 math.Exp / GELU rounded to float32.
// Training defaults to it; its numerics must never change.
type refBackend struct{}

func (refBackend) sealed()      {}
func (refBackend) Name() string { return "reference" }

func (refBackend) SoftmaxRows(m *Mat) {
	ParallelFor(m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			SoftmaxInPlace(m.Row(i))
		}
	})
}

func (refBackend) ExpShift(dst, src []float32, shift float32) {
	for i, v := range src {
		dst[i] = float32(math.Exp(float64(v + shift)))
	}
}

// BiasGELU: z = u + bias in place, y = GELU(z), one pass. The element order
// and the float64 GELU polynomial are identical to the unfused
// AddRowVec + nn.GELU.Forward sequence, so reference results are bitwise
// unchanged by the fusion.
func (refBackend) BiasGELU(y, u *Mat, bias []float32) {
	ParallelFor(u.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ur := u.Row(i)
			yr := y.Row(i)
			for j := range ur {
				z := ur[j] + bias[j]
				ur[j] = z
				yr[j] = float32(GELU(float64(z)))
			}
		}
	})
}

// BiasGELUGrad: dz = dy ⊙ GELU'(z) in parallel, then a serial row-ascending
// column-sum of dz into dbias — the same accumulation order as the unfused
// ColSum, so bias gradients stay worker-count independent and bitwise equal
// to the pre-fusion path.
func (refBackend) BiasGELUGrad(dz *Mat, dbias []float32, z, dy *Mat) {
	ParallelFor(z.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			zr := z.Row(i)
			dyr := dy.Row(i)
			dzr := dz.Row(i)
			for j := range zr {
				dzr[j] = dyr[j] * float32(GELUGrad(float64(zr[j])))
			}
		}
	})
	ColSum(dbias, dz)
}
