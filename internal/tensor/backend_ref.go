package tensor

// refBackend is the bitwise-pinned reference implementation of the
// transcendental row ops: float64 math.Exp / GELU rounded to float32 — by
// definition the scalar loops of vmath.go, which the lane-wise kernels under
// them reproduce bit for bit. Training defaults to it; its numerics must
// never change.
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
	expRow(dst, src, shift, negInf32)
}

// BiasGELU: z = u + bias in place, y = GELU(z), one pass. The element order
// and the float64 GELU polynomial are identical to the unfused
// AddRowVec + nn.GELU.Forward sequence, so reference results are bitwise
// unchanged by the fusion.
func (refBackend) BiasGELU(y, u *Mat, bias []float32) {
	ParallelFor(u.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			geluRow(y.Row(i), u.Row(i), bias)
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
			geluGradRow(dz.Row(i), z.Row(i), dy.Row(i))
		}
	})
	ColSum(dbias, dz)
}
