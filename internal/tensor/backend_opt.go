package tensor

// optBackend is the float32 implementation of the transcendental row ops:
// the scalar exp/tanh polynomials of fastmath.go (quicker than the reference
// only where that cannot run lane-wise — TuningReport measures it). They differ from the
// reference within a small tolerance but are themselves exactly reproducible
// (pure functions, fixed element order). Everything else — the matrix
// kernels, Dot, Axpy — is shared with the reference backend.
type optBackend struct{}

func (optBackend) sealed()      {}
func (optBackend) Name() string { return "optimized" }

func (optBackend) SoftmaxRows(m *Mat) {
	ParallelFor(m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			if len(row) == 0 {
				continue
			}
			mx := row[0]
			for _, v := range row[1:] {
				if v > mx {
					mx = v
				}
			}
			var sum float64
			for j, v := range row {
				e := expf32(v - mx)
				row[j] = e
				sum += float64(e)
			}
			inv := float32(1.0 / sum)
			for j := range row {
				row[j] *= inv
			}
		}
	})
}

func (optBackend) ExpShift(dst, src []float32, shift float32) {
	for i, v := range src {
		dst[i] = expf32(v + shift)
	}
}

func (optBackend) BiasGELU(y, u *Mat, bias []float32) {
	ParallelFor(u.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ur := u.Row(i)
			yr := y.Row(i)
			for j := range ur {
				z := ur[j] + bias[j]
				ur[j] = z
				yr[j] = geluf32(z)
			}
		}
	})
}

func (optBackend) BiasGELUGrad(dz *Mat, dbias []float32, z, dy *Mat) {
	ParallelFor(z.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			zr := z.Row(i)
			dyr := dy.Row(i)
			dzr := dz.Row(i)
			for j := range zr {
				dzr[j] = dyr[j] * geluGradf32(zr[j])
			}
		}
	})
	ColSum(dbias, dz)
}
