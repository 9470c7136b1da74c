package tensor

// Element-wise and row/column ops. The matrix kernels (MatMul, MatMulT,
// TMatMul, Dot, Axpy and the tile primitives) live in kernels.go; the
// transcendental row ops (SoftmaxRows, ExpShift, BiasGELU, BiasGELUGrad)
// dispatch through the active Backend from backend.go; everything here is
// memory-bound bookkeeping.

// Add computes c = a + b element-wise (c may alias a or b).
func Add(c, a, b *Mat) {
	a.mustSameShape(b)
	a.mustSameShape(c)
	for i := range c.Data {
		c.Data[i] = a.Data[i] + b.Data[i]
	}
}

// AddInPlace computes a += b.
func AddInPlace(a, b *Mat) {
	a.mustSameShape(b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// Sub computes c = a - b element-wise.
func Sub(c, a, b *Mat) {
	a.mustSameShape(b)
	a.mustSameShape(c)
	for i := range c.Data {
		c.Data[i] = a.Data[i] - b.Data[i]
	}
}

// Scale multiplies every element of m by s in place.
func Scale(m *Mat, s float32) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Hadamard computes c = a ⊙ b element-wise.
func Hadamard(c, a, b *Mat) {
	a.mustSameShape(b)
	a.mustSameShape(c)
	for i := range c.Data {
		c.Data[i] = a.Data[i] * b.Data[i]
	}
}

// AddRowVec adds vector v (len = m.Cols) to every row of m.
func AddRowVec(m *Mat, v []float32) {
	if len(v) != m.Cols {
		panic("tensor: AddRowVec length mismatch")
	}
	ParallelFor(m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			for j := range row {
				row[j] += v[j]
			}
		}
	})
}

// ColSum accumulates the column sums of m into out (len = m.Cols), adding to
// existing values. Serial and row-ascending by design: the fixed accumulation
// order keeps bias gradients worker-count independent.
func ColSum(out []float32, m *Mat) {
	if len(out) != m.Cols {
		panic("tensor: ColSum length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
}

// SoftmaxInPlace applies softmax to a single vector.
func SoftmaxInPlace(row []float32) {
	if len(row) == 0 {
		return
	}
	mx := row[0]
	for _, v := range row[1:] {
		if v > mx {
			mx = v
		}
	}
	expRow(row, row, -mx, negInf32) // v + (−mx) is v − mx
	var sum float64
	for _, e := range row {
		sum += float64(e)
	}
	inv := float32(1.0 / sum)
	for j := range row {
		row[j] *= inv
	}
}

// ExpCut computes dst[i] = float32(math.Exp(float64(src[i]+shift))), and
// exactly 0 where src[i]+shift <= cut: the exp pass of a softmax whose row
// lies in several slices (ClusterSparse), with the caller's underflow cutoff.
// Like SoftmaxInPlace it is the reference exponential whatever the active
// backend. dst and src must have equal length (dst may alias src).
func ExpCut(dst, src []float32, shift, cut float32) {
	if len(dst) != len(src) {
		panic("tensor: ExpCut length mismatch")
	}
	expRow(dst, src, shift, cut)
}

// SoftmaxBackwardRow computes dx for one softmax row given y = softmax(x) and
// upstream dy: dx_j = y_j * (dy_j - Σ_k dy_k y_k). Result written into dx.
func SoftmaxBackwardRow(dx, y, dy []float32) {
	var dot float32
	for k := range y {
		dot += dy[k] * y[k]
	}
	for j := range y {
		dx[j] = y[j] * (dy[j] - dot)
	}
}

// Apply sets m[i] = f(m[i]) for every element.
func Apply(m *Mat, f func(float32) float32) {
	ParallelFor(m.Rows, func(lo, hi int) {
		for i := lo * m.Cols; i < hi*m.Cols; i++ {
			m.Data[i] = f(m.Data[i])
		}
	})
}
