package tensor

import (
	"fmt"
	"math"
)

// The transcendentals, one row at a time: float64 math.Exp and the float64
// GELU forms of gelu.go, rounded to float32, and the matrix row ops built on
// them at the end of this file. These loops are the definition. On amd64
// with AVX2 and FMA the leading multiple-of-4 elements of a row go through
// the lane-wise kernels of vmath_amd64.s instead, which run the same IEEE
// operation sequence per lane and so return the same bits
// (vmath_test.go checks all 2³² inputs); the loops keep the remainder, the
// groups the exp kernel hands back, and everything on any other machine.

// hasFMA is the CPUID FMA bit — math.Exp's own predicate: then, and only
// then, the scalar exp takes the fused path the exp kernel copies. (The
// tanh kernel copies math.tanh as the compiler emits it on amd64, where Go
// fuses no x*y+z at any GOAMD64 level.)
var hasFMA = cpuHasFMA()

// mathLanes is the transcendental kernels' share of n elements, counted from
// the first: the useAVX2 dispatch point, narrowed by hasFMA.
func mathLanes(n int) int {
	if useAVX2 && hasFMA {
		return n &^ 3
	}
	return 0
}

var negInf32 = float32(math.Inf(-1))

// expRow computes dst[i] = float32(math.Exp(float64(src[i]+shift))). dst may
// alias src.
func expRow(dst, src []float32, shift float32) {
	dst = dst[:len(src)]
	i := 0
	for lanes := mathLanes(len(src)); i < lanes; {
		i += expLanes(dst[i:lanes], src[i:lanes], shift, negInf32)
		if i < lanes {
			// the kernel stopped in front of a group with a lane outside the
			// normal exponent range: that group is done here, then it resumes
			expScalar(dst[i:i+4], src[i:i+4], shift, negInf32)
			i += 4
		}
	}
	expScalar(dst[i:], src[i:], shift, negInf32)
}

// expScalar is expRow's arithmetic one element at a time, with exactly 0
// where src[i]+shift <= cut (negInf32 for no cut: exp(−Inf) is 0 anyway).
func expScalar(dst, src []float32, shift, cut float32) {
	for i, v := range src {
		if x := v + shift; x <= cut {
			dst[i] = 0
		} else {
			dst[i] = float32(math.Exp(float64(x)))
		}
	}
}

// geluRow computes z = u[j]+bias[j], written back into u, and y[j] =
// float32(GELU(float64(z))). y must not alias u.
func geluRow(y, u, bias []float32) {
	y, bias = y[:len(u)], bias[:len(u)]
	lanes := mathLanes(len(u))
	if lanes > 0 {
		geluLanes(y[:lanes], u[:lanes], bias[:lanes])
	}
	for j := lanes; j < len(u); j++ {
		z := u[j] + bias[j]
		u[j] = z
		y[j] = float32(GELU(float64(z)))
	}
}

// geluGradRow computes dz[j] = dy[j]·float32(GELUGrad(float64(z[j]))).
func geluGradRow(dz, z, dy []float32) {
	dz, dy = dz[:len(z)], dy[:len(z)]
	lanes := mathLanes(len(z))
	if lanes > 0 {
		geluGradLanes(dz[:lanes], z[:lanes], dy[:lanes])
	}
	for j := lanes; j < len(z); j++ {
		dz[j] = dy[j] * float32(GELUGrad(float64(z[j])))
	}
}

// SoftmaxRows applies a numerically stable softmax to each row of m in place.
func SoftmaxRows(m *Mat) {
	ParallelFor(m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			SoftmaxInPlace(m.Row(i))
		}
	})
}

// ExpShift computes dst[i] = exp(src[i]+shift). dst and src must have equal
// length (dst may alias src). It is the vectorised exponential behind the
// flash kernel's streaming softmax.
func ExpShift(dst, src []float32, shift float32) {
	if len(dst) != len(src) {
		panic("tensor: ExpShift length mismatch")
	}
	expRow(dst, src, shift)
}

// BiasGELU fuses the bias add and GELU activation of a Linear layer into a
// single pass: u (holding X·W) becomes z = u + bias in place, and y receives
// GELU(z). The element order and the float64 GELU form are those of the
// unfused AddRowVec + nn.GELU.Forward sequence, so the fusion changes no
// bit. y must be u's shape and must not alias it; len(bias) must equal
// u.Cols.
func BiasGELU(y, u *Mat, bias []float32) {
	if !y.SameShape(u) || len(bias) != u.Cols {
		panic(fmt.Sprintf("tensor: BiasGELU shapes y=%dx%d u=%dx%d bias=%d", y.Rows, y.Cols, u.Rows, u.Cols, len(bias)))
	}
	ParallelFor(u.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			geluRow(y.Row(i), u.Row(i), bias)
		}
	})
}

// BiasGELUGrad is the backward of BiasGELU: dz = dy ⊙ GELU'(z) in parallel,
// then the column sums of dz accumulated (+=) into dbias — the bias gradient
// — serially in row-ascending order, as the unfused ColSum did, so results
// are worker-count independent. dz must not alias dy or z.
func BiasGELUGrad(dz *Mat, dbias []float32, z, dy *Mat) {
	if !dz.SameShape(z) || !dz.SameShape(dy) || len(dbias) != z.Cols {
		panic(fmt.Sprintf("tensor: BiasGELUGrad shapes dz=%dx%d z=%dx%d dy=%dx%d dbias=%d",
			dz.Rows, dz.Cols, z.Rows, z.Cols, dy.Rows, dy.Cols, len(dbias)))
	}
	ParallelFor(z.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			geluGradRow(dz.Row(i), z.Row(i), dy.Row(i))
		}
	})
	ColSum(dbias, dz)
}
