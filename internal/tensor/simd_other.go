//go:build !amd64

package tensor

// No lane-wise kernels off amd64: simdCols always reports 0 columns, so the
// three entry points are never reached and the Go loops are the only path.

func cpuHasAVX2() bool { return false }

func accumCols(c, a []float32, stride int, b []float32, ldb, k int, mode accumMode) {
	panic("tensor: no SIMD kernels on this architecture")
}

func scatterCols(rows []float32, ld int, w, x []float32) {
	panic("tensor: no SIMD kernels on this architecture")
}

func dotCols(dst, x, bt []float32, ld int) {
	panic("tensor: no SIMD kernels on this architecture")
}
