//go:build !amd64

package tensor

// No lane-wise kernels off amd64: simdCols and mathLanes always report 0, so
// the entry points are never reached and the Go loops are the only path.

func cpuHasAVX2() bool { return false }
func cpuHasFMA() bool  { return false }

func accumCols(c, a []float32, stride int, b []float32, ldb, k int, mode accumMode) {
	panic("tensor: no SIMD kernels on this architecture")
}

func scatterCols(rows []float32, ld int, w, x []float32) {
	panic("tensor: no SIMD kernels on this architecture")
}

func dotCols(dst, x, bt []float32, ld int) {
	panic("tensor: no SIMD kernels on this architecture")
}

func expLanes(dst, src []float32, shift, cut float32) int {
	panic("tensor: no SIMD kernels on this architecture")
}

func geluLanes(y, u, bias []float32) {
	panic("tensor: no SIMD kernels on this architecture")
}

func geluGradLanes(dz, z, dy []float32) {
	panic("tensor: no SIMD kernels on this architecture")
}
