//go:build !amd64

package tensor

// No lane-wise kernels off amd64: simdCols and mathLanes always report 0, so
// the entry points are never reached and the Go loops are the only path.

func cpuHasAVX2() bool { return false }
func cpuHasFMA() bool  { return false }

func accumCols(c, a []float32, stride int, b []float32, ldb, k int, mode accumMode) {
	panic("tensor: no SIMD kernels on this architecture")
}

func dotCols(dst, x, bt []float32, ld int) {
	panic("tensor: no SIMD kernels on this architecture")
}

func gatherDotCols(dst, x, m []float32, ld int, idx []int32) {
	panic("tensor: no SIMD kernels on this architecture")
}

func gatherAccumCols(acc, m []float32, ld int, w []float32, idx []int32, skipZero bool) {
	panic("tensor: no SIMD kernels on this architecture")
}

func flashDots(dst, xT, m []float32, ldm, n, dh int, scale float32, mode uintptr, a, b []float32) {
	panic("tensor: no SIMD kernels on this architecture")
}

func flashAccum(accT, l, w, v []float32, ldv, n, dv int, corr []float32) {
	panic("tensor: no SIMD kernels on this architecture")
}

func flashScatter(m []float32, ldm int, w, x []float32, ldx, nr, n, cols int) {
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
