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

func pairDots(dst, a []float32, lda int, ai []int32, maxA int, b []float32, ldb int, bi []int32, maxB int, k int) {
	panic("tensor: no SIMD kernels on this architecture")
}

func csrAccum(acc []float32, ldacc int, m []float32, ldm int, w []float32, idx, ptr []int32, maxIdx, k int) {
	panic("tensor: no SIMD kernels on this architecture")
}

func tileAccum(acc []float32, ldacc int, w []float32, ldwr, ldwc int, m []float32, ldm, nr, nc, k int, keep bool) {
	panic("tensor: no SIMD kernels on this architecture")
}

func tileDots(dst []float32, ld int, x []float32, ldx, nr int, m []float32, ldm, nc, k int) {
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

func expSeg(dst, src []float32, row []int32, maxRow int, shift []float32, cut float32) int {
	panic("tensor: no SIMD kernels on this architecture")
}

func geluLanes(y, u, bias []float32) {
	panic("tensor: no SIMD kernels on this architecture")
}

func geluGradLanes(dz, z, dy []float32) {
	panic("tensor: no SIMD kernels on this architecture")
}
