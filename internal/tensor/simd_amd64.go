package tensor

import "unsafe"

// Go side of the AVX2 micro-kernels in simd_amd64.s: CPU detection and the
// three bounds-checked wrappers kernels.go calls for the columns simdCols
// reports. The assembly trusts its arguments, so every extent it will touch
// is checked here first, once per call.

//go:noescape
func accumAVX2(c, a *float32, aStride uintptr, b *float32, ldb, k, n, mode uintptr)

//go:noescape
func scatterAVX2(m *float32, ldm uintptr, w, x *float32, rows, n uintptr)

//go:noescape
func dotColsAVX2(dst, x *float32, k uintptr, bt *float32, ldbt, n uintptr)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// cpuHasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM state across context switches (OSXSAVE + XCR0 bits 1 and 2).
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// accumCols computes, for every j < len(c) (a multiple of 8) and p ascending,
// c[j] = init + Σ_{p<k} a[p·stride]·b[p·ldb+j] in one of the three forms of
// accumMode.
func accumCols(c, a []float32, stride int, b []float32, ldb, k int, mode accumMode) {
	n := len(c)
	if n == 0 {
		return
	}
	if k > 0 {
		_ = a[(k-1)*stride]
		_ = b[(k-1)*ldb+n-1]
	}
	accumAVX2(unsafe.SliceData(c), unsafe.SliceData(a), uintptr(stride),
		unsafe.SliceData(b), uintptr(ldb), uintptr(k), uintptr(n), uintptr(mode))
}

// scatterCols adds w[r]·x[j] to rows[r·ld+j] for every r < len(w) and
// j < len(x) (a multiple of 8).
func scatterCols(rows []float32, ld int, w, x []float32) {
	if len(w) == 0 || len(x) == 0 {
		return
	}
	_ = rows[(len(w)-1)*ld+len(x)-1]
	scatterAVX2(unsafe.SliceData(rows), uintptr(ld), unsafe.SliceData(w), unsafe.SliceData(x),
		uintptr(len(w)), uintptr(len(x)))
}

// dotCols computes dst[j] = Dot(x, column j of bt) for every j < len(dst)
// (a multiple of 8), where column j of bt is bt[j], bt[ld+j], … — len(x)
// elements of the transposed operand.
func dotCols(dst, x, bt []float32, ld int) {
	if len(dst) == 0 {
		return
	}
	if len(x) > 0 {
		_ = bt[(len(x)-1)*ld+len(dst)-1]
	}
	dotColsAVX2(unsafe.SliceData(dst), unsafe.SliceData(x), uintptr(len(x)),
		unsafe.SliceData(bt), uintptr(ld), uintptr(len(dst)))
}
