package tensor

import (
	"fmt"
	"unsafe"
)

// Go side of the AVX2 micro-kernels in simd_amd64.s and vmath_amd64.s: CPU
// detection and the bounds-checked wrappers kernels.go calls for the columns
// simdCols reports and vmath.go for the elements mathLanes reports. The
// assembly trusts its arguments, so every extent it will touch is checked
// here first, once per call.

//go:noescape
func accumAVX2(c, a *float32, aStride uintptr, b *float32, ldb, k, n, mode uintptr)

//go:noescape
func dotColsAVX2(dst, x *float32, k uintptr, bt *float32, ldbt, n uintptr)

//go:noescape
func gatherDotsAVX2(dst, x *float32, k uintptr, m *float32, off *uintptr, n uintptr)

//go:noescape
func gatherAccumAVX2(acc, m *float32, ldm uintptr, w *float32, idx *int32, k, n, keep uintptr)

//go:noescape
func flashDotsAVX2(dst, xT, m *float32, ldm, n, dh uintptr, scale float32, mode uintptr, a, b *float32)

//go:noescape
func flashAccumAVX2(accT, l, w, v *float32, ldv, n, dv uintptr, corr *float32)

//go:noescape
func flashScatterAVX2(m *float32, ldm uintptr, w, x *float32, ldx, nr, n, cols uintptr)

//go:noescape
func expLanesAVX2(dst, src *float32, n uintptr, shift, cut float32) uintptr

//go:noescape
func geluAVX2(y, u, bias *float32, n uintptr)

//go:noescape
func geluGradAVX2(dz, z, dy *float32, n uintptr)

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

// cpuHasFMA reports the CPUID FMA bit. Only read together with cpuHasAVX2,
// which has already established that the OS saves the YMM state.
func cpuHasFMA() bool {
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&(1<<12) != 0
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

// checkGatherRows checks that no index in idx is negative and that row r of
// an ld-strided matrix m has n elements for every listed r — the extent the
// gather micro-kernels will touch.
func checkGatherRows(m []float32, ld, n int, idx []int32) {
	var hi uint32 // a negative index reads as one above 2³¹
	for _, r := range idx {
		hi = max(hi, uint32(r))
	}
	if len(idx) > 0 && int(hi)*ld+n > len(m) {
		panic(fmt.Sprintf("tensor: row index %d out of range of %d rows", int32(hi), len(m)/ld))
	}
}

// gatherDotCols computes dst[e] = the first len(x) columns (a multiple of 8)
// of Dot(x, row idx[e] of m), rows ld elements apart. The micro-kernel takes
// its rows as byte offsets, computed here 64 entries at a time; it works in
// groups of eight and four entries, so a last one to three are padded with
// a copy of the one before and written through a stack buffer.
func gatherDotCols(dst, x, m []float32, ld int, idx []int32) {
	if len(idx) == 0 {
		return
	}
	_ = dst[len(idx)-1]
	checkGatherRows(m, ld, len(x), idx)
	if len(x) == 0 {
		clear(dst[:len(idx)])
		return
	}
	var off [64]uintptr
	for len(idx) > 0 {
		n := min(len(idx), len(off))
		for e, r := range idx[:n] {
			off[e] = uintptr(r) * uintptr(ld) * 4
		}
		n4 := (n + 3) &^ 3
		if n4 == n {
			gatherDotsAVX2(unsafe.SliceData(dst), unsafe.SliceData(x), uintptr(len(x)),
				unsafe.SliceData(m), &off[0], uintptr(n))
		} else {
			for e := n; e < n4; e++ {
				off[e] = off[n-1]
			}
			var pd [len(off)]float32
			gatherDotsAVX2(&pd[0], unsafe.SliceData(x), uintptr(len(x)),
				unsafe.SliceData(m), &off[0], uintptr(n4))
			copy(dst[:n], pd[:n])
		}
		dst, idx = dst[n:], idx[n:]
	}
}

// gatherAccumCols adds w[e]·(row idx[e] of m) to acc for e ascending over
// len(acc) columns (a multiple of 8), rows ld elements apart; with skipZero
// a ±0 weight's term is left out.
func gatherAccumCols(acc, m []float32, ld int, w []float32, idx []int32, skipZero bool) {
	if len(w) == 0 {
		return
	}
	_ = idx[len(w)-1]
	checkGatherRows(m, ld, len(acc), idx[:len(w)])
	if len(acc) == 0 {
		return
	}
	keep := uintptr(1)
	if skipZero {
		keep = 0
	}
	gatherAccumAVX2(unsafe.SliceData(acc), unsafe.SliceData(m), uintptr(ld), unsafe.SliceData(w),
		unsafe.SliceData(idx), uintptr(len(w)), uintptr(len(acc)), keep)
}

// flashDots is flashDotsGo over n keys whose rows of m lie ldm elements
// apart from m[0], each dh long; a holds FlashRows lanes, and b FlashRows
// lanes in mode dotsMax, n·FlashRows in mode dotsDS and nothing in
// dotsShift.
func flashDots(dst, xT, m []float32, ldm, n, dh int, scale float32, mode uintptr, a, b []float32) {
	_, _ = dst[:n*FlashRows], xT[:dh*FlashRows]
	if n > 0 && dh > 0 {
		_ = m[(n-1)*ldm+dh-1]
	}
	_ = a[FlashRows-1]
	switch mode {
	case dotsMax:
		_ = b[FlashRows-1]
	case dotsDS:
		_ = b[:n*FlashRows]
	case dotsShift:
	default:
		panic(fmt.Sprintf("tensor: flashDots mode %d", mode))
	}
	flashDotsAVX2(unsafe.SliceData(dst), unsafe.SliceData(xT), unsafe.SliceData(m), uintptr(ldm),
		uintptr(n), uintptr(dh), scale, mode, unsafe.SliceData(a), unsafe.SliceData(b))
}

// flashAccum is flashAccumGo over n keys whose rows of v lie ldv elements
// apart from v[0], each dv > 0 long; l and corr are FlashRows lanes or nil.
func flashAccum(accT, l, w, v []float32, ldv, n, dv int, corr []float32) {
	if dv < 1 {
		panic("tensor: flashAccum without value columns")
	}
	_, _ = accT[:dv*FlashRows], w[:n*FlashRows]
	if n > 0 {
		_ = v[(n-1)*ldv+dv-1]
	}
	if l != nil {
		_ = l[FlashRows-1]
	}
	if corr != nil {
		_ = corr[FlashRows-1]
	}
	flashAccumAVX2(unsafe.SliceData(accT), unsafe.SliceData(l), unsafe.SliceData(w), unsafe.SliceData(v),
		uintptr(ldv), uintptr(n), uintptr(dv), unsafe.SliceData(corr))
}

// flashScatter adds w[j·FlashRows+r]·x[r·ldx+c] to m[j·ldm+c] for rows r
// ascending in [0, nr), keys j < n and columns c < cols (a multiple of 8).
func flashScatter(m []float32, ldm int, w, x []float32, ldx, nr, n, cols int) {
	if n == 0 || nr == 0 || cols == 0 {
		return
	}
	if nr > FlashRows {
		panic(fmt.Sprintf("tensor: flashScatter over %d rows", nr))
	}
	_ = m[(n-1)*ldm+cols-1]
	_ = w[(n-1)*FlashRows+nr-1]
	_ = x[(nr-1)*ldx+cols-1]
	flashScatterAVX2(unsafe.SliceData(m), uintptr(ldm), unsafe.SliceData(w), unsafe.SliceData(x),
		uintptr(ldx), uintptr(nr), uintptr(n), uintptr(cols))
}

// expLanes is expRow over len(src) elements (a multiple of 4), up to the
// first group of four that holds a lane outside the normal exponent range;
// it returns how many elements it wrote.
func expLanes(dst, src []float32, shift, cut float32) int {
	if len(src) == 0 {
		return 0
	}
	_ = dst[len(src)-1]
	return int(expLanesAVX2(unsafe.SliceData(dst), unsafe.SliceData(src), uintptr(len(src)), shift, cut))
}

// geluLanes is geluRow over len(u) elements (a multiple of 4).
func geluLanes(y, u, bias []float32) {
	if len(u) == 0 {
		return
	}
	_, _ = y[len(u)-1], bias[len(u)-1]
	geluAVX2(unsafe.SliceData(y), unsafe.SliceData(u), unsafe.SliceData(bias), uintptr(len(u)))
}

// geluGradLanes is geluGradRow over len(z) elements (a multiple of 4).
func geluGradLanes(dz, z, dy []float32) {
	if len(z) == 0 {
		return
	}
	_, _ = dz[len(z)-1], dy[len(z)-1]
	geluGradAVX2(unsafe.SliceData(dz), unsafe.SliceData(z), unsafe.SliceData(dy), uintptr(len(z)))
}
