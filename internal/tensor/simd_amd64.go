package tensor

import (
	"fmt"
	"unsafe"
)

// Go side of the AVX2 micro-kernels in simd_amd64.s and vmath_amd64.s: CPU
// detection and the bounds-checked wrappers kernels.go calls for the columns
// simdCols reports and vmath.go for the elements mathLanes reports. The
// assembly trusts its arguments, so every extent it will touch is checked
// here first, once per call — in O(1) where an index list comes from a
// tensor.CSR, whose recorded largest index was checked when it was built.

//go:noescape
func accumAVX2(c, a *float32, aStride uintptr, b *float32, ldb, k, n, mode uintptr)

//go:noescape
func dotColsAVX2(dst, x *float32, k uintptr, bt *float32, ldbt, n uintptr)

//go:noescape
func pairDotsAVX2(dst, a *float32, lda uintptr, ai *int32, b *float32, ldb uintptr, bi *int32, n, k uintptr)

//go:noescape
func tileDotsAVX2(dst *float32, ldd uintptr, x *float32, ldx uintptr, mT *float32, nr, nb, k uintptr)

//go:noescape
func tileAccumAVX2(acc *float32, ldacc uintptr, w *float32, ldwr, ldwc uintptr, m *float32, ldm uintptr, nr, nc, k, keep uintptr)

//go:noescape
func csrAccumAVX2(acc *float32, ldacc uintptr, m *float32, ldm uintptr, w *float32, idx *int32, ptr *int32, rows, k uintptr)

//go:noescape
func flashDotsAVX2(dst, xT, m *float32, ldm, n, dh uintptr, scale float32, mode uintptr, a, b *float32)

//go:noescape
func flashAccumAVX2(accT, l, w, v *float32, ldv, n, dv uintptr, corr *float32)

//go:noescape
func flashScatterAVX2(m *float32, ldm uintptr, w, x *float32, ldx, nr, n, cols uintptr)

//go:noescape
func expLanesAVX2(dst, src *float32, n uintptr, shift, cut float32) uintptr

//go:noescape
func expSegAVX2(dst, src *float32, n uintptr, row *int32, shift *float32, cut float32) uintptr

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
// c[j] = init + Σ_{p<k} a[p·stride]·b[p·ldb+j] in one of the two forms of
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

// pairDots computes dst[e] = the first k columns (a multiple of 8) of
// Dot(row ai[e] of a, row bi[e] of b) for len(ai) entries (a positive
// multiple of 4), rows lda and ldb elements apart. The indexes come from a
// validated CSR and no index in ai exceeds maxA, none in bi maxB, so the
// extent the micro-kernel touches is checked here in O(1).
func pairDots(dst, a []float32, lda int, ai []int32, maxA int, b []float32, ldb int, bi []int32, maxB int, k int) {
	n := len(ai)
	if n == 0 || n%4 != 0 || k == 0 || k%8 != 0 {
		panic(fmt.Sprintf("tensor: pairDots over %d entries and %d columns", n, k))
	}
	_, _ = dst[n-1], bi[n-1]
	_, _ = a[maxA*lda+k-1], b[maxB*ldb+k-1]
	pairDotsAVX2(unsafe.SliceData(dst), unsafe.SliceData(a), uintptr(lda), unsafe.SliceData(ai),
		unsafe.SliceData(b), uintptr(ldb), unsafe.SliceData(bi), uintptr(n), uintptr(k))
}

// csrAccum adds w[e]·(row idx[e] of m) to row t of acc (rows ldacc apart)
// for every e in [ptr[t], ptr[t+1]), t < len(ptr)−1, over the first k
// columns (a positive multiple of 8). ptr is a validated CSR's,
// non-decreasing, and no index exceeds maxIdx, so the extent the
// micro-kernel touches is checked here in O(1).
func csrAccum(acc []float32, ldacc int, m []float32, ldm int, w []float32, idx, ptr []int32, maxIdx, k int) {
	rows := len(ptr) - 1
	if rows < 1 || k == 0 || k%8 != 0 {
		panic(fmt.Sprintf("tensor: csrAccum over %d rows and %d columns", rows, k))
	}
	_ = acc[(rows-1)*ldacc+k-1]
	if e0, e1 := ptr[0], ptr[rows]; e1 > e0 {
		_, _ = w[e0:e1], idx[e0:e1]
		_ = m[maxIdx*ldm+k-1]
	}
	csrAccumAVX2(unsafe.SliceData(acc), uintptr(ldacc), unsafe.SliceData(m), uintptr(ldm), unsafe.SliceData(w),
		unsafe.SliceData(idx), unsafe.SliceData(ptr), uintptr(rows), uintptr(k))
}

// tileAccum adds w[r·ldwr+c·ldwc]·(row c of m) to row r of acc for r < nr
// and c ascending below nc, over the first k columns (a positive multiple of
// 8), rows ldacc and ldm elements apart; with keep false a ±0 weight's term
// is left out.
func tileAccum(acc []float32, ldacc int, w []float32, ldwr, ldwc int, m []float32, ldm, nr, nc, k int, keep bool) {
	if nr < 1 || nc < 0 || ldwr < 0 || ldwc < 0 || k == 0 || k%8 != 0 {
		panic(fmt.Sprintf("tensor: tileAccum %dx%d over %d columns, weights %d and %d apart", nr, nc, k, ldwr, ldwc))
	}
	_ = acc[(nr-1)*ldacc+k-1]
	if nc > 0 {
		_ = w[(nr-1)*ldwr+(nc-1)*ldwc]
		_ = m[(nc-1)*ldm+k-1]
	}
	kp := uintptr(0)
	if keep {
		kp = 1
	}
	tileAccumAVX2(unsafe.SliceData(acc), uintptr(ldacc), unsafe.SliceData(w), uintptr(ldwr), uintptr(ldwc),
		unsafe.SliceData(m), uintptr(ldm), uintptr(nr), uintptr(nc), uintptr(k), kp)
}

// tileDots computes dst[r·ld+c] = the first k columns (a multiple of 8) of
// Dot(row r of x, row c of m) for r < nr and c < nc (a positive multiple of
// 8), rows ldx and ldm elements apart. It transposes the keys eight at a
// time, one per lane, as many blocks of them per call as fit a stack
// buffer, and every row of the tile goes through them.
func tileDots(dst []float32, ld int, x []float32, ldx, nr int, m []float32, ldm, nc, k int) {
	if nr < 1 || nc == 0 || nc%8 != 0 || nc > ld || k == 0 || k%8 != 0 {
		panic(fmt.Sprintf("tensor: tileDots %dx%d over %d columns, ld=%d", nr, nc, k, ld))
	}
	_ = dst[(nr-1)*ld+nc-1]
	_ = x[(nr-1)*ldx+k-1]
	_ = m[(nc-1)*ldm+k-1]
	var stack [1024]float32
	mT := stack[:]
	if 8*k > len(mT) {
		mT = make([]float32, 8*k)
	}
	per := len(mT) / (8 * k) // key blocks per call
	for b0 := 0; b0 < nc/8; b0 += per {
		nb := min(per, nc/8-b0)
		for b := range nb {
			for l := range 8 {
				key := (b0+b)*8 + l
				for i, v := range m[key*ldm : key*ldm+k] {
					mT[(b*k+i)*8+l] = v
				}
			}
		}
		tileDotsAVX2(&dst[b0*8], uintptr(ld), unsafe.SliceData(x), uintptr(ldx), unsafe.SliceData(mT),
			uintptr(nr), uintptr(nb), uintptr(k))
	}
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

// expLanes is expScalar over len(src) elements (a multiple of 4), up to the
// first group of four that holds a lane outside the normal exponent range;
// it returns how many elements it wrote.
func expLanes(dst, src []float32, shift, cut float32) int {
	if len(src) == 0 {
		return 0
	}
	_ = dst[len(src)-1]
	return int(expLanesAVX2(unsafe.SliceData(dst), unsafe.SliceData(src), uintptr(len(src)), shift, cut))
}

// expSeg is expLanes with element i shifted by shift[row[i]]; no row index
// exceeds maxRow.
func expSeg(dst, src []float32, row []int32, maxRow int, shift []float32, cut float32) int {
	if len(src) == 0 {
		return 0
	}
	_, _ = dst[len(src)-1], row[len(src)-1]
	_ = shift[maxRow]
	return int(expSegAVX2(unsafe.SliceData(dst), unsafe.SliceData(src), uintptr(len(src)),
		unsafe.SliceData(row), unsafe.SliceData(shift), cut))
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
