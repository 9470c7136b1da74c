package tensor

import "fmt"

// Row-block micro-kernels of the flash-attention kernel
// (internal/attention/flash.go): FlashRows query rows go through a key tile
// together, one row per lane. A block's operands and per-key results are
// stored lane-interleaved — row r's element d at [d·FlashRows+r], key j's
// value for row r at [(j−j0)·FlashRows+r] — so the lanes step through their
// rows side by side; the key-side operands (K, V, dK, dV) stay row-major.
//
// Every lane is one accumulator of the row-at-a-time kernel and takes the
// same terms in the same order: Dot's grouping for every dot (four products
// summed left to right, then added to the running sum; the tail one product
// at a time, from +0), keys j ascending into a row's sums, rows r ascending
// into a key's. The Go loops below define the arithmetic, each product
// written float32(x*y) as everywhere in the package; with AVX2 the kernels
// of flash_amd64.s run the same operation per lane (the scatter on the
// leading multiple-of-8 columns, the Go loop on the rest), so which path ran
// cannot be told from a result.

// FlashRows is the row block of the flash micro-kernels: one YMM register of
// float32 lanes.
const FlashRows = 8

// flashDots modes (flashDotsAVX2's mode argument).
const (
	dotsMax   = 0 // scores·scale, streaming max, then shifted by −max
	dotsShift = 1 // scores·scale shifted by −a
	dotsDS    = 2 // b·(dot − a)·scale
)

// FlashScores computes, for keys j in [j0, j1) and the block's rows r, the
// scaled score Dot(q_r, k_j)·scale shifted by the row's −M_r:
// dst[(j−j0)·FlashRows+r] = Dot(q_r, k_j)·scale + (−M_r), with qT the block
// of Q lane-interleaved (k.Cols·FlashRows elements).
//
// With sub != nil it is the forward's streaming softmax step: M_r is the
// running maximum m_r updated by the tile — the tile's largest score, found
// with `>` keys ascending (the first of equals wins, NaN never), replaces
// m_r only where it is greater — and sub_r receives old m_r − M_r, m_r the
// new M_r. With sub == nil m holds M (the backward's logsumexp) and is left
// as it is.
func FlashScores(dst, qT []float32, k *Mat, j0, j1 int, scale float32, m, sub []float32) {
	checkFlashTile("FlashScores", dst, qT, k, j0, j1)
	mode := uintptr(dotsShift)
	if sub != nil {
		mode = dotsMax
		_ = sub[FlashRows-1]
	}
	_ = m[FlashRows-1]
	flashDotsDispatch(dst, qT, k, j0, j1, scale, mode, m, sub)
}

// FlashDS computes the backward's score gradients for keys j in [j0, j1):
// ds[(j−j0)·FlashRows+r] = p·(Dot(dO_r, v_j) − d_r)·scale, left to right,
// with p the same element of p (the probabilities), dOT the block of dO
// lane-interleaved and d the rows' dO_r·O_r.
func FlashDS(ds, p, dOT []float32, v *Mat, j0, j1 int, d []float32, scale float32) {
	checkFlashTile("FlashDS", ds, dOT, v, j0, j1)
	if len(p) < (j1-j0)*FlashRows {
		panic(fmt.Sprintf("tensor: FlashDS %d keys, len(p)=%d", j1-j0, len(p)))
	}
	_ = d[FlashRows-1]
	flashDotsDispatch(ds, dOT, v, j0, j1, scale, dotsDS, d, p)
}

func checkFlashTile(name string, dst, xT []float32, m *Mat, j0, j1 int) {
	if j0 < 0 || j1 < j0 || j1 > m.Rows || len(dst) < (j1-j0)*FlashRows || len(xT) < m.Cols*FlashRows {
		panic(fmt.Sprintf("tensor: %s keys [%d,%d) of %dx%d, len(dst)=%d len(xT)=%d",
			name, j0, j1, m.Rows, m.Cols, len(dst), len(xT)))
	}
}

func flashDotsDispatch(dst, xT []float32, m *Mat, j0, j1 int, scale float32, mode uintptr, a, b []float32) {
	n := j1 - j0
	if useAVX2 {
		flashDots(dst[:n*FlashRows], xT[:m.Cols*FlashRows], m.Data[j0*m.Cols:], m.Cols, n, m.Cols, scale, mode, a, b)
		return
	}
	flashDotsGo(dst, xT, m, j0, j1, scale, mode, a, b)
}

// flashDotsGo is flashDots' definition (FlashScores in modes dotsMax and
// dotsShift, FlashDS in mode dotsDS): the keys' lane-wise dots first, then
// the mode's arithmetic over them.
func flashDotsGo(dst, xT []float32, m *Mat, j0, j1 int, scale float32, mode uintptr, a, b []float32) {
	const R = FlashRows
	dh := m.Cols
	xT = xT[:dh*R]
	for j := j0; j < j1; j++ {
		mj := m.Row(j)[:dh]
		var s [R]float32
		d := 0
		for ; d+4 <= dh; d += 4 {
			x0, x1 := (*[R]float32)(xT[d*R:]), (*[R]float32)(xT[d*R+R:])
			x2, x3 := (*[R]float32)(xT[d*R+2*R:]), (*[R]float32)(xT[d*R+3*R:])
			k0, k1, k2, k3 := mj[d], mj[d+1], mj[d+2], mj[d+3]
			for r := range s {
				s[r] += float32(x0[r]*k0) + float32(x1[r]*k1) + float32(x2[r]*k2) + float32(x3[r]*k3)
			}
		}
		for ; d < dh; d++ {
			x0, k0 := (*[R]float32)(xT[d*R:]), mj[d]
			for r := range s {
				s[r] += float32(x0[r] * k0)
			}
		}
		*(*[R]float32)(dst[(j-j0)*R:]) = s
	}
	lanes, out := (*[R]float32)(a), dst[:(j1-j0)*R]
	switch mode {
	case dotsShift:
		for x, v := range out {
			out[x] = float32(v*scale) + -lanes[x%R]
		}
	case dotsDS:
		for x, v := range out {
			out[x] = b[x] * (v - lanes[x%R]) * scale
		}
	case dotsMax:
		var tm, sh [R]float32
		for r := range tm {
			tm[r] = negInf32
		}
		for x, v := range out {
			v = float32(v * scale)
			out[x] = v
			if v > tm[x%R] {
				tm[x%R] = v
			}
		}
		for r, old := range lanes {
			newM := old
			if tm[r] > newM {
				newM = tm[r]
			}
			b[r], lanes[r], sh[r] = old-newM, newM, -newM
		}
		for x := range out {
			out[x] += sh[x%R]
		}
	}
}

// FlashAccum adds a tile's weighted value rows into the block's running
// sums: for keys j ascending in [j0, j1), accT[x·FlashRows+r] +=
// w_jr·v_j[x] and l_r += w_jr, with w_jr = w[(j−j0)·FlashRows+r]. With corr
// != nil both are first rescaled, l_r·corr_r and accT·corr_r (the forward's
// streaming softmax); with l == nil there is no running sum of the weights
// (the backward's dQ, accumulated as accT).
func FlashAccum(accT, l, w []float32, v *Mat, j0, j1 int, corr []float32) {
	n := j1 - j0
	if j0 < 0 || j1 < j0 || j1 > v.Rows || len(w) < n*FlashRows || len(accT) < v.Cols*FlashRows {
		panic(fmt.Sprintf("tensor: FlashAccum keys [%d,%d) of %dx%d, len(w)=%d len(accT)=%d",
			j0, j1, v.Rows, v.Cols, len(w), len(accT)))
	}
	if l != nil {
		_ = l[FlashRows-1]
	}
	if corr != nil {
		_ = corr[FlashRows-1]
	}
	if useAVX2 && v.Cols > 0 {
		flashAccum(accT[:v.Cols*FlashRows], l, w[:n*FlashRows], v.Data[j0*v.Cols:], v.Cols, n, v.Cols, corr)
		return
	}
	flashAccumGo(accT, l, w, v, j0, j1, corr)
}

// flashAccumGo takes two keys per sweep over the accumulators; each sum is
// evaluated left to right, so the terms still arrive one key at a time.
func flashAccumGo(accT, l, w []float32, v *Mat, j0, j1 int, corr []float32) {
	const R = FlashRows
	dv := v.Cols
	if corr != nil {
		c := (*[R]float32)(corr)
		if l != nil {
			for r, lr := range (*[R]float32)(l) {
				l[r] = lr * c[r]
			}
		}
		for x := 0; x < dv; x++ {
			acc := (*[R]float32)(accT[x*R:])
			for r := range acc {
				acc[r] *= c[r]
			}
		}
	}
	if l != nil {
		sum := (*[R]float32)(l)
		for j := j0; j < j1; j++ {
			for r, wr := range (*[R]float32)(w[(j-j0)*R:]) {
				sum[r] += wr
			}
		}
	}
	j := j0
	for ; j+2 <= j1; j += 2 {
		w0, w1 := (*[R]float32)(w[(j-j0)*R:]), (*[R]float32)(w[(j+1-j0)*R:])
		v0, v1 := v.Row(j)[:dv], v.Row(j + 1)[:dv]
		for x := 0; x < dv; x++ {
			acc, b0, b1 := (*[R]float32)(accT[x*R:]), v0[x], v1[x]
			for r := range acc {
				acc[r] = acc[r] + float32(w0[r]*b0) + float32(w1[r]*b1)
			}
		}
	}
	for ; j < j1; j++ {
		w0, v0 := (*[R]float32)(w[(j-j0)*R:]), v.Row(j)[:dv]
		for x := 0; x < dv; x++ {
			acc, b0 := (*[R]float32)(accT[x*R:]), v0[x]
			for r := range acc {
				acc[r] += float32(w0[r] * b0)
			}
		}
	}
}

// FlashScatter adds to each key row of a tile the block's rows weighted by
// the key's lanes: m.Row(j)[c] += w[(j−j0)·FlashRows+r]·x.Row(i0+r)[c] for
// rows r ascending in [0, nr), keys j in [j0, j1) — dK and dV, one load and
// one store of a key row per block. nr < FlashRows is a ragged last block;
// its missing lanes are not read.
func FlashScatter(m *Mat, j0, j1 int, w []float32, x *Mat, i0, nr int) {
	n := j1 - j0
	if j0 < 0 || j1 < j0 || j1 > m.Rows || len(w) < n*FlashRows || x.Cols != m.Cols ||
		nr < 0 || nr > FlashRows || i0 < 0 || i0+nr > x.Rows {
		panic(fmt.Sprintf("tensor: FlashScatter keys [%d,%d) of %dx%d, rows [%d,%d) of %dx%d, len(w)=%d",
			j0, j1, m.Rows, m.Cols, i0, i0+nr, x.Rows, x.Cols, len(w)))
	}
	if n == 0 || nr == 0 {
		return
	}
	nv := simdCols(m.Cols)
	if nv > 0 {
		flashScatter(m.Data[j0*m.Cols:], m.Cols, w[:n*FlashRows], x.Data[i0*x.Cols:], x.Cols, nr, n, nv)
	}
	flashScatterGo(m, j0, j1, w, x, i0, nr, nv)
}

// flashScatterGo is FlashScatter over columns [c0, m.Cols), four rows per
// sweep over a key row, each sum evaluated left to right.
func flashScatterGo(m *Mat, j0, j1 int, w []float32, x *Mat, i0, nr, c0 int) {
	n := m.Cols
	if c0 == n {
		return
	}
	for j := j0; j < j1; j++ {
		mj := m.Row(j)[c0:n]
		wj := w[(j-j0)*FlashRows : (j-j0)*FlashRows+nr]
		r := 0
		for ; r+4 <= nr; r += 4 {
			x0, x1 := x.Row(i0 + r)[c0:n][:len(mj)], x.Row(i0 + r + 1)[c0:n][:len(mj)]
			x2, x3 := x.Row(i0 + r + 2)[c0:n][:len(mj)], x.Row(i0 + r + 3)[c0:n][:len(mj)]
			w0, w1, w2, w3 := wj[r], wj[r+1], wj[r+2], wj[r+3]
			for c := range mj {
				mj[c] = mj[c] + float32(w0*x0[c]) + float32(w1*x1[c]) + float32(w2*x2[c]) + float32(w3*x3[c])
			}
		}
		for ; r < nr; r++ {
			x0, w0 := x.Row(i0 + r)[c0:n][:len(mj)], wj[r]
			for c := range mj {
				mj[c] += float32(w0 * x0[c])
			}
		}
	}
}
