package tensor

import (
	"fmt"
	"slices"
)

// Row-block kernels of the sparse attention family: one call takes every
// entry of a range of rows. The entries live in a CSR, validated once when
// it is built, so a call checks its operands against the CSR's recorded
// extents in O(1) instead of scanning an index list; and a tile — a dense
// rectangle of rows against a contiguous run of keys, the covering
// sub-blocks of attention.ClusterSparse — needs no index at all.
//
// Each output element gets exactly the operations, in exactly the order, of
// the plain per-entry Go sequence each function's comment spells out (Dot's
// grouping for a dot, entries ascending for a sum, the expRow arithmetic for
// an exponential), so which kernel ran, and how many rows one call took,
// cannot be told from a result. The AVX2 micro-kernels (simd_amd64.s,
// vmath_amd64.s) take the leading multiple-of-8 columns and multiple-of-4
// entries (whole blocks of 8 keys in a tile); the Go loops below take the
// rest, and everything on any other CPU.

// CSR is a validated compressed-sparse-row index: the entries of row r are
// the positions ptr[r] … ptr[r+1]−1, entry e names column col[e]. NewCSR
// checks it once and keeps its own copies, so nothing can change it
// afterwards, and the kernels below trust it.
type CSR struct {
	ptr, col []int32
	row      []int32 // row[e] is entry e's row
	maxCol   int32   // the largest column, −1 without entries
}

// NewCSR validates ptr (len rows+1, starting at 0, non-decreasing, ending at
// len(col)) and col (every column non-negative) and returns the index over
// copies of both.
func NewCSR(ptr, col []int32) *CSR {
	if len(ptr) == 0 || ptr[0] != 0 || int(ptr[len(ptr)-1]) != len(col) {
		panic(fmt.Sprintf("tensor: CSR row pointers %d long do not span %d entries", len(ptr), len(col)))
	}
	for r := 1; r < len(ptr); r++ {
		if ptr[r] < ptr[r-1] {
			panic(fmt.Sprintf("tensor: CSR row %d has pointers %d > %d", r-1, ptr[r-1], ptr[r]))
		}
	}
	c := &CSR{ptr: slices.Clone(ptr), col: slices.Clone(col), row: make([]int32, len(col)), maxCol: -1}
	for r := 0; r+1 < len(c.ptr); r++ {
		for e := c.ptr[r]; e < c.ptr[r+1]; e++ {
			c.row[e] = int32(r)
		}
	}
	for _, j := range c.col {
		if j < 0 {
			panic(fmt.Sprintf("tensor: CSR column %d", j))
		}
		c.maxCol = max(c.maxCol, j)
	}
	return c
}

// DenseCSR is the CSR of a rows×cols rectangle: row r holds columns 0…cols−1
// at positions r·cols….
func DenseCSR(rows, cols int) *CSR {
	ptr, col := make([]int32, rows+1), make([]int32, rows*cols)
	for r := range rows {
		ptr[r+1] = int32((r + 1) * cols)
		for c := range cols {
			col[r*cols+c] = int32(c)
		}
	}
	return NewCSR(ptr, col)
}

// Rows returns the number of rows.
func (c *CSR) Rows() int { return len(c.ptr) - 1 }

// NNZ returns the number of entries.
func (c *CSR) NNZ() int { return len(c.col) }

// MaxCol returns the largest column, −1 without entries: a matrix indexed
// by the columns needs MaxCol()+1 rows.
func (c *CSR) MaxCol() int { return int(c.maxCol) }

// span checks rows [lo, hi) and returns their entry positions [e0, e1).
func (c *CSR) span(name string, lo, hi int) (e0, e1 int) {
	if lo < 0 || hi < lo || hi > c.Rows() {
		panic(fmt.Sprintf("tensor: %s rows [%d,%d) of a %d-row CSR", name, lo, hi, c.Rows()))
	}
	return int(c.ptr[lo]), int(c.ptr[hi])
}

// CSRDots computes dst[e] = Dot(x.Row(r), m.Row(col[e])) for every entry e
// of the rows r in [lo, hi) — Dot's grouping per entry — with dst indexed
// by entry position. x needs a row per CSR row, m a row
// past the largest column.
func CSRDots(dst []float32, x *Mat, c *CSR, lo, hi int, m *Mat) {
	e0, e1 := c.span("CSRDots", lo, hi)
	if x.Cols != m.Cols || x.Rows < c.Rows() || int(c.maxCol) >= m.Rows || len(dst) < e1 {
		panic(fmt.Sprintf("tensor: CSRDots %d-row CSR with largest column %d, x %dx%d, m %dx%d, len(dst)=%d",
			c.Rows(), c.maxCol, x.Rows, x.Cols, m.Rows, m.Cols, len(dst)))
	}
	n := m.Cols
	nv, e4 := simdCols(n), e0
	if nv > 0 {
		e4 += (e1 - e0) &^ 3
		if e4 > e0 {
			pairDots(dst[e0:e4], x.Data, n, c.row[e0:e4], c.Rows()-1, m.Data, n, c.col[e0:e4], int(c.maxCol), nv)
		}
	}
	e := e0
	if nv == n {
		e = e4 // the micro-kernel took these entries whole
	}
	for ; e < e1; e++ {
		xr, mr := x.Row(int(c.row[e]))[:n], m.Row(int(c.col[e]))[:n]
		i, s := 0, float32(0)
		if e < e4 {
			i, s = nv, dst[e] // the micro-kernel's leading columns
		}
		for ; i+4 <= n; i += 4 {
			s += float32(xr[i]*mr[i]) + float32(xr[i+1]*mr[i+1]) + float32(xr[i+2]*mr[i+2]) + float32(xr[i+3]*mr[i+3])
		}
		for ; i < n; i++ {
			s += float32(xr[i] * mr[i])
		}
		dst[e] = s
	}
}

// CSRAccum adds w[e]·m.Row(col[e]) to acc.Row(r) for the entries e of every
// row r in [lo, hi), e ascending: the sequence `for e { Axpy(w[e],
// m.Row(col[e]), acc.Row(r)) }` per row, w indexed by entry position.
func CSRAccum(acc *Mat, c *CSR, lo, hi int, w []float32, m *Mat) {
	_, e1 := c.span("CSRAccum", lo, hi)
	if acc.Cols != m.Cols || acc.Rows < c.Rows() || int(c.maxCol) >= m.Rows || len(w) < e1 {
		panic(fmt.Sprintf("tensor: CSRAccum %d-row CSR with largest column %d, acc %dx%d, m %dx%d, len(w)=%d",
			c.Rows(), c.maxCol, acc.Rows, acc.Cols, m.Rows, m.Cols, len(w)))
	}
	if hi == lo {
		return
	}
	n := m.Cols
	nv := simdCols(n)
	if nv > 0 {
		csrAccum(acc.Data[lo*n:], n, m.Data, n, w, c.col, c.ptr[lo:hi+1], int(c.maxCol), nv)
		if nv == n {
			return
		}
	}
	for r := lo; r < hi; r++ {
		ar := acc.Row(r)[nv:]
		for e := c.ptr[r]; e < c.ptr[r+1]; e++ {
			Axpy(w[e], m.Row(int(c.col[e]))[nv:], ar)
		}
	}
}

// CSRExp computes dst[e] = float32(math.Exp(float64(src[e]+shift[r]))), and
// exactly 0 where src[e]+shift[r] <= cut, for every entry e of the rows r in
// [lo, hi): a softmax's exponential pass over many rows at once, each with
// its own shift (expRow's arithmetic per entry, with the cut). dst may alias
// src.
func CSRExp(dst, src []float32, c *CSR, lo, hi int, shift []float32, cut float32) {
	e0, e1 := c.span("CSRExp", lo, hi)
	if len(dst) < e1 || len(src) < e1 || len(shift) < hi {
		panic(fmt.Sprintf("tensor: CSRExp rows [%d,%d) over %d entries, len(dst)=%d len(src)=%d len(shift)=%d",
			lo, hi, e1, len(dst), len(src), len(shift)))
	}
	dst, src, row := dst[e0:e1], src[e0:e1], c.row[e0:e1]
	e := 0
	for lanes := mathLanes(len(src)); e < lanes; {
		e += expSeg(dst[e:lanes], src[e:lanes], row[e:lanes], hi-1, shift, cut)
		if e < lanes {
			// a group with a lane outside the normal exponent range: done
			// here, then the kernel resumes (expRow's hand-over)
			expSegScalar(dst[e:e+4], src[e:e+4], row[e:e+4], shift, cut)
			e += 4
		}
	}
	expSegScalar(dst[e:], src[e:], row[e:], shift, cut)
}

func expSegScalar(dst, src []float32, row []int32, shift []float32, cut float32) {
	for e := range src {
		expScalar(dst[e:e+1], src[e:e+1], shift[row[e]], cut)
	}
}

// TileDots computes dst[r·ld+c] = Dot(x.Row(r0+r), m.Row(c0+c)) for rows
// r < nr and keys c < nc — Dot's grouping per element — leaving dst's other
// elements as they are.
func TileDots(dst []float32, ld int, x *Mat, r0, nr int, m *Mat, c0, nc int) {
	checkTile("TileDots", x, r0, nr, m, c0, nc)
	if nc > ld || (nr > 0 && len(dst) < (nr-1)*ld+nc) {
		panic(fmt.Sprintf("tensor: TileDots %dx%d into %d elements %d apart", nr, nc, len(dst), ld))
	}
	if nr == 0 || nc == 0 {
		return
	}
	n := m.Cols
	nv, n8 := simdCols(n), 0
	if nv > 0 {
		n8 = nc &^ 7
		if n8 > 0 {
			tileDots(dst, ld, x.Data[r0*n:], n, nr, m.Data[c0*n:], n, n8, nv)
		}
	}
	first := 0
	if nv == n {
		first = n8 // the micro-kernel took these keys whole
	}
	for r := range nr {
		xr, out := x.Row(r0 + r)[:n], dst[r*ld:r*ld+nc]
		for c := first; c < nc; c++ {
			mr := m.Row(c0 + c)[:n]
			i, s := 0, float32(0)
			if c < n8 {
				i, s = nv, out[c]
			}
			for ; i+4 <= n; i += 4 {
				s += float32(xr[i]*mr[i]) + float32(xr[i+1]*mr[i+1]) + float32(xr[i+2]*mr[i+2]) + float32(xr[i+3]*mr[i+3])
			}
			for ; i < n; i++ {
				s += float32(xr[i] * mr[i])
			}
			out[c] = s
		}
	}
}

// TileAccum adds w[r·ldr+c·ldc]·m.Row(c0+c) to acc.Row(r0+r) for rows
// r < nr and keys c ascending below nc: the sequence `for c {
// Axpy(w[r·ldr+c·ldc], m.Row(c0+c), acc.Row(r0+r)) }` per row — (ldr, ldc)
// = (ld, 1) reads a row-major tile, (1, ld) its transpose. With skipZero a
// ±0 weight leaves its term out, as MatMul's zero-skip does.
func TileAccum(acc *Mat, r0, nr int, w []float32, ldr, ldc int, m *Mat, c0, nc int, skipZero bool) {
	checkTile("TileAccum", acc, r0, nr, m, c0, nc)
	if ldr < 0 || ldc < 0 || (nr > 0 && nc > 0 && len(w) <= (nr-1)*ldr+(nc-1)*ldc) {
		panic(fmt.Sprintf("tensor: TileAccum %dx%d weights %d and %d apart, len(w)=%d", nr, nc, ldr, ldc, len(w)))
	}
	if nr == 0 {
		return
	}
	n := m.Cols
	nv := simdCols(n)
	if nv > 0 {
		tileAccum(acc.Data[r0*n:], n, w, ldr, ldc, m.Data[c0*n:], n, nr, nc, nv, !skipZero)
		if nv == n {
			return
		}
	}
	for r := range nr {
		ar := acc.Row(r0 + r)[nv:]
		for c := range nc {
			if wc := w[r*ldr+c*ldc]; !skipZero || wc != 0 {
				Axpy(wc, m.Row(c0 + c)[nv:], ar)
			}
		}
	}
}

// checkTile checks a tile's extents: rows [r0, r0+nr) of x against keys
// [c0, c0+nc) of m.
func checkTile(name string, x *Mat, r0, nr int, m *Mat, c0, nc int) {
	if x.Cols != m.Cols || r0 < 0 || nr < 0 || r0+nr > x.Rows || c0 < 0 || nc < 0 || c0+nc > m.Rows {
		panic(fmt.Sprintf("tensor: %s rows [%d,%d) of %dx%d against keys [%d,%d) of %dx%d",
			name, r0, r0+nr, x.Rows, x.Cols, c0, c0+nc, m.Rows, m.Cols))
	}
}
