package tensor

import "fmt"

// The linear-algebra kernels: one implementation each. Every output element
// is reduced in a single accumulator, in strictly ascending reduction-index
// order, whatever the panel, the tile position within a worker chunk or the
// worker count: panels and tiles only reorder
// *independent* output elements relative to each other. That per-element
// operation sequence (p ascending, av==0 skipped in MatMul/TMatMul) is the
// package's determinism contract and must never change; kernels_test.go
// holds the plain triple-loop oracles it is checked against bit for bit.
//
// Every product below is written float32(x*y): the Go spec lets a compiler
// fuse x*y+z into one FMA — one rounding where the contract says two; arm64,
// ppc64le and s390x builds do — unless the product is explicitly
// converted. Where the compiler would not have fused, the conversion
// compiles to nothing.
//
// Under these loops sit two AVX2 micro-kernels (simd_amd64.s), used when
// the CPU has AVX2: each YMM lane carries one independent output element
// through the same multiply, the same add and the same order, so which path
// ran cannot be told from a result. They take the leading multiple-of-8
// columns of a call; the Go loops take the remainder — and, on any other
// CPU, everything.

// useAVX2 selects the lane-wise micro-kernels. Set once from what the CPU
// reports; only this package's tests flip it.
var useAVX2 = cpuHasAVX2()

// KernelISA names the instruction set the linear-algebra kernels run on:
// "avx2" or "portable" (the pure-Go loops). It follows the CPU alone, and it
// shows in how long a kernel takes, never in what it returns.
func KernelISA() string {
	if useAVX2 {
		return "avx2"
	}
	return "portable"
}

// simdCols is the one dispatch point: of n adjacent output columns, how many
// (counted from the first) the micro-kernels take. The Go loops own
// [simdCols(n), n).
func simdCols(n int) int {
	if useAVX2 {
		return n &^ 7
	}
	return 0
}

// accumMode picks, for the micro-kernel under MatMul, TMatMulAcc and
// WeightedRowSum, what an output element starts from and which terms it
// takes. The values are accumAVX2's mode bits (1: keep every term, 2: load).
type accumMode uintptr

const (
	accumZeroSkip accumMode = 0 // start from +0, leave out terms whose A element is ±0 (MatMul)
	accumLoadSkip accumMode = 2 // start from the value in C, same zero-skip (TMatMulAcc)
	accumLoadKeep accumMode = 3 // start from the value in C, every term kept (WeightedRowSum)
)

// Panel widths: output columns are processed in panels this wide so the
// active slab of the shared operand stays cache-resident across a chunk's
// row tiles. Numerics-neutral by construction; candidates from 64 to 512
// measured within 4 % of each other, so they are constants.
const (
	mmPanel = 256 // B-column panel of MatMul and TMatMul
	mtPanel = 128 // B-row panel of MatMulT
)

// MatMul computes C = A·B. C must be pre-allocated with shape A.Rows×B.Cols;
// it is overwritten.
//
// Zero-skip contract (pinned by TestMatMulZeroSkipSemantics): an A element
// that is exactly zero contributes nothing to its output row — the
// corresponding B row is skipped entirely, so NaN/Inf values in B rows that
// only ever meet zero A entries do NOT propagate (0·NaN is treated as a
// skip, not as IEEE NaN). TMatMul skips symmetrically on zero Aᵀ elements.
// MatMulT and Dot follow plain IEEE semantics (no skip).
func MatMul(c, a, b *Mat) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shapes %dx%d · %dx%d -> %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	if a.Cols == 0 { // empty reduction; also keeps b.Data[j0:] in range below
		c.Zero()
		return
	}
	ParallelFor(a.Rows, func(lo, hi int) { matmulChunk(c, a, b, lo, hi) })
}

// matmulChunk computes rows [lo,hi) of C = A·B, panel by panel. The
// micro-kernel takes a panel's multiple-of-8 columns one C row at a time (up
// to 64 columns share each broadcast A element, skipped as a whole when it
// is zero). The Go loops take the remaining columns — all of them on the
// portable path — with 2×4 output register tiles: per reduction step p the
// tile loads 4 B values and 2 A values and performs 8 multiply-adds entirely
// in registers (1.3 flops/load, versus a row-axpy formulation's 0.5),
// storing each output element once after the full k loop. Wider scalar tiles
// lose: 16 accumulators plus live operands exceed the 16 scalar float
// registers and spill. The per-row `av != 0` branch is the zero-skip
// contract.
func matmulChunk(c, a, b *Mat, lo, hi int) {
	k, m := a.Cols, b.Cols
	for j0 := 0; j0 < m; j0 += mmPanel {
		j1 := min(j0+mmPanel, m)
		jv := j0 + simdCols(j1-j0)
		if jv > j0 {
			for i := lo; i < hi; i++ {
				accumCols(c.Row(i)[j0:jv], a.Row(i), 1, b.Data[j0:], m, k, accumZeroSkip)
			}
		}
		i := lo
		for ; i+2 <= hi; i += 2 {
			// Re-slice to length k so the compiler can prove ai[p] in-bounds
			// for p < k and drop the per-iteration checks.
			ai0, ai1 := a.Row(i)[:k], a.Row(i + 1)[:k]
			ci0, ci1 := c.Row(i), c.Row(i+1)
			j := jv
			for ; j+4 <= j1; j += 4 {
				var c00, c01, c02, c03 float32
				var c10, c11, c12, c13 float32
				off := j
				p := 0
				// p unrolled ×2: per-element accumulation order stays
				// p-ascending (the p and p+1 contributions are added to the
				// same accumulator, in order), so numerics are unchanged.
				for ; p+2 <= k; p += 2 {
					bp := b.Data[off : off+4 : off+4]
					b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
					if av := ai0[p]; av != 0 {
						c00 += float32(av * b0)
						c01 += float32(av * b1)
						c02 += float32(av * b2)
						c03 += float32(av * b3)
					}
					if av := ai1[p]; av != 0 {
						c10 += float32(av * b0)
						c11 += float32(av * b1)
						c12 += float32(av * b2)
						c13 += float32(av * b3)
					}
					off += m
					bq := b.Data[off : off+4 : off+4]
					b0, b1, b2, b3 = bq[0], bq[1], bq[2], bq[3]
					if av := ai0[p+1]; av != 0 {
						c00 += float32(av * b0)
						c01 += float32(av * b1)
						c02 += float32(av * b2)
						c03 += float32(av * b3)
					}
					if av := ai1[p+1]; av != 0 {
						c10 += float32(av * b0)
						c11 += float32(av * b1)
						c12 += float32(av * b2)
						c13 += float32(av * b3)
					}
					off += m
				}
				for ; p < k; p++ {
					bp := b.Data[off : off+4 : off+4]
					b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
					if av := ai0[p]; av != 0 {
						c00 += float32(av * b0)
						c01 += float32(av * b1)
						c02 += float32(av * b2)
						c03 += float32(av * b3)
					}
					if av := ai1[p]; av != 0 {
						c10 += float32(av * b0)
						c11 += float32(av * b1)
						c12 += float32(av * b2)
						c13 += float32(av * b3)
					}
					off += m
				}
				ci0[j], ci0[j+1], ci0[j+2], ci0[j+3] = c00, c01, c02, c03
				ci1[j], ci1[j+1], ci1[j+2], ci1[j+3] = c10, c11, c12, c13
			}
			for ; j < j1; j++ { // column remainder: 2×1 tile
				var s0, s1 float32
				off := j
				for p := 0; p < k; p++ {
					bv := b.Data[off]
					if av := ai0[p]; av != 0 {
						s0 += float32(av * bv)
					}
					if av := ai1[p]; av != 0 {
						s1 += float32(av * bv)
					}
					off += m
				}
				ci0[j], ci1[j] = s0, s1
			}
		}
		for ; i < hi; i++ { // row remainder: 1×4 tiles + scalar corner
			ai := a.Row(i)
			ci := c.Row(i)
			j := jv
			for ; j+4 <= j1; j += 4 {
				var s0, s1, s2, s3 float32
				off := j
				for p := 0; p < k; p++ {
					if av := ai[p]; av != 0 {
						bp := b.Data[off : off+4 : off+4]
						s0 += float32(av * bp[0])
						s1 += float32(av * bp[1])
						s2 += float32(av * bp[2])
						s3 += float32(av * bp[3])
					}
					off += m
				}
				ci[j], ci[j+1], ci[j+2], ci[j+3] = s0, s1, s2, s3
			}
			for ; j < j1; j++ {
				var s float32
				off := j
				for p := 0; p < k; p++ {
					if av := ai[p]; av != 0 {
						s += float32(av * b.Data[off])
					}
					off += m
				}
				ci[j] = s
			}
		}
	}
}

// TMatMul computes C = Aᵀ·B. C must be A.Cols×B.Cols. Used for weight
// gradients dW = Xᵀ·dY. It is TMatMulAcc onto a zeroed C: one path.
func TMatMul(c, a, b *Mat) {
	c.Zero()
	TMatMulAcc(c, a, b)
}

// TMatMulAcc continues C = Aᵀ·B from the values already in C: every output
// element takes the value it holds and adds its terms in ascending row order
// (a zero Aᵀ element skipped, as in MatMul), exactly as if the rows of A and
// B followed the rows that produced C. So a reduction over consecutive row
// ranges — TMatMulAcc once per range, in order, onto a C that started at
// zero — is bit for bit the one-shot TMatMul over all the rows; the
// cross-process plan hands C from rank to rank that way.
func TMatMulAcc(c, a, b *Mat) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: TMatMul shapes (%dx%d)ᵀ · %dx%d -> %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	if a.Rows == 0 { // empty reduction; also keeps a.Data[i:] in range below
		return
	}
	ParallelFor(c.Rows, func(lo, hi int) { tmatmulChunk(c, a, b, lo, hi) })
}

// TMatMulSegAcc adds to C, segment by segment in bounds order, the product
// Aₛᵀ·Bₛ of each row range [bounds[s], bounds[s+1]) of A and B (empty ranges
// skipped): every output element forms a segment's product in an accumulator
// that starts from +0 — TMatMul's arithmetic — and only then adds it to the
// value C holds. That is the reduction order of separate per-segment weight
// gradients accumulated one after another, which is what lets a packed batch
// repeat the unpacked loop bit for bit. One fan-out covers all segments: a
// worker owns a slab of C's rows and the same slab of one pooled temporary,
// and per segment zeroes it, runs tmatmulChunk over the segment's rows and
// adds it in.
func TMatMulSegAcc(c, a, b *Mat, bounds []int32) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: TMatMulSegAcc shapes (%dx%d)ᵀ · %dx%d -> %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	for s := 0; s+1 < len(bounds); s++ {
		if bounds[s] > bounds[s+1] || bounds[s] < 0 || int(bounds[s+1]) > a.Rows {
			panic(fmt.Sprintf("tensor: TMatMulSegAcc bounds %v over %d rows", bounds, a.Rows))
		}
	}
	sl, _ := takeSlab(len(c.Data))
	defer sl.release()
	tmp := Mat{Rows: c.Rows, Cols: c.Cols, Data: sl.data[:len(c.Data)]}
	ParallelFor(c.Rows, func(lo, hi int) {
		t, g := tmp.Data[lo*c.Cols:hi*c.Cols], c.Data[lo*c.Cols:hi*c.Cols]
		for s := 0; s+1 < len(bounds); s++ {
			r0, r1 := int(bounds[s]), int(bounds[s+1])
			if r0 == r1 {
				continue
			}
			as := Mat{Rows: r1 - r0, Cols: a.Cols, Data: a.Data[r0*a.Cols : r1*a.Cols]}
			bs := Mat{Rows: r1 - r0, Cols: b.Cols, Data: b.Data[r0*b.Cols : r1*b.Cols]}
			clear(t)
			tmatmulChunk(&tmp, &as, &bs, lo, hi)
			for i, v := range t {
				g[i] += v
			}
		}
	})
}

// tmatmulChunk continues rows [lo,hi) of C += Aᵀ·B (rows of C index columns
// of A) from the values in C: matmulChunk's split, the micro-kernel walking A's column i at stride
// a.Cols. The Go loops use the same 2×4 register tile; here the 2 A values
// per step are contiguous (a.Data[p*cols+i : +2]), so both operand loads
// stream.
func tmatmulChunk(c, a, b *Mat, lo, hi int) {
	rows, ac, m := a.Rows, a.Cols, b.Cols
	for j0 := 0; j0 < m; j0 += mmPanel {
		j1 := min(j0+mmPanel, m)
		jv := j0 + simdCols(j1-j0)
		if jv > j0 {
			for i := lo; i < hi; i++ {
				accumCols(c.Row(i)[j0:jv], a.Data[i:], ac, b.Data[j0:], m, rows, accumLoadSkip)
			}
		}
		i := lo
		for ; i+2 <= hi; i += 2 {
			ci0, ci1 := c.Row(i), c.Row(i+1)
			j := jv
			for ; j+4 <= j1; j += 4 {
				c00, c01, c02, c03 := ci0[j], ci0[j+1], ci0[j+2], ci0[j+3]
				c10, c11, c12, c13 := ci1[j], ci1[j+1], ci1[j+2], ci1[j+3]
				offA, offB := i, j
				for p := 0; p < rows; p++ {
					ap := a.Data[offA : offA+2 : offA+2]
					bp := b.Data[offB : offB+4 : offB+4]
					b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
					if av := ap[0]; av != 0 {
						c00 += float32(av * b0)
						c01 += float32(av * b1)
						c02 += float32(av * b2)
						c03 += float32(av * b3)
					}
					if av := ap[1]; av != 0 {
						c10 += float32(av * b0)
						c11 += float32(av * b1)
						c12 += float32(av * b2)
						c13 += float32(av * b3)
					}
					offA += ac
					offB += m
				}
				ci0[j], ci0[j+1], ci0[j+2], ci0[j+3] = c00, c01, c02, c03
				ci1[j], ci1[j+1], ci1[j+2], ci1[j+3] = c10, c11, c12, c13
			}
			for ; j < j1; j++ { // column remainder
				s0, s1 := ci0[j], ci1[j]
				offA, offB := i, j
				for p := 0; p < rows; p++ {
					bv := b.Data[offB]
					ap := a.Data[offA : offA+2 : offA+2]
					if av := ap[0]; av != 0 {
						s0 += float32(av * bv)
					}
					if av := ap[1]; av != 0 {
						s1 += float32(av * bv)
					}
					offA += ac
					offB += m
				}
				ci0[j], ci1[j] = s0, s1
			}
		}
		for ; i < hi; i++ { // row remainder
			ci := c.Row(i)
			j := jv
			for ; j+4 <= j1; j += 4 {
				s0, s1, s2, s3 := ci[j], ci[j+1], ci[j+2], ci[j+3]
				offA, offB := i, j
				for p := 0; p < rows; p++ {
					if av := a.Data[offA]; av != 0 {
						bp := b.Data[offB : offB+4 : offB+4]
						s0 += float32(av * bp[0])
						s1 += float32(av * bp[1])
						s2 += float32(av * bp[2])
						s3 += float32(av * bp[3])
					}
					offA += ac
					offB += m
				}
				ci[j], ci[j+1], ci[j+2], ci[j+3] = s0, s1, s2, s3
			}
			for ; j < j1; j++ {
				s := ci[j]
				offA, offB := i, j
				for p := 0; p < rows; p++ {
					if av := a.Data[offA]; av != 0 {
						s += float32(av * b.Data[offB])
					}
					offA += ac
					offB += m
				}
				ci[j] = s
			}
		}
	}
}

// MatMulT computes C = A·Bᵀ. C must be A.Rows×B.Rows — the cache-friendly
// orientation for attention scores Q·Kᵀ. Each C row is the row-gemv of a
// B-row panel against the A row (C[i][j] = b_j·a_i; products commute
// bitwise), so every element is the plain Dot of the two rows. B is prepared
// once per call as a dotRows (on the lane-wise path: transposed into pooled
// scratch, returned before MatMulT does).
func MatMulT(c, a, b *Mat) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulT shapes %dx%d · (%dx%d)ᵀ -> %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	m := b.Rows
	d := dotRows{m: b}
	if d.lanewise() {
		s, _ := takeSlab(len(b.Data))
		defer s.release()
		s.mat = Mat{Rows: b.Cols, Cols: m, Data: s.data[:len(b.Data)]}
		transposeInto(&s.mat, b)
		d.t = &s.mat
	}
	ParallelFor(a.Rows, func(lo, hi int) {
		for j0 := 0; j0 < m; j0 += mtPanel {
			j1 := min(j0+mtPanel, m)
			for i := lo; i < hi; i++ {
				d.matVec(c.Row(i)[j0:j1], a.Row(i), j0, j1)
			}
		}
	})
}

// dotRows is a matrix prepared for repeated row-gemvs against it. What the
// preparation buys: the lane-wise Dot keeps eight *rows'* running sums in
// one register, and Dot's grouping (four products summed, then added to the
// running sum) is along a row — so the eight lanes must step through their
// rows together, which is a contiguous load only if the operand is stored
// transposed. On the portable path there is no copy and matVec is
// matVecRows itself.
type dotRows struct {
	m *Mat // the operand as given
	t *Mat // mᵀ, or nil on the portable path
}

// lanewise reports whether the micro-kernel would take any of m's rows, i.e.
// whether a transposed copy is worth making.
func (d dotRows) lanewise() bool { return d.m.Cols > 0 && simdCols(d.m.Rows) > 0 }

// matVec computes dst[r-lo] = m.Row(r)·x for rows r in [lo, hi), each the
// plain Dot of the row with x.
func (d dotRows) matVec(dst, x []float32, lo, hi int) {
	n := 0
	if d.t != nil {
		n = simdCols(hi - lo)
		dotCols(dst[:n], x, d.t.Data[lo:], d.t.Cols)
	}
	matVecRows(dst[n:], d.m, x, lo+n, hi)
}

// Dot returns the inner product of two equal-length slices: 4-way unrolled,
// single accumulator, strictly ascending index order.
func Dot(a, b []float32) float32 {
	var s float32
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s += float32(a[i]*b[i]) + float32(a[i+1]*b[i+1]) + float32(a[i+2]*b[i+2]) + float32(a[i+3]*b[i+3])
	}
	for ; i < n; i++ {
		s += float32(a[i] * b[i])
	}
	return s
}

// Axpy computes y += alpha*x for equal-length slices.
func Axpy(alpha float32, x, y []float32) {
	n := len(y)
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += float32(alpha * x[i])
		y[i+1] += float32(alpha * x[i+1])
		y[i+2] += float32(alpha * x[i+2])
		y[i+3] += float32(alpha * x[i+3])
	}
	for ; i < n; i++ {
		y[i] += float32(alpha * x[i])
	}
}

// matVecRows processes four rows per sweep so each loaded x element feeds
// four accumulator chains. The per-row reduction statement is Dot's 4-way
// unroll verbatim (single chain, ascending index).
func matVecRows(dst []float32, m *Mat, x []float32, lo, hi int) {
	n := m.Cols
	x = x[:n]
	r := lo
	for ; r+4 <= hi; r += 4 {
		r0 := m.Row(r)[:n]
		r1 := m.Row(r + 1)[:n]
		r2 := m.Row(r + 2)[:n]
		r3 := m.Row(r + 3)[:n]
		var s0, s1, s2, s3 float32
		p := 0
		for ; p+4 <= n; p += 4 {
			x0, x1, x2, x3 := x[p], x[p+1], x[p+2], x[p+3]
			s0 += float32(r0[p]*x0) + float32(r0[p+1]*x1) + float32(r0[p+2]*x2) + float32(r0[p+3]*x3)
			s1 += float32(r1[p]*x0) + float32(r1[p+1]*x1) + float32(r1[p+2]*x2) + float32(r1[p+3]*x3)
			s2 += float32(r2[p]*x0) + float32(r2[p+1]*x1) + float32(r2[p+2]*x2) + float32(r2[p+3]*x3)
			s3 += float32(r3[p]*x0) + float32(r3[p+1]*x1) + float32(r3[p+2]*x2) + float32(r3[p+3]*x3)
		}
		for ; p < n; p++ {
			xp := x[p]
			s0 += float32(r0[p] * xp)
			s1 += float32(r1[p] * xp)
			s2 += float32(r2[p] * xp)
			s3 += float32(r3[p] * xp)
		}
		dst[r-lo] = s0
		dst[r-lo+1] = s1
		dst[r-lo+2] = s2
		dst[r-lo+3] = s3
	}
	for ; r < hi; r++ {
		dst[r-lo] = Dot(m.Row(r), x)
	}
}

// WeightedRowSum accumulates acc[c] += Σ w[r-lo]·m.Row(r)[c] over rows r in
// [lo, hi), r strictly ascending (the row order is part of the determinism
// contract): the axpy sequence `for r { Axpy(w[r-lo], m.Row(r), acc) }`,
// fused four rows per sweep so one load/store of each acc element covers
// four weighted rows. The per-element expression is evaluated left to right,
// which is exactly the rounding order of the four sequential axpys.
func WeightedRowSum(acc []float32, m *Mat, w []float32, lo, hi int) {
	if lo < 0 || hi < lo || hi > m.Rows || len(acc) != m.Cols || len(w) < hi-lo {
		panic(fmt.Sprintf("tensor: WeightedRowSum rows [%d,%d) of %dx%d, len(acc)=%d len(w)=%d",
			lo, hi, m.Rows, m.Cols, len(acc), len(w)))
	}
	n := m.Cols
	acc = acc[:n]
	// The micro-kernel walks the rows one at a time per column block; the
	// Go loop fuses four per sweep. Same sums, same order.
	nv := simdCols(n)
	if nv > 0 {
		accumCols(acc[:nv], w, 1, m.Data[lo*n:], n, hi-lo, accumLoadKeep)
	}
	if nv == n {
		return
	}
	r := lo
	for ; r+4 <= hi; r += 4 {
		r0 := m.Row(r)[:n]
		r1 := m.Row(r + 1)[:n]
		r2 := m.Row(r + 2)[:n]
		r3 := m.Row(r + 3)[:n]
		w0, w1, w2, w3 := w[r-lo], w[r-lo+1], w[r-lo+2], w[r-lo+3]
		for c := nv; c < n; c++ {
			acc[c] = acc[c] + float32(w0*r0[c]) + float32(w1*r1[c]) + float32(w2*r2[c]) + float32(w3*r3[c])
		}
	}
	for ; r < hi; r++ {
		Axpy(w[r-lo], m.Row(r)[nv:], acc[nv:])
	}
}
