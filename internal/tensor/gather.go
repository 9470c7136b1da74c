package tensor

import "fmt"

// Indexed-row kernels: one row's per-pair inner loop of the sparse
// attention family, where the rows one query meets are named by an index
// list instead of lying next to each other (csr.go takes many rows a call). Each output element gets exactly the
// products and adds, in exactly the order, of the plain Dot/Axpy sequence
// the comment on each function spells out, so a caller can move from that
// sequence to one call without moving a bit. The AVX2 micro-kernels
// (simd_amd64.s) take the leading multiple-of-8 columns; the Go loops below
// take the remainder, and everything on any other CPU.

// GatherDots computes dst[e] = Dot(x, m.Row(idx[e])) for every e: Dot's
// grouping (four products summed left to right, then added to the running
// sum; the tail one product at a time) per entry. Entries may repeat and
// come in any order; every index must lie in [0, m.Rows).
func GatherDots(dst, x []float32, m *Mat, idx []int32) {
	if len(dst) != len(idx) || len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: GatherDots %d entries into %d outputs, len(x)=%d against %dx%d",
			len(idx), len(dst), len(x), m.Rows, m.Cols))
	}
	n := m.Cols
	nv := simdCols(n)
	if nv > 0 {
		gatherDotCols(dst, x[:nv], m.Data, n, idx)
		if nv == n {
			return
		}
	}
	x = x[:n]
	for e, r := range idx {
		row := m.Row(int(r))[:n]
		var s float32
		if nv > 0 {
			s = dst[e]
		}
		// Dot's loop from column nv on (a multiple of 8, so of 4: the
		// groups line up with Dot's own).
		i := nv
		for ; i+4 <= n; i += 4 {
			s += float32(x[i]*row[i]) + float32(x[i+1]*row[i+1]) + float32(x[i+2]*row[i+2]) + float32(x[i+3]*row[i+3])
		}
		for ; i < n; i++ {
			s += float32(x[i] * row[i])
		}
		dst[e] = s
	}
}

// GatherWeightedRowSum adds w[e]·m.Row(idx[e]) to acc for e ascending: the
// sequence `for e { Axpy(w[e], m.Row(idx[e]), acc) }`, every product rounded
// before its add. With skipZero a ±0 weight leaves its term out — so a NaN
// or Inf in a row that only meets zero weights does not reach acc — as
// MatMul's zero-skip does; NaN weights are never skipped. Entries may repeat
// and come in any order; every index must lie in [0, m.Rows).
func GatherWeightedRowSum(acc []float32, m *Mat, w []float32, idx []int32, skipZero bool) {
	if len(acc) != m.Cols || len(w) != len(idx) {
		panic(fmt.Sprintf("tensor: GatherWeightedRowSum %d weights for %d entries, len(acc)=%d against %dx%d",
			len(w), len(idx), len(acc), m.Rows, m.Cols))
	}
	n := m.Cols
	nv := simdCols(n)
	if nv > 0 {
		gatherAccumCols(acc[:nv], m.Data, n, w, idx, skipZero)
		if nv == n {
			return
		}
	}
	for e, r := range idx {
		if we := w[e]; !skipZero || we != 0 {
			Axpy(we, m.Row(int(r))[nv:], acc[nv:])
		}
	}
}
