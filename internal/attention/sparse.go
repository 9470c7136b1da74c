package attention

import (
	"fmt"
	"math"

	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// Sparse is topology-induced attention over a sparse.Pattern: only pairs in
// the pattern are attended, giving O(E) compute. Per-entry additive bias
// (Graphormer's SPD buckets restricted to the pattern) is supported via
// SetEdgeBias.
//
// The pattern's rows are the queries and its columns index the keys, which
// need not be the same rows: Forward takes P.S queries against any number
// of keys past the largest column, so an inference pass can compute only
// some query rows of a sequence (model.Inputs.Targets). Backward needs the
// square case.
type Sparse struct {
	P *sparse.Pattern

	bias     []float32 // per-entry additive bias (aligned with P.ColIdx)
	biasGrad []float32

	ws      *tensor.Workspace
	q, k, v *tensor.Mat
	o       *tensor.Mat
	probs   []float32 // per-entry softmax probabilities
	ds      []float32 // per-entry score gradients (set in Backward)
}

// SetWorkspace implements WorkspaceUser.
func (s *Sparse) SetWorkspace(ws *tensor.Workspace) { s.ws = ws }

// NewSparse constructs the kernel over p. Backward walks p's columns through
// p.Transpose(), built once per pattern and shared by every head.
func NewSparse(p *sparse.Pattern) *Sparse { return &Sparse{P: p} }

// Name implements Kernel.
func (s *Sparse) Name() string { return "sparse" }

// Pairs implements Kernel.
func (s *Sparse) Pairs() int64 { return int64(s.P.NNZ()) }

// SetEdgeBias installs a per-entry additive score bias aligned with the
// pattern's ColIdx order (nil disables).
func (s *Sparse) SetEdgeBias(b []float32) {
	if b != nil && len(b) != s.P.NNZ() {
		panic("attention: edge bias length mismatch")
	}
	s.bias = b
}

// EdgeBiasGrad returns per-entry bias gradients of the last Backward (nil if
// no bias was set).
func (s *Sparse) EdgeBiasGrad() []float32 { return s.biasGrad }

// Forward implements Kernel: q has one row per pattern row, k and v one row
// per key, at least one more than the largest pattern column.
func (s *Sparse) Forward(q, k, v *tensor.Mat) *tensor.Mat {
	if q.Cols != k.Cols || k.Rows != v.Rows {
		panic("attention: inconsistent q/k/v shapes")
	}
	if q.Rows != s.P.S {
		panic(fmt.Sprintf("attention: %d query rows for a %d-row pattern", q.Rows, s.P.S))
	}
	ix := s.P.Index()
	if j := ix.MaxCol(); j >= k.Rows {
		panic(fmt.Sprintf("attention: pattern column %d out of range of %d keys", j, k.Rows))
	}
	s.q, s.k, s.v = q, k, v
	scale := scaleFor(q.Cols)
	rp := s.P.RowPtr
	s.probs = s.ws.GetUninit(1, s.P.NNZ()).Data // every entry is scored below
	sh := s.ws.GetUninit(1, q.Rows)
	defer s.ws.Put(sh)
	o := s.ws.Get(q.Rows, v.Cols)
	// a worker's rows in one block: their scores (one pass over K), the
	// softmax of each row — SoftmaxInPlace's steps, the exponentials of all
	// the rows in one call — then the output (one pass over V)
	tensor.ParallelFor(q.Rows, func(lo, hi int) {
		e0, e1 := rp[lo], rp[hi]
		tensor.CSRDots(s.probs, q, ix, lo, hi, k)
		scaleScores(s.probs[e0:e1], scale, s.bias, int(e0))
		for i := lo; i < hi; i++ {
			if row := s.probs[rp[i]:rp[i+1]]; len(row) > 0 {
				sh.Data[i] = -rowMax(row[0], row[1:])
			}
		}
		tensor.CSRExp(s.probs, s.probs, ix, lo, hi, sh.Data, noCut)
		for i := lo; i < hi; i++ {
			if row := s.probs[rp[i]:rp[i+1]]; len(row) > 0 {
				scaleRow(row, float32(1/rowSum(0, row)))
			}
		}
		tensor.CSRAccum(o, ix, lo, hi, s.probs, v)
	})
	s.o = o
	return o
}

// Backward implements Kernel. Row pass computes per-entry score grads and
// dQ; column pass (over the transpose index) computes dK and dV.
func (s *Sparse) Backward(dO *tensor.Mat) (dq, dk, dv *tensor.Mat) {
	q, k, v := s.q, s.k, s.v
	if q.Rows != k.Rows {
		panic(fmt.Sprintf("attention: sparse backward needs as many queries as keys (%d vs %d)", q.Rows, k.Rows))
	}
	ix, t := s.P.Index(), s.P.Transpose()
	scale := scaleFor(q.Cols)
	rp := s.P.RowPtr
	nnz := s.P.NNZ()
	s.ds = s.ws.GetUninit(1, nnz).Data // every entry takes its dp below
	dq = s.ws.Get(q.Rows, q.Cols)
	dk = s.ws.Get(k.Rows, k.Cols)
	dv = s.ws.Get(v.Rows, v.Cols)
	// the weight each entry gives each gradient, in the order that gradient
	// reads them: dq by rows (CSR), dk and dv by columns (CSC)
	w := s.ws.GetUninit(3, nnz)
	defer s.ws.Put(w)
	wq, wk, wv := w.Row(0), w.Row(1), w.Row(2)
	// rows: dp and the softmax backward (over V), then dq (over K); columns:
	// dk (over Q), then dv (over dO) — one matrix per pass over a worker's
	// rows or columns
	tensor.ParallelFor(q.Rows, func(lo, hi int) {
		e0, e1 := rp[lo], rp[hi]
		tensor.CSRDots(s.ds, dO, ix, lo, hi, v) // dp per entry, held in ds
		for i := lo; i < hi; i++ {
			a, b := rp[i], rp[i+1]
			ds, p := s.ds[a:b], s.probs[a:b]
			softmaxGrad(ds, p, weightedSum(0, ds, p), scale, wq[a:b])
		}
		for e := e0; e < e1; e++ {
			at := t.Pos[e]
			wk[at], wv[at] = wq[e], s.probs[e]
		}
		tensor.CSRAccum(dq, ix, lo, hi, wq, k)
	})
	tensor.ParallelFor(k.Rows, func(lo, hi int) {
		tensor.CSRAccum(dk, t.Index, lo, hi, wk, q)
		tensor.CSRAccum(dv, t.Index, lo, hi, wv, dO)
	})
	if s.bias != nil {
		s.biasGrad = s.ws.GetUninit(1, nnz).Data
		copy(s.biasGrad, s.ds)
	} else {
		s.biasGrad = nil
	}
	return dq, dk, dv
}

// The per-row steps the sparse kernels share. Each spells out the scalar
// sequence the kernels ran row by row — SoftmaxInPlace, Dot, Axpy — so
// moving a row's calls into row blocks moves no bit; every product that
// feeds an add is written float32(x*y), so no compiler may fuse the two into
// one rounding.

// noCut exponentiates every entry: SoftmaxInPlace's softmax has no cutoff.
var noCut = float32(math.Inf(-1))

// rowMax continues mx with every s in row that is greater — `>`, so the
// first of equals wins and a NaN never does.
func rowMax(mx float32, row []float32) float32 {
	for _, s := range row {
		if s > mx {
			mx = s
		}
	}
	return mx
}

// rowSum continues sum with row's elements in order, in float64.
func rowSum(sum float64, row []float32) float64 {
	for _, e := range row {
		sum += float64(e)
	}
	return sum
}

// scaleRow multiplies row by inv.
func scaleRow(row []float32, inv float32) {
	for x := range row {
		row[x] *= inv
	}
}

// scaleScores turns a row of raw dots into scores, dot·scale + bias[e0+x]
// (no bias when bias is nil).
func scaleScores(row []float32, scale float32, bias []float32, e0 int) {
	for x, d := range row {
		sc := float32(d * scale)
		if bias != nil {
			sc += bias[e0+x]
		}
		row[x] = sc
	}
}

// weightedSum continues s with a[x]·b[x] for x ascending.
func weightedSum(s float32, a, b []float32) float32 {
	b = b[:len(a)]
	for x, v := range a {
		s += float32(v * b[x])
	}
	return s
}

// softmaxGrad turns a row's dp (held in ds) into score gradients
// p·(dp − dot), where dot is the row's Σ dp·p, and writes each one's
// weight in dq, k's coefficient ds·scale, to wq.
func softmaxGrad(ds, probs []float32, dot, scale float32, wq []float32) {
	probs, wq = probs[:len(ds)], wq[:len(ds)]
	for x, dp := range ds {
		g := probs[x] * (dp - dot)
		ds[x] = g
		wq[x] = float32(g * scale)
	}
}
