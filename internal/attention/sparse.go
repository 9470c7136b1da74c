package attention

import (
	"fmt"

	"torchgt/internal/tensor"

	"torchgt/internal/sparse"
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

	// transpose index (CSC) for race-free backward over columns, built by
	// the first Backward — inference never needs it
	colPtr   []int32
	rowIdx   []int32 // row of each CSC entry
	entryIdx []int32 // original CSR entry index of each CSC entry

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

// NewSparse constructs the kernel over p.
func NewSparse(p *sparse.Pattern) *Sparse { return &Sparse{P: p} }

// buildTranspose builds the CSC index of the (square) pattern.
func (s *Sparse) buildTranspose() {
	p := s.P
	nnz := p.NNZ()
	s.colPtr = make([]int32, p.S+1)
	for _, j := range p.ColIdx {
		s.colPtr[j+1]++
	}
	for i := 0; i < p.S; i++ {
		s.colPtr[i+1] += s.colPtr[i]
	}
	s.rowIdx = make([]int32, nnz)
	s.entryIdx = make([]int32, nnz)
	next := append([]int32(nil), s.colPtr[:p.S]...)
	for i := 0; i < p.S; i++ {
		for e := p.RowPtr[i]; e < p.RowPtr[i+1]; e++ {
			j := p.ColIdx[e]
			pos := next[j]
			next[j]++
			s.rowIdx[pos] = int32(i)
			s.entryIdx[pos] = e
		}
	}
}

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
	for _, j := range s.P.ColIdx {
		if int(j) >= k.Rows {
			panic(fmt.Sprintf("attention: pattern column %d out of range of %d keys", j, k.Rows))
		}
	}
	s.q, s.k, s.v = q, k, v
	scale := scaleFor(q.Cols)
	nnz := s.P.NNZ()
	s.probs = s.ws.GetVec(nnz)
	o := s.ws.Get(q.Rows, v.Cols)
	tensor.ParallelFor(q.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e0, e1 := s.P.RowPtr[i], s.P.RowPtr[i+1]
			if e0 == e1 {
				continue
			}
			qi := q.Row(i)
			row := s.probs[e0:e1]
			for e := e0; e < e1; e++ {
				sc := tensor.Dot(qi, k.Row(int(s.P.ColIdx[e]))) * scale
				if s.bias != nil {
					sc += s.bias[e]
				}
				row[e-e0] = sc
			}
			tensor.SoftmaxInPlace(row)
			oi := o.Row(i)
			for e := e0; e < e1; e++ {
				tensor.Axpy(row[e-e0], v.Row(int(s.P.ColIdx[e])), oi)
			}
		}
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
	if s.colPtr == nil {
		s.buildTranspose()
	}
	scale := scaleFor(q.Cols)
	nnz := s.P.NNZ()
	s.ds = s.ws.GetVec(nnz)
	dq = s.ws.Get(q.Rows, q.Cols)
	dk = s.ws.Get(k.Rows, k.Cols)
	dv = s.ws.Get(v.Rows, v.Cols)
	tensor.ParallelFor(q.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e0, e1 := s.P.RowPtr[i], s.P.RowPtr[i+1]
			if e0 == e1 {
				continue
			}
			dOi := dO.Row(i)
			// dp per entry, then softmax backward within the row
			var dot float32
			for e := e0; e < e1; e++ {
				dp := tensor.Dot(dOi, v.Row(int(s.P.ColIdx[e])))
				s.ds[e] = dp // temporarily store dp
				dot += dp * s.probs[e]
			}
			dqi := dq.Row(i)
			for e := e0; e < e1; e++ {
				ds := s.probs[e] * (s.ds[e] - dot)
				s.ds[e] = ds
				tensor.Axpy(ds*scale, k.Row(int(s.P.ColIdx[e])), dqi)
			}
		}
	})
	tensor.ParallelFor(k.Rows, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			dkj := dk.Row(j)
			dvj := dv.Row(j)
			for c := s.colPtr[j]; c < s.colPtr[j+1]; c++ {
				i := int(s.rowIdx[c])
				e := s.entryIdx[c]
				tensor.Axpy(s.ds[e]*scale, q.Row(i), dkj)
				tensor.Axpy(s.probs[e], dO.Row(i), dvj)
			}
		}
	})
	if s.bias != nil {
		s.biasGrad = s.ws.GetVec(nnz)
		copy(s.biasGrad, s.ds)
	} else {
		s.biasGrad = nil
	}
	return dq, dk, dv
}
