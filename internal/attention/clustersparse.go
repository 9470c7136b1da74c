package attention

import (
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// ClusterSparse computes attention over a sparse.Reformed layout: kept
// clusters stay in CSR form while transferred clusters are dense db×db
// sub-blocks. Sub-block scores are computed block-centrically (contiguous
// Q and K rows — the locality the paper's reformation buys), then a
// row-centric pass performs the softmax across both structures. The entries
// inside sub-blocks carry a single shared additive bias (they all represent
// distance-1 pairs after compaction). The keep part's transpose and the
// block coverage come from R.Keep.Transpose() and R.Coverage(), built once
// per layout and shared by every head.
type ClusterSparse struct {
	R *sparse.Reformed

	keepBias     []float32 // per keep-entry bias
	keepBiasGrad []float32
	blockBias    float32 // shared bias for all sub-block entries
	blockBiasSet bool
	blockBiasGrd float32

	ws         *tensor.Workspace
	q, k, v    *tensor.Mat
	o          *tensor.Mat
	keepProbs  []float32
	keepDs     []float32
	blockProbs []float32 // len nb*db*db, row-major within block
	blockDs    []float32
}

// SetWorkspace implements WorkspaceUser.
func (c *ClusterSparse) SetWorkspace(ws *tensor.Workspace) { c.ws = ws }

// NewClusterSparse constructs the kernel over a reformed layout.
func NewClusterSparse(r *sparse.Reformed) *ClusterSparse { return &ClusterSparse{R: r} }

// span names the positions [a0, a0+db) of a block side that lie inside the
// sequence, as a slice of seq (= 0, 1, …, S−1).
func span(seq []int32, a0 int32, db int) []int32 {
	lo := min(int(a0), len(seq))
	return seq[lo:min(lo+db, len(seq))]
}

// Name implements Kernel.
func (c *ClusterSparse) Name() string { return "cluster-sparse" }

// Pairs implements Kernel.
func (c *ClusterSparse) Pairs() int64 {
	return int64(c.R.Keep.NNZ()) + int64(len(c.R.Blocks))*int64(c.R.Db)*int64(c.R.Db)
}

// SetEdgeBias installs per keep-entry bias values (aligned to Keep.ColIdx).
func (c *ClusterSparse) SetEdgeBias(b []float32) {
	if b != nil && len(b) != c.R.Keep.NNZ() {
		panic("attention: keep bias length mismatch")
	}
	c.keepBias = b
}

// SetBlockBias installs the shared additive bias of all sub-block entries.
func (c *ClusterSparse) SetBlockBias(v float32) {
	c.blockBias = v
	c.blockBiasSet = true
}

// EdgeBiasGrad returns per keep-entry bias grads after Backward.
func (c *ClusterSparse) EdgeBiasGrad() []float32 { return c.keepBiasGrad }

// BlockBiasGrad returns the accumulated shared block-bias grad after Backward.
func (c *ClusterSparse) BlockBiasGrad() float32 { return c.blockBiasGrd }

// Forward implements Kernel.
func (c *ClusterSparse) Forward(q, k, v *tensor.Mat) *tensor.Mat {
	checkQKV(q, k, v)
	if q.Rows != c.R.S {
		panic("attention: sequence length does not match reformed layout")
	}
	c.q, c.k, c.v = q, k, v
	scale := scaleFor(q.Cols)
	db := c.R.Db
	nb := len(c.R.Blocks)
	keep := c.R.Keep
	cov := c.R.Coverage()
	// every keep entry and every in-sequence block row is scored below
	c.keepProbs = c.ws.GetUninit(1, keep.NNZ()).Data
	c.blockProbs = c.ws.GetUninit(1, nb*db*db).Data

	// Phase 1 (block-centric): dense db×db score tiles with contiguous rows.
	tensor.ParallelFor(nb, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			blk := c.R.Blocks[b]
			base := b * db * db
			cols := span(cov.Seq, blk.Col0, db)
			for _, ri := range span(cov.Seq, blk.Row0, db) {
				rb := int(ri - blk.Row0)
				dst := c.blockProbs[base+rb*db : base+(rb+1)*db]
				tensor.GatherDots(dst[:len(cols)], q.Row(int(ri)), k, cols)
				for cb := range dst {
					if cb < len(cols) {
						dst[cb] = float32(dst[cb]*scale) + c.blockBias
					} else {
						dst[cb] = negInf
					}
				}
			}
		}
	})

	// Phase 2 (row-centric): softmax across keep entries + covering blocks.
	// A worker's rows take their keep scores first, then the softmax and the
	// output: one pass over K, then one over V, so under a cluster-ordered
	// layout each pass's window of rows can stay in cache.
	o := c.ws.Get(q.Rows, v.Cols)
	tensor.ParallelFor(q.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e0, e1 := keep.RowPtr[i], keep.RowPtr[i+1]
			kp := c.keepProbs[e0:e1]
			tensor.GatherDots(kp, q.Row(i), k, keep.ColIdx[e0:e1])
			scaleScores(kp, scale, c.keepBias, int(e0))
		}
		for i := lo; i < hi; i++ {
			e0, e1 := keep.RowPtr[i], keep.RowPtr[i+1]
			refs := cov.Rows[i]
			if e0 == e1 && len(refs) == 0 {
				continue
			}
			cols := keep.ColIdx[e0:e1]
			kp := c.keepProbs[e0:e1]
			// combined max
			mx := negInf
			for _, s := range kp {
				if s > mx {
					mx = s
				}
			}
			for _, ref := range refs {
				base := int(ref.Block)*db*db + int(ref.Off)*db
				for _, s := range c.blockProbs[base : base+db] {
					if s > mx {
						mx = s
					}
				}
			}
			// exp (s + (−mx) is s − mx), then the sum in entry order
			var sum float64
			tensor.ExpCut(kp, kp, -mx, expCut)
			for _, e := range kp {
				sum += float64(e)
			}
			for _, ref := range refs {
				base := int(ref.Block)*db*db + int(ref.Off)*db
				row := c.blockProbs[base : base+db]
				tensor.ExpCut(row, row, -mx, expCut)
				for _, e := range row {
					sum += float64(e)
				}
			}
			inv := float32(1 / sum)
			oi := o.Row(i)
			for x := range kp {
				kp[x] *= inv
			}
			tensor.GatherWeightedRowSum(oi, v, kp, cols, false)
			// block entries at probability 0 are left out, so a NaN in a V
			// row this row gives no weight cannot reach it
			for _, ref := range refs {
				base := int(ref.Block)*db*db + int(ref.Off)*db
				row := c.blockProbs[base : base+db]
				for cb := range row {
					row[cb] *= inv
				}
				bc := span(cov.Seq, c.R.Blocks[ref.Block].Col0, db)
				tensor.GatherWeightedRowSum(oi, v, row[:len(bc)], bc, true)
			}
		}
	})
	c.o = o
	return o
}

// Backward implements Kernel.
func (c *ClusterSparse) Backward(dO *tensor.Mat) (dq, dk, dv *tensor.Mat) {
	q, k, v := c.q, c.k, c.v
	scale := scaleFor(q.Cols)
	keep := c.R.Keep
	db := c.R.Db
	t := keep.Transpose()
	cov := c.R.Coverage()
	nnz, nbe := keep.NNZ(), len(c.blockProbs)
	c.keepDs = c.ws.GetUninit(1, nnz).Data // every entry takes its dp below
	c.blockDs = c.ws.GetVec(nbe)
	dq = c.ws.Get(q.Rows, q.Cols)
	dk = c.ws.Get(k.Rows, k.Cols)
	dv = c.ws.Get(v.Rows, v.Cols)
	// the weight each entry gives each gradient, in the order that gradient
	// reads them: dq by rows (keep CSR, blocks row-major), dk and dv by
	// columns (keep CSC, blocks column-major)
	w := c.ws.GetUninit(3, nnz+nbe)
	defer c.ws.Put(w)
	wq, wk, wv := w.Row(0), w.Row(1), w.Row(2)
	bq, bk, bv := wq[nnz:], wk[nnz:], wv[nnz:]

	// row pass: per-row softmax backward across both structures, then dq —
	// for a worker's rows, one pass over V, then one over K
	tensor.ParallelFor(q.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e0, e1 := keep.RowPtr[i], keep.RowPtr[i+1]
			refs := cov.Rows[i]
			if e0 == e1 && len(refs) == 0 {
				continue
			}
			dOi := dO.Row(i)
			cols := keep.ColIdx[e0:e1]
			kds, kp, wqi := c.keepDs[e0:e1], c.keepProbs[e0:e1], wq[e0:e1]
			// dp per entry (held in the ds buffers), Σ dp·p across both
			tensor.GatherDots(kds, dOi, v, cols)
			dot := weightedSum(0, kds, kp)
			for _, ref := range refs {
				base := int(ref.Block)*db*db + int(ref.Off)*db
				bc := span(cov.Seq, c.R.Blocks[ref.Block].Col0, db)
				bds := c.blockDs[base : base+len(bc)]
				tensor.GatherDots(bds, dOi, v, bc)
				dot = weightedSum(dot, bds, c.blockProbs[base:])
			}
			softmaxGrad(kds, kp, dot, scale, wqi)
			for x, at := range t.Pos[e0:e1] {
				wk[at], wv[at] = wqi[x], kp[x]
			}
			for _, ref := range refs {
				base := int(ref.Block)*db*db + int(ref.Off)*db
				bc := span(cov.Seq, c.R.Blocks[ref.Block].Col0, db)
				bds, bp, bqi := c.blockDs[base:base+len(bc)], c.blockProbs[base:], bq[base:]
				softmaxGrad(bds, bp, dot, scale, bqi)
				// column cb of the block holds its rows' weights db apart
				for cb := range bds {
					at := int(ref.Block)*db*db + cb*db + int(ref.Off)
					bk[at], bv[at] = bqi[cb], bp[cb]
				}
			}
		}
		for i := lo; i < hi; i++ {
			e0, e1 := keep.RowPtr[i], keep.RowPtr[i+1]
			dqi := dq.Row(i)
			tensor.GatherWeightedRowSum(dqi, k, wq[e0:e1], keep.ColIdx[e0:e1], false)
			for _, ref := range cov.Rows[i] {
				blk := c.R.Blocks[ref.Block]
				base := int(ref.Block)*db*db + int(ref.Off)*db
				nc := len(span(cov.Seq, blk.Col0, db))
				tensor.WeightedRowSum(dqi, k, bq[base:base+nc], int(blk.Col0), int(blk.Col0)+nc)
			}
		}
	})
	// column pass: per column the keep part over its CSC, then the blocks
	// covering it — for a worker's columns, dk (over Q) first, then dv
	// (over dO)
	colPass := func(g, m *tensor.Mat, wkeep, wblock []float32, lo, hi int) {
		for j := lo; j < hi; j++ {
			gj := g.Row(j)
			x0, x1 := t.ColPtr[j], t.ColPtr[j+1]
			tensor.GatherWeightedRowSum(gj, m, wkeep[x0:x1], t.RowIdx[x0:x1], false)
			for _, ref := range cov.Cols[j] {
				blk := c.R.Blocks[ref.Block]
				at := int(ref.Block)*db*db + int(ref.Off)*db
				nr := len(span(cov.Seq, blk.Row0, db))
				tensor.WeightedRowSum(gj, m, wblock[at:at+nr], int(blk.Row0), int(blk.Row0)+nr)
			}
		}
	}
	tensor.ParallelFor(k.Rows, func(lo, hi int) {
		colPass(dk, q, wk, bk, lo, hi)
		colPass(dv, dO, wv, bv, lo, hi)
	})
	if c.keepBias != nil {
		c.keepBiasGrad = c.ws.GetUninit(1, keep.NNZ()).Data
		copy(c.keepBiasGrad, c.keepDs)
	} else {
		c.keepBiasGrad = nil
	}
	if c.blockBiasSet {
		var g float32
		for _, d := range c.blockDs {
			g += d
		}
		c.blockBiasGrd = g
	}
	return dq, dk, dv
}

var negInf = float32(-1e30)

// expCut is where the row softmax stops exponentiating: an entry 80 or more
// below the row maximum (every negInf padding entry is) gets probability 0.
const expCut = -80
