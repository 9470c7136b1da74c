package attention

import (
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// ClusterSparse computes attention over a sparse.Reformed layout: kept
// clusters stay in CSR form while transferred clusters are dense db×db
// sub-blocks. A worker takes its rows as one block: the keep entries go
// through the tensor.CSR* kernels, each sub-block's rows among them through
// the tensor.Tile* kernels (contiguous Q rows against contiguous K rows —
// the locality the paper's reformation buys), and the softmax combines both
// per row. The entries inside sub-blocks carry a single shared additive bias
// (they all represent distance-1 pairs after compaction). The keep part's
// validated CSR and CSC and the block coverage come from R.Keep.Index(),
// R.Keep.Transpose() and R.Coverage(), built once per layout and shared by
// every head.
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

// side returns the offsets [a, b) of the block side starting at position a0
// whose positions lie in [lo, hi) and inside the sequence (b = a when none
// do).
func (c *ClusterSparse) side(a0 int32, lo, hi int) (a, b int) {
	a = max(lo, int(a0)) - int(a0)
	b = max(a, min(hi, c.R.S, int(a0)+c.R.Db)-int(a0))
	return a, b
}

// blockRow is the row of ref in p (block probabilities, scores or score
// gradients): Db elements.
func (c *ClusterSparse) blockRow(p []float32, ref sparse.BlockRef) []float32 {
	base := (int(ref.Block)*c.R.Db + int(ref.Off)) * c.R.Db
	return p[base : base+c.R.Db]
}

// tiles calls f, in block order, for every block with rows in [lo, hi):
// its index b, its first row r0 and key c0, the offsets [ra, rb) of its rows
// in range and the count nc of its keys inside the sequence.
func (c *ClusterSparse) tiles(lo, hi int, f func(b, r0, ra, rb, c0, nc int)) {
	for b, blk := range c.R.Blocks {
		if ra, rb := c.side(blk.Row0, lo, hi); ra < rb {
			_, nc := c.side(blk.Col0, 0, c.R.S)
			f(b, int(blk.Row0), ra, rb, int(blk.Col0), nc)
		}
	}
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

// Forward implements Kernel. A worker takes its rows as one block: every
// structure — the keep CSR, then each sub-block's tile rows among them —
// goes through one kernel call per step (scores, exponentials, output),
// and only the arithmetic that mixes the two per row (the maximum, the sum,
// the scaling) walks the rows.
func (c *ClusterSparse) Forward(q, k, v *tensor.Mat) *tensor.Mat {
	checkQKV(q, k, v)
	if q.Rows != c.R.S {
		panic("attention: sequence length does not match reformed layout")
	}
	c.q, c.k, c.v = q, k, v
	scale := scaleFor(q.Cols)
	db, tile := c.R.Db, c.R.Db*c.R.Db
	keep, ix, cov := c.R.Keep, c.R.Keep.Index(), c.R.Coverage()
	rp := keep.RowPtr
	// every keep entry and every in-sequence block row is scored below
	c.keepProbs = c.ws.GetUninit(1, keep.NNZ()).Data
	c.blockProbs = c.ws.GetUninit(1, len(c.R.Blocks)*tile).Data
	sh := c.ws.GetUninit(1, q.Rows)
	defer c.ws.Put(sh)
	o := c.ws.Get(q.Rows, v.Cols)
	// one pass over K (the scores), then one over V (the output), so under
	// a cluster-ordered layout each pass's window of rows can stay in cache
	tensor.ParallelFor(q.Rows, func(lo, hi int) {
		e0, e1 := rp[lo], rp[hi]
		tensor.CSRDots(c.keepProbs, q, ix, lo, hi, k)
		scaleScores(c.keepProbs[e0:e1], scale, c.keepBias, int(e0))
		c.tiles(lo, hi, func(b, r0, ra, rb, c0, nc int) {
			t := c.blockProbs[b*tile+ra*db : (b+1)*tile]
			tensor.TileDots(t, db, q, r0+ra, rb-ra, k, c0, nc)
			for r := range rb - ra {
				row := t[r*db : (r+1)*db]
				for cb := range row {
					if cb < nc {
						row[cb] = float32(row[cb]*scale) + c.blockBias
					} else {
						row[cb] = negInf
					}
				}
			}
		})

		// the softmax across both structures: per row the maximum (keep
		// entries, then the covering blocks in order) and the shift −max
		// (s + (−mx) is s − mx), the exponentials of each structure in one
		// call, the sum in entry order and the scaling; sh holds each row's
		// maximum, then its shift, then 1/sum
		for i := lo; i < hi; i++ {
			sh.Data[i] = rowMax(negInf, c.keepProbs[rp[i]:rp[i+1]])
		}
		c.tiles(lo, hi, func(b, r0, ra, rb, _, _ int) {
			for r := ra; r < rb; r++ {
				sh.Data[r0+r] = rowMax(sh.Data[r0+r], c.blockProbs[(b*db+r)*db:][:db])
			}
		})
		for i := lo; i < hi; i++ {
			sh.Data[i] = -sh.Data[i]
		}
		tensor.CSRExp(c.keepProbs, c.keepProbs, ix, lo, hi, sh.Data, expCut)
		c.tiles(lo, hi, func(b, r0, ra, rb, _, _ int) {
			t := c.blockProbs[b*tile : (b+1)*tile]
			tensor.CSRExp(t, t, cov.Tile, ra, rb, sh.Data[r0:], expCut)
		})
		for i := lo; i < hi; i++ {
			kp := c.keepProbs[rp[i]:rp[i+1]]
			sum := rowSum(0, kp)
			for _, ref := range cov.Rows[i] {
				sum = rowSum(sum, c.blockRow(c.blockProbs, ref))
			}
			sh.Data[i] = float32(1 / sum)
			scaleRow(kp, sh.Data[i])
		}
		c.tiles(lo, hi, func(b, r0, ra, rb, _, _ int) {
			for r := ra; r < rb; r++ {
				scaleRow(c.blockProbs[(b*db+r)*db:][:db], sh.Data[r0+r])
			}
		})

		// the output: keep entries, then the blocks in order; block cells at
		// probability 0 are left out, so a NaN in a V row this row gives no
		// weight cannot reach it
		tensor.CSRAccum(o, ix, lo, hi, c.keepProbs, v)
		c.tiles(lo, hi, func(b, r0, ra, rb, c0, nc int) {
			tensor.TileAccum(o, r0+ra, rb-ra, c.blockProbs[b*tile+ra*db:], db, 1, v, c0, nc, true)
		})
	})
	c.o = o
	return o
}

// Backward implements Kernel, in row blocks as Forward: a worker's rows
// take their dp (one call per structure), the softmax backward per row,
// then dq (keep, then the blocks in order); a worker's columns take dk and
// dv the same way over the keep part's CSC and the blocks' transposed
// weights.
func (c *ClusterSparse) Backward(dO *tensor.Mat) (dq, dk, dv *tensor.Mat) {
	q, k, v := c.q, c.k, c.v
	scale := scaleFor(q.Cols)
	db, tile := c.R.Db, c.R.Db*c.R.Db
	keep, ix, t := c.R.Keep, c.R.Keep.Index(), c.R.Keep.Transpose()
	rp := keep.RowPtr
	nnz, nbe := keep.NNZ(), len(c.blockProbs)
	c.keepDs = c.ws.GetUninit(1, nnz).Data // every entry takes its dp below
	c.blockDs = c.ws.GetVec(nbe)
	dq = c.ws.Get(q.Rows, q.Cols)
	dk = c.ws.Get(k.Rows, k.Cols)
	dv = c.ws.Get(v.Rows, v.Cols)
	// the weight each entry gives each gradient: the keep part's in the
	// order that gradient reads them, dq by rows (CSR), dk and dv by columns
	// (CSC); the blocks' row-major, dk and dv reading the tiles transposed
	// (dv's weights are the probabilities)
	w := c.ws.GetUninit(1, 3*nnz+nbe)
	defer c.ws.Put(w)
	wq, wk, wv, bq := w.Data[:nnz], w.Data[nnz:2*nnz], w.Data[2*nnz:3*nnz], w.Data[3*nnz:]

	dots := c.ws.GetUninit(1, q.Rows)
	defer c.ws.Put(dots)

	// row pass: for a worker's rows, one pass over V, then one over K
	tensor.ParallelFor(q.Rows, func(lo, hi int) {
		e0, e1 := rp[lo], rp[hi]
		// dp per entry (held in the ds buffers)
		tensor.CSRDots(c.keepDs, dO, ix, lo, hi, v)
		c.tiles(lo, hi, func(b, r0, ra, rb, c0, nc int) {
			tensor.TileDots(c.blockDs[b*tile+ra*db:], db, dO, r0+ra, rb-ra, v, c0, nc)
		})
		// per row Σ dp·p across both structures (keep entries, then the
		// blocks in order), then the softmax backward
		for i := lo; i < hi; i++ {
			dots.Data[i] = weightedSum(0, c.keepDs[rp[i]:rp[i+1]], c.keepProbs[rp[i]:])
		}
		c.tiles(lo, hi, func(b, r0, ra, rb, _, nc int) {
			for r := ra; r < rb; r++ {
				at := (b*db + r) * db
				dots.Data[r0+r] = weightedSum(dots.Data[r0+r], c.blockDs[at:at+nc], c.blockProbs[at:])
			}
		})
		for i := lo; i < hi; i++ {
			a, z := rp[i], rp[i+1]
			softmaxGrad(c.keepDs[a:z], c.keepProbs[a:z], dots.Data[i], scale, wq[a:z])
		}
		c.tiles(lo, hi, func(b, r0, ra, rb, _, nc int) {
			for r := ra; r < rb; r++ {
				at := (b*db + r) * db
				softmaxGrad(c.blockDs[at:at+nc], c.blockProbs[at:], dots.Data[r0+r], scale, bq[at:])
			}
		})
		for e := e0; e < e1; e++ {
			at := t.Pos[e]
			wk[at], wv[at] = wq[e], c.keepProbs[e]
		}
		tensor.CSRAccum(dq, ix, lo, hi, wq, k)
		c.tiles(lo, hi, func(b, r0, ra, rb, c0, nc int) {
			tensor.TileAccum(dq, r0+ra, rb-ra, bq[b*tile+ra*db:], db, 1, k, c0, nc, false)
		})
	})
	// column pass: per column the keep part over its CSC, then the blocks
	// covering it in order — for a worker's columns, dk (over Q) first, then
	// dv (over dO)
	colPass := func(g, m *tensor.Mat, wkeep, wblock []float32, lo, hi int) {
		tensor.CSRAccum(g, t.Index, lo, hi, wkeep, m)
		for b, blk := range c.R.Blocks {
			if ca, cb := c.side(blk.Col0, lo, hi); ca < cb {
				_, nr := c.side(blk.Row0, 0, c.R.S)
				tensor.TileAccum(g, int(blk.Col0)+ca, cb-ca, wblock[b*tile+ca:], 1, db, m, int(blk.Row0), nr, false)
			}
		}
	}
	tensor.ParallelFor(k.Rows, func(lo, hi int) {
		colPass(dk, q, wk, bq, lo, hi)
		colPass(dv, dO, wv, c.blockProbs, lo, hi)
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
