package attention

import (
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// blockRef locates one row (or column) of one sub-block.
type blockRef struct {
	block int32
	off   int32 // row-in-block (for rowBlocks) or col-in-block (for colBlocks)
}

// ClusterSparse computes attention over a sparse.Reformed layout: kept
// clusters stay in CSR form while transferred clusters are dense db×db
// sub-blocks. Sub-block scores are computed block-centrically (contiguous
// Q and K rows — the locality the paper's reformation buys), then a
// row-centric pass performs the softmax across both structures. The entries
// inside sub-blocks carry a single shared additive bias (they all represent
// distance-1 pairs after compaction).
type ClusterSparse struct {
	R *sparse.Reformed

	// keep-part CSC transpose (as in Sparse)
	colPtr   []int32
	rowIdx   []int32
	entryIdx []int32
	// block coverage indexes
	rowBlocks [][]blockRef
	colBlocks [][]blockRef

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

// NewClusterSparse builds the kernel's indexes from a reformed layout.
func NewClusterSparse(r *sparse.Reformed) *ClusterSparse {
	c := &ClusterSparse{R: r}
	p := r.Keep
	nnz := p.NNZ()
	c.colPtr = make([]int32, p.S+1)
	for _, j := range p.ColIdx {
		c.colPtr[j+1]++
	}
	for i := 0; i < p.S; i++ {
		c.colPtr[i+1] += c.colPtr[i]
	}
	c.rowIdx = make([]int32, nnz)
	c.entryIdx = make([]int32, nnz)
	next := append([]int32(nil), c.colPtr[:p.S]...)
	for i := 0; i < p.S; i++ {
		for e := p.RowPtr[i]; e < p.RowPtr[i+1]; e++ {
			j := p.ColIdx[e]
			pos := next[j]
			next[j]++
			c.rowIdx[pos] = int32(i)
			c.entryIdx[pos] = e
		}
	}
	c.rowBlocks = make([][]blockRef, r.S)
	c.colBlocks = make([][]blockRef, r.S)
	db := int32(r.Db)
	for b, blk := range r.Blocks {
		for off := int32(0); off < db; off++ {
			if ri := blk.Row0 + off; ri < int32(r.S) {
				c.rowBlocks[ri] = append(c.rowBlocks[ri], blockRef{int32(b), off})
			}
			if ci := blk.Col0 + off; ci < int32(r.S) {
				c.colBlocks[ci] = append(c.colBlocks[ci], blockRef{int32(b), off})
			}
		}
	}
	return c
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
	c.keepProbs = c.ws.GetVec(keep.NNZ())
	c.blockProbs = c.ws.GetVec(nb * db * db)

	// Phase 1 (block-centric): dense db×db score tiles with contiguous rows.
	tensor.ParallelFor(nb, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			blk := c.R.Blocks[b]
			base := b * db * db
			for rb := 0; rb < db; rb++ {
				ri := int(blk.Row0) + rb
				if ri >= c.R.S {
					break
				}
				qi := q.Row(ri)
				dst := c.blockProbs[base+rb*db : base+(rb+1)*db]
				for cb := 0; cb < db; cb++ {
					ci := int(blk.Col0) + cb
					if ci >= c.R.S {
						dst[cb] = negInf
						continue
					}
					dst[cb] = tensor.Dot(qi, k.Row(ci))*scale + c.blockBias
				}
			}
		}
	})

	// Phase 2 (row-centric): softmax across keep entries + covering blocks.
	o := c.ws.Get(q.Rows, v.Cols)
	tensor.ParallelFor(q.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e0, e1 := keep.RowPtr[i], keep.RowPtr[i+1]
			refs := c.rowBlocks[i]
			if e0 == e1 && len(refs) == 0 {
				continue
			}
			qi := q.Row(i)
			// keep scores
			kp := c.keepProbs[e0:e1]
			for e := e0; e < e1; e++ {
				sc := tensor.Dot(qi, k.Row(int(keep.ColIdx[e]))) * scale
				if c.keepBias != nil {
					sc += c.keepBias[e]
				}
				kp[e-e0] = sc
			}
			// combined max
			mx := negInf
			for _, s := range kp {
				if s > mx {
					mx = s
				}
			}
			for _, ref := range refs {
				base := int(ref.block)*db*db + int(ref.off)*db
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
				base := int(ref.block)*db*db + int(ref.off)*db
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
				tensor.Axpy(kp[x], v.Row(int(keep.ColIdx[int(e0)+x])), oi)
			}
			for _, ref := range refs {
				blk := c.R.Blocks[ref.block]
				base := int(ref.block)*db*db + int(ref.off)*db
				row := c.blockProbs[base : base+db]
				for cb := range row {
					row[cb] *= inv
					ci := int(blk.Col0) + cb
					if ci < c.R.S && row[cb] != 0 {
						tensor.Axpy(row[cb], v.Row(ci), oi)
					}
				}
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
	c.keepDs = c.ws.GetVec(keep.NNZ())
	c.blockDs = c.ws.GetVec(len(c.blockProbs))
	dq = c.ws.Get(q.Rows, q.Cols)
	dk = c.ws.Get(k.Rows, k.Cols)
	dv = c.ws.Get(v.Rows, v.Cols)

	// row pass: per-row softmax backward across both structures, dq
	tensor.ParallelFor(q.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e0, e1 := keep.RowPtr[i], keep.RowPtr[i+1]
			refs := c.rowBlocks[i]
			if e0 == e1 && len(refs) == 0 {
				continue
			}
			dOi := dO.Row(i)
			var dot float32
			for e := e0; e < e1; e++ {
				dp := tensor.Dot(dOi, v.Row(int(keep.ColIdx[e])))
				c.keepDs[e] = dp
				dot += dp * c.keepProbs[e]
			}
			for _, ref := range refs {
				blk := c.R.Blocks[ref.block]
				base := int(ref.block)*db*db + int(ref.off)*db
				for cb := 0; cb < db; cb++ {
					ci := int(blk.Col0) + cb
					if ci >= c.R.S {
						continue
					}
					dp := tensor.Dot(dOi, v.Row(ci))
					c.blockDs[base+cb] = dp
					dot += dp * c.blockProbs[base+cb]
				}
			}
			dqi := dq.Row(i)
			for e := e0; e < e1; e++ {
				ds := c.keepProbs[e] * (c.keepDs[e] - dot)
				c.keepDs[e] = ds
				tensor.Axpy(ds*scale, k.Row(int(keep.ColIdx[e])), dqi)
			}
			for _, ref := range refs {
				blk := c.R.Blocks[ref.block]
				base := int(ref.block)*db*db + int(ref.off)*db
				for cb := 0; cb < db; cb++ {
					ci := int(blk.Col0) + cb
					if ci >= c.R.S {
						continue
					}
					ds := c.blockProbs[base+cb] * (c.blockDs[base+cb] - dot)
					c.blockDs[base+cb] = ds
					tensor.Axpy(ds*scale, k.Row(ci), dqi)
				}
			}
		}
	})
	// column pass over keep CSC
	tensor.ParallelFor(k.Rows, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			dkj := dk.Row(j)
			dvj := dv.Row(j)
			for x := c.colPtr[j]; x < c.colPtr[j+1]; x++ {
				i := int(c.rowIdx[x])
				e := c.entryIdx[x]
				tensor.Axpy(c.keepDs[e]*scale, q.Row(i), dkj)
				tensor.Axpy(c.keepProbs[e], dO.Row(i), dvj)
			}
			// block contributions covering column j
			for _, ref := range c.colBlocks[j] {
				blk := c.R.Blocks[ref.block]
				base := int(ref.block) * db * db
				cb := int(ref.off)
				for rb := 0; rb < db; rb++ {
					ri := int(blk.Row0) + rb
					if ri >= c.R.S {
						break
					}
					idx := base + rb*db + cb
					tensor.Axpy(c.blockDs[idx]*scale, q.Row(ri), dkj)
					tensor.Axpy(c.blockProbs[idx], dO.Row(ri), dvj)
				}
			}
		}
	})
	if c.keepBias != nil {
		c.keepBiasGrad = c.ws.GetVec(keep.NNZ())
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
