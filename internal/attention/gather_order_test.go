package attention

import (
	"math"
	"math/rand"
	"testing"

	"torchgt/internal/graph"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// The sparse kernels run their per-pair loops in row blocks (tensor.CSR*,
// tensor.Tile*) over indexes built once per pattern. These oracles are the loops as they were written before —
// one Dot or Axpy per attended pair, the column pass over a transpose found
// by scanning the pattern — and the tests hold the kernels to them bit for
// bit, at head widths that take the micro-kernels (8, 64), the Go loops
// (6) and both (20).

// colEntries lists, for every column j, the pattern entries (i, e) with
// ColIdx[e] = j in ascending row order.
func colEntries(p *sparse.Pattern) [][][2]int {
	cols := make([][][2]int, p.S)
	for i := 0; i < p.S; i++ {
		for e := p.RowPtr[i]; e < p.RowPtr[i+1]; e++ {
			j := p.ColIdx[e]
			cols[j] = append(cols[j], [2]int{i, int(e)})
		}
	}
	return cols
}

func naiveSparseStep(p *sparse.Pattern, bias []float32, q, k, v, dO *tensor.Mat) (o, dq, dk, dv *tensor.Mat, biasGrad []float32) {
	scale := scaleFor(q.Cols)
	probs, ds := make([]float32, p.NNZ()), make([]float32, p.NNZ())
	o = tensor.New(q.Rows, v.Cols)
	for i := 0; i < p.S; i++ {
		e0, e1 := p.RowPtr[i], p.RowPtr[i+1]
		if e0 == e1 {
			continue
		}
		for e := e0; e < e1; e++ {
			sc := float32(tensor.Dot(q.Row(i), k.Row(int(p.ColIdx[e]))) * scale)
			if bias != nil {
				sc += bias[e]
			}
			probs[e] = sc
		}
		tensor.SoftmaxInPlace(probs[e0:e1])
		for e := e0; e < e1; e++ {
			tensor.Axpy(probs[e], v.Row(int(p.ColIdx[e])), o.Row(i))
		}
	}
	dq, dk, dv = tensor.New(q.Rows, q.Cols), tensor.New(k.Rows, k.Cols), tensor.New(v.Rows, v.Cols)
	for i := 0; i < p.S; i++ {
		var dot float32
		for e := p.RowPtr[i]; e < p.RowPtr[i+1]; e++ {
			ds[e] = tensor.Dot(dO.Row(i), v.Row(int(p.ColIdx[e])))
			dot += float32(ds[e] * probs[e])
		}
		for e := p.RowPtr[i]; e < p.RowPtr[i+1]; e++ {
			ds[e] = probs[e] * (ds[e] - dot)
			tensor.Axpy(ds[e]*scale, k.Row(int(p.ColIdx[e])), dq.Row(i))
		}
	}
	for j, ents := range colEntries(p) {
		for _, ie := range ents {
			tensor.Axpy(ds[ie[1]]*scale, q.Row(ie[0]), dk.Row(j))
			tensor.Axpy(probs[ie[1]], dO.Row(ie[0]), dv.Row(j))
		}
	}
	if bias != nil {
		biasGrad = ds
	}
	return o, dq, dk, dv, biasGrad
}

// naiveClusterSparseBackward is ClusterSparse.Backward from the
// probabilities c's Forward left (the forward is pinned by
// TestClusterSparseForwardBitwiseMatchesNaive): per row the keep entries,
// then every covering block's cells in block order; per column the keep
// entries by row, then the covering blocks' rows.
func naiveClusterSparseBackward(c *ClusterSparse, dO *tensor.Mat) (dq, dk, dv *tensor.Mat, keepGrad []float32, blockGrad float32) {
	r, keep, db := c.R, c.R.Keep, c.R.Db
	q, k, v := c.q, c.k, c.v
	scale := scaleFor(q.Cols)
	kp, bp := c.keepProbs, c.blockProbs
	kds, bds := make([]float32, len(kp)), make([]float32, len(bp))
	dq, dk, dv = tensor.New(q.Rows, q.Cols), tensor.New(k.Rows, k.Cols), tensor.New(v.Rows, v.Cols)
	// cells yields the (block cell index, key column) pairs of row i's
	// covering blocks, in block order.
	cells := func(i int) (out [][2]int) {
		for b, blk := range r.Blocks {
			if rb := i - int(blk.Row0); rb >= 0 && rb < db {
				for cb := 0; cb < db; cb++ {
					if ci := int(blk.Col0) + cb; ci < r.S {
						out = append(out, [2]int{b*db*db + rb*db + cb, ci})
					}
				}
			}
		}
		return out
	}
	for i := 0; i < r.S; i++ {
		var dot float32
		for e := keep.RowPtr[i]; e < keep.RowPtr[i+1]; e++ {
			kds[e] = tensor.Dot(dO.Row(i), v.Row(int(keep.ColIdx[e])))
			dot += float32(kds[e] * kp[e])
		}
		for _, cell := range cells(i) {
			bds[cell[0]] = tensor.Dot(dO.Row(i), v.Row(cell[1]))
			dot += float32(bds[cell[0]] * bp[cell[0]])
		}
		for e := keep.RowPtr[i]; e < keep.RowPtr[i+1]; e++ {
			kds[e] = kp[e] * (kds[e] - dot)
			tensor.Axpy(kds[e]*scale, k.Row(int(keep.ColIdx[e])), dq.Row(i))
		}
		for _, cell := range cells(i) {
			bds[cell[0]] = bp[cell[0]] * (bds[cell[0]] - dot)
			tensor.Axpy(bds[cell[0]]*scale, k.Row(cell[1]), dq.Row(i))
		}
	}
	for j, ents := range colEntries(keep) {
		for _, ie := range ents {
			tensor.Axpy(kds[ie[1]]*scale, q.Row(ie[0]), dk.Row(j))
			tensor.Axpy(kp[ie[1]], dO.Row(ie[0]), dv.Row(j))
		}
		for b, blk := range r.Blocks {
			cb := j - int(blk.Col0)
			if cb < 0 || cb >= db {
				continue
			}
			for rb := 0; rb < db && int(blk.Row0)+rb < r.S; rb++ {
				idx := b*db*db + rb*db + cb
				tensor.Axpy(bds[idx]*scale, q.Row(int(blk.Row0)+rb), dk.Row(j))
				tensor.Axpy(bp[idx], dO.Row(int(blk.Row0)+rb), dv.Row(j))
			}
		}
	}
	for _, d := range bds {
		blockGrad += d
	}
	return dq, dk, dv, kds, blockGrad
}

func mustBitwiseVec(t *testing.T, name string, got, want []float32) {
	t.Helper()
	mustBitwiseMat(t, name, tensor.FromSlice(1, len(got), got), tensor.FromSlice(1, len(want), want))
}

// irregularPattern has rows of every length 0…s−1 over shuffled columns:
// entry counts around the dot kernel's groups of eight and its short tails.
func irregularPattern(rng *rand.Rand, s int) *sparse.Pattern {
	var pairs []graph.Edge
	for i := 0; i < s; i++ {
		for _, j := range rng.Perm(s)[:i%s] {
			pairs = append(pairs, graph.Edge{U: int32(i), V: int32(j)})
		}
	}
	return sparse.FromPairs(s, pairs)
}

func TestSparseStepBitwiseMatchesNaive(t *testing.T) {
	const s = 45
	rng := rand.New(rand.NewSource(5))
	p := irregularPattern(rng, s)
	for _, d := range []int{6, 8, 20, 64} {
		q, k, v := randQKV(rng, s, d, d)
		dO := tensor.New(s, d)
		tensor.RandN(dO, rng, 1)
		bias := make([]float32, p.NNZ())
		for i := range bias {
			bias[i] = float32(rng.NormFloat64())
		}
		for _, b := range [][]float32{nil, bias} {
			sp := NewSparse(p)
			sp.SetEdgeBias(b)
			o := sp.Forward(q, k, v)
			dq, dk, dv := sp.Backward(dO)
			wo, wdq, wdk, wdv, wbg := naiveSparseStep(p, b, q, k, v, dO)
			mustBitwiseMat(t, "o", wo, o)
			mustBitwiseMat(t, "dq", wdq, dq)
			mustBitwiseMat(t, "dk", wdk, dk)
			mustBitwiseMat(t, "dv", wdv, dv)
			if b != nil {
				mustBitwiseVec(t, "bias grad", sp.EdgeBiasGrad(), wbg)
			}
		}
	}
}

// TestClusterSparseBackwardBitwiseMatchesNaive: irregular keep rows, blocks
// that overlap keep entries' columns, each other, and S's end.
func TestClusterSparseBackwardBitwiseMatchesNaive(t *testing.T) {
	const s = 45
	rng := rand.New(rand.NewSource(6))
	r := &sparse.Reformed{S: s, Db: 4, Keep: irregularPattern(rng, s), Blocks: []sparse.SubBlock{
		{Row0: 0, Col0: 8}, {Row0: 0, Col0: 20}, {Row0: 2, Col0: 8}, {Row0: 20, Col0: 20}, {Row0: 42, Col0: 40}, {Row0: 40, Col0: 43},
	}}
	for _, d := range []int{6, 8, 20, 64} {
		q, k, v := randQKV(rng, s, d, d)
		dO := tensor.New(s, d)
		tensor.RandN(dO, rng, 1)
		bias := make([]float32, r.Keep.NNZ())
		for i := range bias {
			bias[i] = float32(rng.NormFloat64())
		}
		for _, biased := range []bool{false, true} {
			c := NewClusterSparse(r)
			if biased {
				c.SetEdgeBias(bias)
				c.SetBlockBias(0.3)
			}
			c.Forward(q, k, v)
			dq, dk, dv := c.Backward(dO)
			wdq, wdk, wdv, wkg, wbg := naiveClusterSparseBackward(c, dO)
			mustBitwiseMat(t, "dq", wdq, dq)
			mustBitwiseMat(t, "dk", wdk, dk)
			mustBitwiseMat(t, "dv", wdv, dv)
			if biased {
				mustBitwiseVec(t, "keep bias grad", c.EdgeBiasGrad(), wkg)
				if g := c.BlockBiasGrad(); math.Float32bits(g) != math.Float32bits(wbg) {
					t.Fatalf("d=%d: block bias grad %v, want %v", d, g, wbg)
				}
			}
		}
	}
}

// TestClusterSparseZeroProbabilityBlocksIsolateNaN: a block cell whose
// probability is exactly 0 (its score 80 or more below the row maximum)
// adds nothing to the output, so a NaN in its V row stays out.
func TestClusterSparseZeroProbabilityBlocksIsolateNaN(t *testing.T) {
	const s = 16
	var self []graph.Edge
	for i := int32(0); i < s; i++ {
		self = append(self, graph.Edge{U: i, V: i})
	}
	r := &sparse.Reformed{S: s, Db: 4, Keep: sparse.FromPairs(s, self), Blocks: []sparse.SubBlock{{Row0: 0, Col0: 8}}}
	for _, d := range []int{6, 8, 64} {
		q, k, v := randQKV(rand.New(rand.NewSource(7)), s, d, d)
		for j := 8; j < 12; j++ {
			v.Row(j)[0] = float32(math.NaN())
		}
		bias := make([]float32, s)
		for i := range bias {
			bias[i] = 1000 // every row's self entry outscores the block cells by far
		}
		c := NewClusterSparse(r)
		c.SetEdgeBias(bias)
		o := c.Forward(q, k, v)
		for i := 0; i < 4; i++ {
			for x, val := range o.Row(i) {
				if math.IsNaN(float64(val)) {
					t.Fatalf("d=%d: o[%d][%d] is NaN: a zero-probability block cell reached the output", d, i, x)
				}
			}
		}
	}
}

// TestClusterSparseRowBlocksBitwiseMatchesNaive: the row-block kernel at a
// sub-block width the tile micro-kernels take (Db 16: two blocks of eight
// keys per tile row), blocks overhanging S (a tile clipped to fewer keys
// than a block of eight, and rows past S), blocks sharing rows and columns,
// at head widths the micro-kernels take whole (8, 64), in part (20) and not
// at all (6), on one worker and on three (so tiles straddle workers' row
// ranges) — forward and backward against the per-pair oracles, with and
// without the biases.
func TestClusterSparseRowBlocksBitwiseMatchesNaive(t *testing.T) {
	const s = 90
	rng := rand.New(rand.NewSource(8))
	r := &sparse.Reformed{S: s, Db: 16, Keep: irregularPattern(rng, s), Blocks: []sparse.SubBlock{
		{Row0: 0, Col0: 32}, {Row0: 8, Col0: 32}, {Row0: 16, Col0: 0}, {Row0: 40, Col0: 72}, {Row0: 80, Col0: 85}, {Row0: 85, Col0: 16},
	}}
	for _, workers := range []int{1, 3} {
		prev := tensor.SetWorkers(workers)
		for _, d := range []int{6, 8, 20, 64} {
			q, k, v := randQKV(rng, s, d, d)
			for i := 0; i < s; i += 4 {
				for x := range q.Row(i) {
					q.Row(i)[x] *= 40 // spread the row's scores past the cutoff
				}
			}
			dO := tensor.New(s, d)
			tensor.RandN(dO, rng, 1)
			bias := make([]float32, r.Keep.NNZ())
			for i := range bias {
				bias[i] = float32(rng.NormFloat64())
			}
			for _, biased := range []bool{false, true} {
				c := NewClusterSparse(r)
				if biased {
					c.SetEdgeBias(bias)
					c.SetBlockBias(0.4)
				}
				o := c.Forward(q, k, v)
				mustBitwiseMat(t, "o", naiveClusterSparseForward(c, q, k, v), o)
				dq, dk, dv := c.Backward(dO)
				wdq, wdk, wdv, wkg, wbg := naiveClusterSparseBackward(c, dO)
				mustBitwiseMat(t, "dq", wdq, dq)
				mustBitwiseMat(t, "dk", wdk, dk)
				mustBitwiseMat(t, "dv", wdv, dv)
				if biased {
					mustBitwiseVec(t, "keep bias grad", c.EdgeBiasGrad(), wkg)
					if g := c.BlockBiasGrad(); math.Float32bits(g) != math.Float32bits(wbg) {
						t.Fatalf("workers=%d d=%d: block bias grad %v, want %v", workers, d, g, wbg)
					}
				}
			}
		}
		tensor.SetWorkers(prev)
	}
}
