package attention

import (
	"math"
	"math/rand"
	"testing"

	"torchgt/internal/graph"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// Bitwise pins for the attention kernels:
//
//   - TestRefFlashBitwiseMatchesNaive and
//     TestClusterSparseForwardBitwiseMatchesNaive check the restructured
//     kernels against line-for-line naive reimplementations;
//   - TestKernelsWorkerCountInvariant holds all six kernels to bitwise
//     identical results across repeated runs and worker counts;
//   - TestFlashBF16MatchesBF16Wrap holds the flash kernel's own BF16 mode to
//     the FP32 kernel under BF16Wrap.

type stepCase struct {
	name string
	mk   func() Kernel
	s, d int
}

// stepCases covers dense, flash, flash-bf16, sparse, cluster-sparse
// and kernelized. Sizes cross at least one flash tile boundary (tile = 64).
func stepCases(t *testing.T) []stepCase {
	t.Helper()
	p := benchPattern(96)
	r, s := buildReformed(t, 10, 0.05)
	return []stepCase{
		{"dense", func() Kernel { return NewDense() }, 96, 16},
		{"flash", func() Kernel { return NewFlash(false) }, 96, 16},
		{"flash-bf16", func() Kernel { return NewFlash(true) }, 96, 16},
		{"sparse", func() Kernel { return NewSparse(p) }, 96, 16},
		{"cluster-sparse", func() Kernel { return NewClusterSparse(r) }, s, 16},
		{"kernelized", func() Kernel { return NewKernelized() }, 96, 16},
	}
}

// runKernelStep runs one forward+backward step on a fresh kernel with
// seed-fixed inputs and returns cloned outputs.
func runKernelStep(mk func() Kernel, s, d int) (o, dq, dk, dv *tensor.Mat) {
	rng := rand.New(rand.NewSource(77))
	q, k, v := randQKV(rng, s, d, d)
	dO := tensor.New(s, d)
	tensor.RandN(dO, rng, 1)
	kr := mk()
	o = kr.Forward(q, k, v).Clone()
	gq, gk, gv := kr.Backward(dO)
	return o, gq.Clone(), gk.Clone(), gv.Clone()
}

func mustBitwiseMat(t *testing.T, name string, a, b *tensor.Mat) {
	t.Helper()
	if !a.SameShape(b) {
		t.Fatalf("%s: shape mismatch %dx%d vs %dx%d", name, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			t.Fatalf("%s: element %d differs bitwise: %v vs %v", name, i, a.Data[i], b.Data[i])
		}
	}
}

// TestKernelsWorkerCountInvariant checks the determinism contract on every
// kernel: repeated runs and different worker counts must be bitwise
// identical (worker chunks only reorder independent output elements, never
// the reduction order within one element).
func TestKernelsWorkerCountInvariant(t *testing.T) {
	for _, tc := range stepCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prev := tensor.SetWorkers(1)
			t.Cleanup(func() { tensor.SetWorkers(prev) })
			bo, bdq, bdk, bdv := runKernelStep(tc.mk, tc.s, tc.d)
			for _, w := range []int{1, 3, 8} {
				tensor.SetWorkers(w)
				o, dq, dk, dv := runKernelStep(tc.mk, tc.s, tc.d)
				mustBitwiseMat(t, tc.name+".o", bo, o)
				mustBitwiseMat(t, tc.name+".dq", bdq, dq)
				mustBitwiseMat(t, tc.name+".dk", bdk, dk)
				mustBitwiseMat(t, tc.name+".dv", bdv, dv)
			}
		})
	}
}

// naiveFlashStep is a line-for-line reimplementation of the flash kernel as
// it existed before the exponentials were routed through tensor.ExpShift:
// per-element float32(math.Exp(float64(...))) with the identical streaming
// softmax recurrence and accumulation order.
func naiveFlashStep(q, k, v, dO *tensor.Mat, tile int) (o, dq, dk, dv *tensor.Mat, lse []float32) {
	s := q.Rows
	dvc := v.Cols
	scale := scaleFor(q.Cols)
	o = tensor.New(s, dvc)
	lse = make([]float32, s)
	scores := make([]float32, tile)
	acc := make([]float32, dvc)
	for i := 0; i < s; i++ {
		qi := q.Row(i)
		m := float32(math.Inf(-1))
		l := float32(0)
		for x := range acc {
			acc[x] = 0
		}
		for j0 := 0; j0 < s; j0 += tile {
			j1 := min(j0+tile, s)
			tileMax := float32(math.Inf(-1))
			for j := j0; j < j1; j++ {
				sc := tensor.Dot(qi, k.Row(j)) * scale
				scores[j-j0] = sc
				if sc > tileMax {
					tileMax = sc
				}
			}
			newM := m
			if tileMax > newM {
				newM = tileMax
			}
			corr := float32(math.Exp(float64(m - newM)))
			l *= corr
			for x := range acc {
				acc[x] *= corr
			}
			for j := j0; j < j1; j++ {
				p := float32(math.Exp(float64(scores[j-j0] - newM)))
				l += p
				tensor.Axpy(p, v.Row(j), acc)
			}
			m = newM
		}
		inv := 1 / l
		oi := o.Row(i)
		for x := range acc {
			oi[x] = acc[x] * inv
		}
		lse[i] = m + float32(math.Log(float64(l)))
	}
	// backward, pre-restructure formulation
	d := make([]float32, s)
	for i := 0; i < s; i++ {
		d[i] = tensor.Dot(dO.Row(i), o.Row(i))
	}
	dq = tensor.New(s, q.Cols)
	dk = tensor.New(s, k.Cols)
	dv = tensor.New(s, v.Cols)
	for i := 0; i < s; i++ {
		qi := q.Row(i)
		dOi := dO.Row(i)
		dqi := dq.Row(i)
		for j := 0; j < s; j++ {
			kj := k.Row(j)
			p := float32(math.Exp(float64(tensor.Dot(qi, kj)*scale - lse[i])))
			dp := tensor.Dot(dOi, v.Row(j))
			ds := p * (dp - d[i])
			tensor.Axpy(ds*scale, kj, dqi)
		}
	}
	for j := 0; j < s; j++ {
		kj := k.Row(j)
		vj := v.Row(j)
		dkj := dk.Row(j)
		dvj := dv.Row(j)
		for i := 0; i < s; i++ {
			qi := q.Row(i)
			dOi := dO.Row(i)
			p := float32(math.Exp(float64(tensor.Dot(qi, kj)*scale - lse[i])))
			dp := tensor.Dot(dOi, vj)
			ds := p * (dp - d[i])
			tensor.Axpy(ds*scale, qi, dkj)
			tensor.Axpy(p, dOi, dvj)
		}
	}
	return o, dq, dk, dv, lse
}

// TestRefFlashBitwiseMatchesNaive pins the flash kernel's arithmetic: the
// tiled forward (exponentials through tensor.ExpShift; IEEE a−b ≡ a+(−b))
// and the single-pass backward must be bitwise identical to the textbook
// loops above — per-element math.Exp, a row loop for dQ and a separate
// column loop for dK/dV. Shapes cover one row, one short of a
// tile, a ragged tail and several tiles, and around the row block
// (tensor.FlashRows = 8: one short, exact, one over, a ragged last block
// of many); widths cover Dq ≠ Dv with neither a multiple of the kernels'
// unroll widths, and the lane-wise widths 8 (the training head) and 16;
// worker counts cover the forward's row split.
func TestRefFlashBitwiseMatchesNaive(t *testing.T) {
	prev := tensor.Workers()
	defer tensor.SetWorkers(prev)
	rng := rand.New(rand.NewSource(31))
	for _, c := range []struct{ s, dqk, dv int }{
		{1, 6, 7}, {63, 6, 7}, {97, 6, 7}, {130, 6, 7},
		{7, 8, 8}, {8, 8, 8}, {9, 8, 8}, {257, 8, 8}, {97, 8, 8},
		{7, 16, 16}, {8, 16, 16}, {9, 16, 16}, {257, 16, 16}, {63, 16, 8},
	} {
		s, dqk, dv := c.s, c.dqk, c.dv
		for _, tile := range []int{8, 64} {
			q, k, v := randQKV(rng, s, dqk, dv)
			dO := tensor.New(s, dv)
			tensor.RandN(dO, rng, 1)
			no, ndq, ndk, ndv, nlse := naiveFlashStep(q, k, v, dO, tile)
			for _, workers := range []int{1, 3} {
				tensor.SetWorkers(workers)
				f := NewFlash(false)
				f.Tile = tile
				fo := f.Forward(q, k, v)
				fdq, fdk, fdv := f.Backward(dO)
				mustBitwiseMat(t, "o", no, fo)
				for i := range nlse {
					if math.Float32bits(nlse[i]) != math.Float32bits(f.lse[i]) {
						t.Fatalf("S=%d Dh=%d/%d tile=%d: lse[%d] differs: %v vs %v", s, dqk, dv, tile, i, nlse[i], f.lse[i])
					}
				}
				mustBitwiseMat(t, "dq", ndq, fdq)
				mustBitwiseMat(t, "dk", ndk, fdk)
				mustBitwiseMat(t, "dv", ndv, fdv)
			}
		}
	}
}

// TestFlashBF16MatchesBF16Wrap pins the two ways to run flash attention
// under bfloat16 storage emulation to the same bits: the kernel's own BF16
// flag, and the FP32 kernel inside BF16Wrap — the path a model takes for an
// AttentionSpec{Mode: ModeFlash, BF16: true}.
func TestFlashBF16MatchesBF16Wrap(t *testing.T) {
	for _, s := range []int{1, 63, 96, 130} {
		own := func() Kernel { return NewFlash(true) }
		wrapped := func() Kernel { return &BF16Wrap{Inner: NewFlash(false)} }
		ao, adq, adk, adv := runKernelStep(own, s, 16)
		bo, bdq, bdk, bdv := runKernelStep(wrapped, s, 16)
		mustBitwiseMat(t, "o", ao, bo)
		mustBitwiseMat(t, "dq", adq, bdq)
		mustBitwiseMat(t, "dk", adk, bdk)
		mustBitwiseMat(t, "dv", adv, bdv)
	}
}

// naiveClusterSparseForward is ClusterSparse.Forward as it was written
// before its exponentials went through tensor.ExpCut: per row, the keep
// entries then every covering block's cells in block order, one math.Exp per
// entry with the −80 cutoff, the float64 sum in that order.
func naiveClusterSparseForward(c *ClusterSparse, q, k, v *tensor.Mat) *tensor.Mat {
	r, keep, db := c.R, c.R.Keep, int32(c.R.Db)
	scale := scaleFor(q.Cols)
	o := tensor.New(q.Rows, v.Cols)
	type entry struct {
		col   int // −1: a block cell beyond S
		block bool
		s     float32
	}
	for i := 0; i < r.S; i++ {
		var es []entry
		qi := q.Row(i)
		for e := keep.RowPtr[i]; e < keep.RowPtr[i+1]; e++ {
			sc := tensor.Dot(qi, k.Row(int(keep.ColIdx[e]))) * scale
			if c.keepBias != nil {
				sc += c.keepBias[e]
			}
			es = append(es, entry{col: int(keep.ColIdx[e]), s: sc})
		}
		for _, blk := range r.Blocks {
			if int32(i) < blk.Row0 || int32(i) >= blk.Row0+db {
				continue
			}
			for cb := int32(0); cb < db; cb++ {
				if ci := int(blk.Col0 + cb); ci >= r.S {
					es = append(es, entry{col: -1, block: true, s: negInf})
				} else {
					es = append(es, entry{col: ci, block: true, s: tensor.Dot(qi, k.Row(ci))*scale + c.blockBias})
				}
			}
		}
		if len(es) == 0 {
			continue
		}
		mx := negInf
		for _, e := range es {
			if e.s > mx {
				mx = e.s
			}
		}
		var sum float64
		p := make([]float32, len(es))
		for x, e := range es {
			if d := e.s - mx; d > -80 {
				p[x] = float32(math.Exp(float64(d)))
			}
			sum += float64(p[x])
		}
		inv := float32(1 / sum)
		for x, e := range es {
			p[x] *= inv
			if !e.block || (e.col >= 0 && p[x] != 0) {
				tensor.Axpy(p[x], v.Row(e.col), o.Row(i))
			}
		}
	}
	return o
}

// TestClusterSparseForwardBitwiseMatchesNaive: keep rows of every length
// 0…70 (every lane-group count and tail of the exp kernel, a row of one, rows
// with no keep entries that live on blocks alone, a row with nothing), blocks
// that overhang S (−1e30 padding cells) and score spreads wide enough that
// the −80 cutoff bites — with and without the biases.
func TestClusterSparseForwardBitwiseMatchesNaive(t *testing.T) {
	const s = 75
	var pairs []graph.Edge
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < s; i++ {
		for _, j := range rng.Perm(s)[:i%71] {
			pairs = append(pairs, graph.Edge{U: int32(i), V: int32(j)})
		}
	}
	r := &sparse.Reformed{S: s, Db: 4, Keep: sparse.FromPairs(s, pairs), Blocks: []sparse.SubBlock{
		{Row0: 0, Col0: 8}, {Row0: 0, Col0: 40}, {Row0: 36, Col0: 36}, {Row0: 68, Col0: 72}, {Row0: 72, Col0: 72},
	}}
	q, k, v := randQKV(rng, s, 6, 5)
	for i := 0; i < s; i += 3 {
		for x := range q.Row(i) {
			q.Row(i)[x] *= 90 // spread the row's scores past the cutoff
		}
	}
	bias := make([]float32, r.Keep.NNZ())
	for i := range bias {
		bias[i] = float32(rng.NormFloat64())
	}
	for _, biased := range []bool{false, true} {
		c := NewClusterSparse(r)
		if biased {
			c.SetEdgeBias(bias)
			c.SetBlockBias(-0.7)
		}
		cut := 0
		got := c.Forward(q, k, v)
		for _, p := range c.keepProbs {
			if p == 0 {
				cut++
			}
		}
		if cut == 0 {
			t.Fatal("no keep entry fell below the cutoff: the test lost its point")
		}
		mustBitwiseMat(t, "o", naiveClusterSparseForward(c, q, k, v), got)
	}
}
