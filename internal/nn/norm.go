package nn

import (
	"math"

	"torchgt/internal/tensor"
)

// LayerNorm normalises each row to zero mean / unit variance, then applies a
// learnable affine transform.
type LayerNorm struct {
	Dim   int
	Gamma *Param // 1×Dim
	Beta  *Param // 1×Dim
	Eps   float32

	xhat   *tensor.Mat // cached normalised input
	invStd []float32   // cached per-row 1/σ

	chain GradChain // row-sharded plans only; see Linear.SetChain
}

// NewLayerNorm constructs a LayerNorm with γ=1, β=0.
func NewLayerNorm(name string, dim int) *LayerNorm {
	ln := &LayerNorm{Dim: dim, Gamma: NewParam(name+".gamma", 1, dim), Beta: NewParam(name+".beta", 1, dim), Eps: 1e-5}
	ln.Gamma.W.Fill(1)
	return ln
}

// Params implements Module.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gamma, ln.Beta} }

// SetChain installs (nil: removes) the hook that continues the dγ/dβ row
// reductions across the ranks of a row-sharded plan.
func (ln *LayerNorm) SetChain(c GradChain) { ln.chain = c }

// Forward normalises x row-wise.
func (ln *LayerNorm) Forward(x *tensor.Mat) *tensor.Mat {
	y := tensor.New(x.Rows, x.Cols)
	ln.xhat = tensor.New(x.Rows, x.Cols)
	ln.invStd = make([]float32, x.Rows)
	gamma := ln.Gamma.W.Data
	beta := ln.Beta.W.Data
	tensor.ParallelFor(x.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := x.Row(i)
			var mean float64
			for _, v := range row {
				mean += float64(v)
			}
			mean /= float64(len(row))
			var varsum float64
			for _, v := range row {
				d := float64(v) - mean
				varsum += d * d
			}
			inv := float32(1.0 / math.Sqrt(varsum/float64(len(row))+float64(ln.Eps)))
			ln.invStd[i] = inv
			xh := ln.xhat.Row(i)
			yr := y.Row(i)
			for j, v := range row {
				h := (v - float32(mean)) * inv
				xh[j] = h
				yr[j] = h*gamma[j] + beta[j]
			}
		}
	})
	return y
}

// Backward accumulates dγ, dβ and returns dX.
func (ln *LayerNorm) Backward(dy *tensor.Mat) *tensor.Mat {
	dx := tensor.New(dy.Rows, dy.Cols)
	gamma := ln.Gamma.W.Data
	n := float32(ln.Dim)
	// per-row backward; parameter grads accumulated serially afterwards to
	// avoid write races.
	tensor.ParallelFor(dy.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dyr := dy.Row(i)
			xh := ln.xhat.Row(i)
			var sumDh, sumDhXh float32
			for j := range dyr {
				dh := dyr[j] * gamma[j]
				sumDh += dh
				sumDhXh += dh * xh[j]
			}
			inv := ln.invStd[i]
			dxr := dx.Row(i)
			for j := range dyr {
				dh := dyr[j] * gamma[j]
				dxr[j] = (dh - sumDh/n - xh[j]*sumDhXh/n) * inv
			}
		}
	})
	dg := ln.Gamma.Grad.Data
	db := ln.Beta.Grad.Data
	chainContinue(ln.chain, dg)
	chainContinue(ln.chain, db)
	for i := 0; i < dy.Rows; i++ {
		dyr := dy.Row(i)
		xh := ln.xhat.Row(i)
		for j, v := range dyr {
			dg[j] += v * xh[j]
			db[j] += v
		}
	}
	chainPass(ln.chain, dg)
	chainPass(ln.chain, db)
	return dx
}
