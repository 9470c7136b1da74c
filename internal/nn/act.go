package nn

import (
	"torchgt/internal/tensor"
)

// GELU is the Gaussian error linear unit activation (tanh approximation, as
// used by Graphormer's FFN). The canonical math lives in tensor (GELU /
// GELUGrad) so this module and the fused tensor.BiasGELU evaluate the same
// float64 forms bitwise.
type GELU struct {
	x *tensor.Mat
}

func geluFwd(x float64) float64 { return tensor.GELU(x) }

func geluGrad(x float64) float64 { return tensor.GELUGrad(x) }

// Forward applies GELU element-wise, caching the input.
func (g *GELU) Forward(x *tensor.Mat) *tensor.Mat {
	g.x = x
	y := tensor.New(x.Rows, x.Cols)
	tensor.ParallelFor(x.Rows, func(lo, hi int) {
		for i := lo * x.Cols; i < hi*x.Cols; i++ {
			y.Data[i] = float32(geluFwd(float64(x.Data[i])))
		}
	})
	return y
}

// Backward returns dX.
func (g *GELU) Backward(dy *tensor.Mat) *tensor.Mat {
	dx := tensor.New(dy.Rows, dy.Cols)
	tensor.ParallelFor(dy.Rows, func(lo, hi int) {
		for i := lo * dy.Cols; i < hi*dy.Cols; i++ {
			dx.Data[i] = dy.Data[i] * float32(geluGrad(float64(g.x.Data[i])))
		}
	})
	return dx
}

// ReLU is the rectified linear activation (used by the GCN/GAT baselines).
type ReLU struct {
	x *tensor.Mat
}

// Forward applies max(0, x) element-wise.
func (r *ReLU) Forward(x *tensor.Mat) *tensor.Mat {
	r.x = x
	y := tensor.New(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
		}
	}
	return y
}

// Backward returns dX.
func (r *ReLU) Backward(dy *tensor.Mat) *tensor.Mat {
	dx := tensor.New(dy.Rows, dy.Cols)
	for i, v := range r.x.Data {
		if v > 0 {
			dx.Data[i] = dy.Data[i]
		}
	}
	return dx
}
