package attention

import (
	"torchgt/internal/tensor"
)

// Dense is full O(S²) attention with the score matrix materialised — the
// GP-Raw baseline. Supports an additive S×S bias (Graphormer's structural
// encodings): set via SetBias before Forward; BiasGrad is valid after
// Backward. Scratch and cache buffers come from the attached workspace when
// one is set (SetWorkspace), making steady-state steps allocation-free.
type Dense struct {
	bias     *tensor.Mat
	biasGrad *tensor.Mat

	ws      *tensor.Workspace
	q, k, v *tensor.Mat
	p       *tensor.Mat // softmax probabilities (S×S)
	pairs   int64
}

// NewDense constructs the dense kernel.
func NewDense() *Dense { return &Dense{} }

// Name implements Kernel.
func (d *Dense) Name() string { return "dense" }

// Pairs implements Kernel.
func (d *Dense) Pairs() int64 { return d.pairs }

// SetWorkspace implements WorkspaceUser.
func (d *Dense) SetWorkspace(ws *tensor.Workspace) { d.ws = ws }

// SetBias installs an additive S×S score bias (nil disables).
func (d *Dense) SetBias(b *tensor.Mat) { d.bias = b }

// BiasGrad returns the gradient w.r.t. the bias of the last Backward (nil if
// no bias was set).
func (d *Dense) BiasGrad() *tensor.Mat { return d.biasGrad }

// Forward implements Kernel.
func (d *Dense) Forward(q, k, v *tensor.Mat) *tensor.Mat {
	checkQKV(q, k, v)
	d.q, d.k, d.v = q, k, v
	s := q.Rows
	d.pairs = int64(s) * int64(s)
	scale := scaleFor(q.Cols)
	p := d.ws.GetUninit(s, s)
	tensor.MatMulT(p, q, k)
	tensor.Scale(p, scale)
	if d.bias != nil {
		tensor.AddInPlace(p, d.bias)
	}
	tensor.SoftmaxRows(p)
	d.p = p
	o := d.ws.GetUninit(s, v.Cols)
	tensor.MatMul(o, p, v)
	return o
}

// Backward implements Kernel.
func (d *Dense) Backward(dO *tensor.Mat) (dq, dk, dv *tensor.Mat) {
	s := d.q.Rows
	scale := scaleFor(d.q.Cols)
	dv = d.ws.GetUninit(s, d.v.Cols)
	tensor.TMatMul(dv, d.p, dO)
	dp := d.ws.GetUninit(s, s)
	tensor.MatMulT(dp, dO, d.v)
	// softmax backward row-wise, in place over dp → ds
	ds := d.ws.GetUninit(s, s)
	tensor.ParallelFor(s, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			tensor.SoftmaxBackwardRow(ds.Row(i), d.p.Row(i), dp.Row(i))
		}
	})
	if d.bias != nil {
		d.biasGrad = d.ws.GetUninit(s, s)
		d.biasGrad.CopyFrom(ds)
	} else {
		d.biasGrad = nil
	}
	dq = d.ws.GetUninit(s, d.q.Cols)
	tensor.MatMul(dq, ds, d.k)
	tensor.Scale(dq, scale)
	dk = d.ws.GetUninit(s, d.k.Cols)
	tensor.TMatMul(dk, ds, d.q)
	tensor.Scale(dk, scale)
	d.ws.Put(dp)
	d.ws.Put(ds)
	return dq, dk, dv
}
