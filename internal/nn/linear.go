package nn

import (
	"math/rand"

	"torchgt/internal/tensor"
)

// Linear is a fully-connected layer Y = X·W + b.
type Linear struct {
	In, Out int
	W       *Param // In×Out
	B       *Param // 1×Out (nil when bias disabled)

	x *tensor.Mat // cached input for backward
	z *tensor.Mat // cached pre-activation for BackwardGELU (fused path only)

	// segs, when non-nil, are packed-batch row bounds (len = segments+1,
	// ascending, covering [0, rows]): the weight gradient is then reduced
	// segment by segment — each row range's xᵀ·dy formed from zero, then
	// added to the grad, in bounds order — reproducing bit for bit the
	// summation order of separate per-segment Backward calls. The bias
	// gradient needs no such treatment: ColSum already accumulates
	// row-ascending directly into the grad, which is the same order packed
	// or not.
	segs []int32

	chain GradChain // row-sharded plans only; see SetChain
}

// NewLinear constructs a Linear layer with Xavier-initialised weights.
func NewLinear(name string, in, out int, bias bool, rng *rand.Rand) *Linear {
	l := &Linear{In: in, Out: out, W: NewParam(name+".W", in, out)}
	l.W.InitXavier(rng)
	if bias {
		l.B = NewParam(name+".b", 1, out)
	}
	return l
}

// Params implements Module.
func (l *Linear) Params() []*Param {
	if l.B == nil {
		return []*Param{l.W}
	}
	return []*Param{l.W, l.B}
}

// Forward computes Y = X·W + b, caching X for backward.
func (l *Linear) Forward(x *tensor.Mat) *tensor.Mat {
	l.x = x
	y := tensor.New(x.Rows, l.Out)
	tensor.MatMul(y, x, l.W.W)
	if l.B != nil {
		tensor.AddRowVec(y, l.B.W.Data)
	}
	return y
}

// SetSegments installs packed-batch row bounds consulted by Backward and
// BackwardGELU (nil restores the single whole-input reduction). The bounds
// must cover the rows of the NEXT backward's upstream gradient.
func (l *Linear) SetSegments(bounds []int32) { l.segs = bounds }

// SetChain installs (nil: removes) the hook that continues this layer's
// weight- and bias-gradient reductions across the ranks of a row-sharded
// plan. Under a chain, ranks other than the last leave W.Grad untouched and
// B.Grad holding a running value; the plan replaces both with the last
// rank's at the end of the step. Not combined with SetSegments.
func (l *Linear) SetChain(c GradChain) { l.chain = c }

// accumWeightGrad adds xᵀ·dy to the weight gradient — in one reduction
// normally, or under SetSegments each segment's product formed from zero and
// added whole, in bounds order (tensor.TMatMulSegAcc), so a packed batch
// accumulates in exactly the order the unpacked per-segment calls would.
func (l *Linear) accumWeightGrad(x, dy *tensor.Mat) {
	if l.segs != nil {
		tensor.TMatMulSegAcc(l.W.Grad, x, dy, l.segs)
		return
	}
	dW := tensor.New(l.In, l.Out)
	chainContinue(l.chain, dW.Data)
	tensor.TMatMulAcc(dW, x, dy)
	if chainPass(l.chain, dW.Data) {
		tensor.AddInPlace(l.W.Grad, dW)
	}
}

// Backward accumulates dW, db and returns dX.
func (l *Linear) Backward(dy *tensor.Mat) *tensor.Mat {
	l.BackwardParams(dy)
	dx := tensor.New(dy.Rows, l.In)
	tensor.MatMulT(dx, dy, l.W.W)
	return dx
}

// BackwardParams accumulates dW and db as Backward does and computes no dX:
// the backward of a layer that reads the model's input, whose gradient
// nothing consumes.
func (l *Linear) BackwardParams(dy *tensor.Mat) {
	l.accumWeightGrad(l.x, dy)
	if l.B != nil {
		chainContinue(l.chain, l.B.Grad.Data)
		tensor.ColSum(l.B.Grad.Data, dy)
		chainPass(l.chain, l.B.Grad.Data)
	}
}

// ForwardGELU computes Y = GELU(X·W + b) with the bias add and activation
// fused into one matrix pass (tensor.BiasGELU), replacing the
// Forward-then-GELU sequence that swept the X·W result twice. The
// pre-activation z is cached for BackwardGELU. Requires a bias (panics
// otherwise — a biasless FFN layer has no fusion to exploit and should use
// Forward plus an explicit activation).
func (l *Linear) ForwardGELU(x *tensor.Mat) *tensor.Mat {
	if l.B == nil {
		panic("nn: Linear.ForwardGELU requires a bias")
	}
	l.x = x
	u := tensor.New(x.Rows, l.Out)
	tensor.MatMul(u, x, l.W.W)
	y := tensor.New(x.Rows, l.Out)
	tensor.BiasGELU(y, u, l.B.W.Data) // u becomes z = X·W + b in place
	l.z = u
	return y
}

// BackwardGELU is the backward of ForwardGELU: dz = dy ⊙ GELU'(z) with the
// bias gradient accumulated in the same fused pass, then the usual weight
// gradient and input gradient from dz.
func (l *Linear) BackwardGELU(dy *tensor.Mat) *tensor.Mat {
	dz := tensor.New(dy.Rows, dy.Cols)
	chainContinue(l.chain, l.B.Grad.Data)
	tensor.BiasGELUGrad(dz, l.B.Grad.Data, l.z, dy)
	chainPass(l.chain, l.B.Grad.Data)
	l.accumWeightGrad(l.x, dz)
	dx := tensor.New(dz.Rows, l.In)
	tensor.MatMulT(dx, dz, l.W.W)
	return dx
}
