package model

import (
	"math/rand"

	"torchgt/internal/nn"
	"torchgt/internal/tensor"
)

// Block is one pre-LN transformer layer:
//
//	x = x + Dropout(MHA(LN1(x)))
//	x = x + Dropout(FFN(LN2(x)))   with FFN = Linear→GELU→Linear.
type Block struct {
	LN1, LN2 *nn.LayerNorm
	Attn     *MHA
	FC1, FC2 *nn.Linear
	Drop1    *nn.Dropout
	Drop2    *nn.Dropout

	plan Plan
}

// SetPlan attaches the execution plan to the block and its attention.
func (b *Block) SetPlan(p Plan) {
	b.plan = normPlan(p)
	b.Attn.SetPlan(p)
	c := b.plan.gradChain()
	b.LN1.SetChain(c)
	b.LN2.SetChain(c)
	b.FC1.SetChain(c)
	b.FC2.SetChain(c)
}

// NewBlock constructs a transformer block.
func NewBlock(name string, hidden, heads, ffnHidden, numBuckets int, dropout float64, rng *rand.Rand) *Block {
	return &Block{
		LN1:   nn.NewLayerNorm(name+".ln1", hidden),
		LN2:   nn.NewLayerNorm(name+".ln2", hidden),
		Attn:  NewMHA(name+".attn", hidden, heads, numBuckets, rng),
		FC1:   nn.NewLinear(name+".fc1", hidden, ffnHidden, true, rng),
		FC2:   nn.NewLinear(name+".fc2", ffnHidden, hidden, true, rng),
		Drop1: nn.NewDropout(dropout, rng.Int63()),
		Drop2: nn.NewDropout(dropout, rng.Int63()),
	}
}

// Params implements nn.Module.
func (b *Block) Params() []*nn.Param {
	return nn.CollectParams(b.LN1, b.Attn, b.LN2, b.FC1, b.FC2)
}

// Forward runs the block. rows, when non-nil, are the rows of x the block
// computes: LN1, WK and WV still run on all of x (the keys and values the
// attention reads), while the queries, both residuals and the FFN run on
// those rows only, so the output has one row per entry of rows and spec's
// pattern must have exactly those rows, its columns indexing x (see
// rowSchedule). nil computes every row. Residual-sum buffers come from the
// runtime's step workspace; they are consumed within the step (the next layer
// caches what its backward needs), so pooling them is safe.
func (b *Block) Forward(x *tensor.Mat, spec *AttentionSpec, train bool, rows []int32) *tensor.Mat {
	ws := normPlan(b.plan).workspace(0)
	h := b.Attn.Forward(b.LN1.Forward(x), spec, rows)
	h = b.Drop1.Forward(h, train)
	x = pickRows(ws, x, rows)
	x1 := ws.GetUninit(x.Rows, x.Cols)
	tensor.Add(x1, x, h)

	// FFN with the fused bias+GELU first layer: one pass over the FC1
	// output instead of a bias sweep plus a separate activation sweep.
	f := b.FC2.Forward(b.FC1.ForwardGELU(b.LN2.Forward(x1)))
	f = b.Drop2.Forward(f, train)
	out := ws.GetUninit(x.Rows, x.Cols)
	tensor.Add(out, x1, f)
	return out
}

// Backward propagates dOut through the block and returns dX.
func (b *Block) Backward(dOut *tensor.Mat) *tensor.Mat {
	// FFN branch
	df := b.Drop2.Backward(dOut)
	dx1 := b.LN2.Backward(b.FC1.BackwardGELU(b.FC2.Backward(df)))
	tensor.AddInPlace(dx1, dOut) // residual

	// attention branch
	dh := b.Drop1.Backward(dx1)
	dx := b.LN1.Backward(b.Attn.Backward(dh))
	tensor.AddInPlace(dx, dx1) // residual
	return dx
}
