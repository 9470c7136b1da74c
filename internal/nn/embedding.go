package nn

import (
	"fmt"
	"math/rand"

	"torchgt/internal/tensor"
)

// Embedding is a lookup table: Forward gathers rows by index; Backward
// scatter-adds gradients back. Used for Graphormer's degree (centrality)
// encodings and SPD bias tables.
type Embedding struct {
	Num, Dim int
	W        *Param

	idx []int32 // cached indices

	chain GradChain // row-sharded plans only; see Linear.SetChain
}

// NewEmbedding constructs a table with N(0, 0.02) init.
func NewEmbedding(name string, num, dim int, rng *rand.Rand) *Embedding {
	e := &Embedding{Num: num, Dim: dim, W: NewParam(name, num, dim)}
	e.W.InitNormal(rng, 0.02)
	return e
}

// Params implements Module.
func (e *Embedding) Params() []*Param { return []*Param{e.W} }

// Forward gathers table rows for idx.
func (e *Embedding) Forward(idx []int32) *tensor.Mat {
	e.idx = idx
	y := tensor.New(len(idx), e.Dim)
	for i, id := range idx {
		if id < 0 || int(id) >= e.Num {
			panic(fmt.Sprintf("nn: embedding index %d out of range [0,%d)", id, e.Num))
		}
		copy(y.Row(i), e.W.W.Row(int(id)))
	}
	return y
}

// SetChain installs (nil: removes) the hook that continues the scatter-add
// across the ranks of a row-sharded plan.
func (e *Embedding) SetChain(c GradChain) { e.chain = c }

// Backward scatter-adds dy rows into the gradient table, in row order.
func (e *Embedding) Backward(dy *tensor.Mat) {
	chainContinue(e.chain, e.W.Grad.Data)
	for i, id := range e.idx {
		tensor.Axpy(1, dy.Row(i), e.W.Grad.Row(int(id)))
	}
	chainPass(e.chain, e.W.Grad.Data)
}

// LookupScalar reads a 1-column table value (for bias tables).
func (e *Embedding) LookupScalar(id int32) float32 { return e.W.W.At(int(id), 0) }

// AccumScalarGrad adds g to the gradient of a 1-column table entry.
func (e *Embedding) AccumScalarGrad(id int32, g float32) {
	e.W.Grad.Data[int(id)*e.Dim] += g
}
