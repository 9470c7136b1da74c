package model

import (
	"math"
	"math/rand"

	"torchgt/internal/attention"
	"torchgt/internal/graph"
	"torchgt/internal/nn"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// spmm is symmetric-normalised adjacency multiplication y = Â·x with
// Â = D^{-1/2}(A+I)D^{-1/2}; since Â is symmetric the backward pass reuses
// the same operator.
type spmm struct {
	g    *graph.Graph // with self loops
	coef []float32    // per stored edge
}

func newSpmm(g *graph.Graph) *spmm {
	gl := g.WithSelfLoops()
	dinv := make([]float32, gl.N)
	for i := 0; i < gl.N; i++ {
		dinv[i] = float32(1.0 / math.Sqrt(float64(gl.Degree(i))))
	}
	coef := make([]float32, gl.NumEdges())
	idx := 0
	for u := 0; u < gl.N; u++ {
		for _, v := range gl.Neighbors(u) {
			coef[idx] = dinv[u] * dinv[v]
			idx++
		}
	}
	return &spmm{g: gl, coef: coef}
}

func (s *spmm) apply(ws *tensor.Workspace, x *tensor.Mat) *tensor.Mat {
	y := ws.Get(x.Rows, x.Cols)
	tensor.ParallelFor(s.g.N, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			yi := y.Row(i)
			for e := s.g.RowPtr[i]; e < s.g.RowPtr[i+1]; e++ {
				tensor.Axpy(s.coef[e], x.Row(int(s.g.ColIdx[e])), yi)
			}
		}
	})
	return y
}

// GCN is the 2-layer graph convolutional network baseline of Table I:
// logits = Â·ReLU(Â·X·W1)·W2.
type GCN struct {
	A        *spmm
	L1, L2   *nn.Linear
	Act      *nn.ReLU
	Drop     *nn.Dropout
	hidCache *tensor.Mat

	ws *tensor.Workspace // per-step scratch, reset at every Forward
}

// NewGCN builds the baseline for graph g.
func NewGCN(g *graph.Graph, inDim, hidden, outDim int, dropout float64, seed int64) *GCN {
	rng := rand.New(rand.NewSource(seed))
	return &GCN{
		A:    newSpmm(g),
		L1:   nn.NewLinear("gcn.l1", inDim, hidden, true, rng),
		L2:   nn.NewLinear("gcn.l2", hidden, outDim, true, rng),
		Act:  &nn.ReLU{},
		Drop: nn.NewDropout(dropout, seed+1),
		ws:   tensor.NewWorkspace(),
	}
}

// Params implements nn.Module.
func (m *GCN) Params() []*nn.Param { return nn.CollectParams(m.L1, m.L2) }

// Forward computes node logits.
func (m *GCN) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	m.ws.Reset()
	h := m.Act.Forward(m.L1.Forward(m.A.apply(m.ws, x)))
	h = m.Drop.Forward(h, train)
	m.hidCache = h
	return m.L2.Forward(m.A.apply(m.ws, h))
}

// Backward accumulates parameter gradients from dLogits. The gradient
// w.r.t. the input features is never propagated further, so it is not
// computed.
func (m *GCN) Backward(dLogits *tensor.Mat) {
	dh := m.A.apply(m.ws, m.L2.Backward(dLogits)) // Â symmetric
	dh = m.Drop.Backward(dh)
	m.L1.BackwardParams(m.Act.Backward(dh))
}

// GAT is a 2-layer graph attention baseline. As documented in DESIGN.md it
// uses the dot-product variant of neighbourhood attention (scores
// q_i·k_j/√d over graph edges, softmax per neighbourhood) rather than GAT's
// additive LeakyReLU scoring — the neighbourhood-attention structure that
// Table I contrasts with transformers is preserved.
type GAT struct {
	P          *sparse.Pattern
	WQ1, WK1   *nn.Linear
	WV1        *nn.Linear
	WQ2, WK2   *nn.Linear
	WV2        *nn.Linear
	Out        *nn.Linear
	Act        *nn.ReLU
	att1, att2 *attention.Sparse

	ws *tensor.Workspace // per-step scratch, reset at every Forward
}

// NewGAT builds the baseline over graph g.
func NewGAT(g *graph.Graph, inDim, hidden, outDim int, seed int64) *GAT {
	rng := rand.New(rand.NewSource(seed))
	p := sparse.FromGraph(g)
	return &GAT{
		P:   p,
		WQ1: nn.NewLinear("gat.q1", inDim, hidden, true, rng),
		WK1: nn.NewLinear("gat.k1", inDim, hidden, true, rng),
		WV1: nn.NewLinear("gat.v1", inDim, hidden, true, rng),
		WQ2: nn.NewLinear("gat.q2", hidden, hidden, true, rng),
		WK2: nn.NewLinear("gat.k2", hidden, hidden, true, rng),
		WV2: nn.NewLinear("gat.v2", hidden, hidden, true, rng),
		Out: nn.NewLinear("gat.out", hidden, outDim, true, rng),
		Act: &nn.ReLU{},
		ws:  tensor.NewWorkspace(),
	}
}

// Params implements nn.Module.
func (m *GAT) Params() []*nn.Param {
	return nn.CollectParams(m.WQ1, m.WK1, m.WV1, m.WQ2, m.WK2, m.WV2, m.Out)
}

// Forward computes node logits.
func (m *GAT) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	m.ws.Reset()
	m.att1 = attention.NewSparse(m.P)
	m.att1.SetWorkspace(m.ws)
	h := m.att1.Forward(m.WQ1.Forward(x), m.WK1.Forward(x), m.WV1.Forward(x))
	h = m.Act.Forward(h)
	m.att2 = attention.NewSparse(m.P)
	m.att2.SetWorkspace(m.ws)
	h2 := m.att2.Forward(m.WQ2.Forward(h), m.WK2.Forward(h), m.WV2.Forward(h))
	return m.Out.Forward(h2)
}

// Backward accumulates parameter gradients.
func (m *GAT) Backward(dLogits *tensor.Mat) {
	dh2 := m.Out.Backward(dLogits)
	dq2, dk2, dv2 := m.att2.Backward(dh2)
	dh := m.WQ2.Backward(dq2)
	tensor.AddInPlace(dh, m.WK2.Backward(dk2))
	tensor.AddInPlace(dh, m.WV2.Backward(dv2))
	dh = m.Act.Backward(dh)
	dq1, dk1, dv1 := m.att1.Backward(dh)
	m.WQ1.BackwardParams(dq1)
	m.WK1.BackwardParams(dk1)
	m.WV1.BackwardParams(dv1)
}

// GCNGraph is a graph-level GCN baseline (Table I's ZINC column): two GCN
// layers over each small graph followed by mean pooling and a linear head.
type GCNGraph struct {
	L1, L2 *nn.Linear
	Head   *nn.Linear
	Act    *nn.ReLU

	a        *spmm
	poolRows int
	hid      *tensor.Mat

	ws *tensor.Workspace // per-step scratch, reset at every Forward
}

// NewGCNGraph builds the baseline.
func NewGCNGraph(inDim, hidden, outDim int, seed int64) *GCNGraph {
	rng := rand.New(rand.NewSource(seed))
	return &GCNGraph{
		L1:   nn.NewLinear("gcng.l1", inDim, hidden, true, rng),
		L2:   nn.NewLinear("gcng.l2", hidden, hidden, true, rng),
		Head: nn.NewLinear("gcng.head", hidden, outDim, true, rng),
		Act:  &nn.ReLU{},
		ws:   tensor.NewWorkspace(),
	}
}

// Params implements nn.Module.
func (m *GCNGraph) Params() []*nn.Param { return nn.CollectParams(m.L1, m.L2, m.Head) }

// Forward computes one graph's output (1×OutDim) via mean pooling.
func (m *GCNGraph) Forward(g *graph.Graph, x *tensor.Mat) *tensor.Mat {
	m.ws.Reset()
	m.a = newSpmm(g)
	h := m.Act.Forward(m.L1.Forward(m.a.apply(m.ws, x)))
	h = m.L2.Forward(m.a.apply(m.ws, h))
	m.hid = h
	m.poolRows = h.Rows
	pooled := m.ws.Get(1, h.Cols)
	for i := 0; i < h.Rows; i++ {
		tensor.Axpy(1.0/float32(h.Rows), h.Row(i), pooled.Row(0))
	}
	return m.Head.Forward(pooled)
}

// Backward accumulates gradients from dOut (1×OutDim).
func (m *GCNGraph) Backward(dOut *tensor.Mat) {
	dPooled := m.Head.Backward(dOut)
	dh := m.ws.Get(m.poolRows, dPooled.Cols)
	for i := 0; i < m.poolRows; i++ {
		tensor.Axpy(1.0/float32(m.poolRows), dPooled.Row(0), dh.Row(i))
	}
	dh = m.a.apply(m.ws, m.L2.Backward(dh))
	dh = m.Act.Backward(dh)
	m.L1.BackwardParams(dh)
}
