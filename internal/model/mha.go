package model

import (
	"math/rand"

	"torchgt/internal/attention"
	"torchgt/internal/nn"
	"torchgt/internal/tensor"
)

// MHA is multi-head attention with pluggable kernels and optional learnable
// SPD bias tables (one scalar per bucket per head, shared across layers in
// Graphormer; we keep one table per layer for simplicity and note the
// difference in DESIGN.md).
//
// The per-head section is dispatched through the attached execution Plan:
// under the head-parallel Runtime heads fan out across worker slots, each
// drawing kernel scratch from its slot's workspace; under the
// sequence-parallel plans every rank reshards sequence↔heads through
// all-to-alls and runs its local heads under its own workspace. Heads are fully
// independent — they read shared Q/K/V and write disjoint column ranges of
// the shared output (and disjoint bias-table gradient entries, since every
// index is ≡ head (mod Heads)) — so every plan is race-free and bitwise
// identical to the sequential order.
type MHA struct {
	Hidden, Heads, Dh int
	WQ, WK, WV, WO    *nn.Linear
	BiasTable         *nn.Embedding // NumBuckets×Heads, nil when bias disabled

	plan Plan

	// per-forward state
	kernels []attention.Kernel
	spec    *AttentionSpec
}

// NewMHA builds the projections (and bias table when numBuckets > 0).
func NewMHA(name string, hidden, heads, numBuckets int, rng *rand.Rand) *MHA {
	m := &MHA{
		Hidden: hidden, Heads: heads, Dh: hidden / heads,
		WQ: nn.NewLinear(name+".wq", hidden, hidden, true, rng),
		WK: nn.NewLinear(name+".wk", hidden, hidden, true, rng),
		WV: nn.NewLinear(name+".wv", hidden, hidden, true, rng),
		WO: nn.NewLinear(name+".wo", hidden, hidden, true, rng),
	}
	if numBuckets > 0 {
		m.BiasTable = nn.NewEmbedding(name+".bias", numBuckets, heads, rng)
	}
	return m
}

// SetPlan attaches the execution plan (nil reverts to sequential, unpooled
// execution).
func (m *MHA) SetPlan(p Plan) {
	m.plan = normPlan(p)
	c := m.plan.gradChain()
	m.WQ.SetChain(c)
	m.WK.SetChain(c)
	m.WV.SetChain(c)
	m.WO.SetChain(c)
}

// Params implements nn.Module.
func (m *MHA) Params() []*nn.Param {
	ps := nn.CollectParams(m.WQ, m.WK, m.WV, m.WO)
	if m.BiasTable != nil {
		ps = append(ps, m.BiasTable.Params()...)
	}
	return ps
}

// newKernel instantiates the kernel for one head according to the spec,
// drawing bias scratch from ws.
func (m *MHA) newKernel(head int, spec *AttentionSpec, s int, ws *tensor.Workspace) attention.Kernel {
	k := m.newKernelInner(head, spec, s, ws)
	if spec.BF16 {
		k = &attention.BF16Wrap{Inner: k}
	}
	return attention.WithWorkspace(k, ws)
}

func (m *MHA) newKernelInner(head int, spec *AttentionSpec, s int, ws *tensor.Workspace) attention.Kernel {
	switch spec.Mode {
	case ModeDense:
		d := attention.NewDense()
		if m.BiasTable != nil && spec.DenseBuckets != nil {
			bias := ws.GetUninit(s, s)
			for i := 0; i < s; i++ {
				row := bias.Row(i)
				for j := 0; j < s; j++ {
					row[j] = m.BiasTable.W.W.At(int(spec.DenseBuckets[i][j]), head)
				}
			}
			d.SetBias(bias)
		}
		return d
	case ModeFlash:
		return attention.NewFlash(false)
	case ModeSparse:
		sp := attention.NewSparse(spec.Pattern)
		if m.BiasTable != nil && spec.EdgeBuckets != nil {
			bias := ws.GetVec(len(spec.EdgeBuckets))
			for e, b := range spec.EdgeBuckets {
				bias[e] = m.BiasTable.W.W.At(int(b), head)
			}
			sp.SetEdgeBias(bias)
		}
		return sp
	case ModeClusterSparse:
		cs := attention.NewClusterSparse(spec.Reformed)
		if m.BiasTable != nil {
			if spec.KeepBuckets != nil {
				bias := ws.GetVec(len(spec.KeepBuckets))
				for e, b := range spec.KeepBuckets {
					bias[e] = m.BiasTable.W.W.At(int(b), head)
				}
				cs.SetEdgeBias(bias)
			}
			// all compacted entries represent direct edges → bucket 1
			if m.BiasTable.Num > 1 {
				cs.SetBlockBias(m.BiasTable.W.W.At(1, head))
			}
		}
		return cs
	case ModeKernelized:
		return attention.NewKernelized()
	}
	panic("model: unknown attention mode")
}

// Forward runs multi-head attention over x — the token sequence (S×Hidden),
// or under a row-sharded plan this rank's rows of it — using spec's kernels.
// With rows non-nil only those rows of x are queries, and the output has one
// row per entry of rows (see Block.Forward). The projections are row-wise;
// the per-head section, which needs the whole sequence, is scheduled by the
// attached Plan.
func (m *MHA) Forward(x *tensor.Mat, spec *AttentionSpec, rows []int32) *tensor.Mat {
	q := m.WQ.Forward(pickRows(normPlan(m.plan).workspace(0), x, rows))
	k := m.WK.Forward(x)
	v := m.WV.Forward(x)
	concat := normPlan(m.plan).forwardHeads(m, q, k, v, spec)
	return m.WO.Forward(concat)
}

// beginHeads opens a head section over a sequence of s tokens: every plan's
// forwardHeads calls it first.
func (m *MHA) beginHeads(spec *AttentionSpec, s int) {
	if err := spec.Validate(s); err != nil {
		panic(err)
	}
	m.spec = spec
	if len(m.kernels) != m.Heads {
		m.kernels = make([]attention.Kernel, m.Heads)
	}
}

// Backward propagates through WO, each head's kernel (scheduled by the
// Plan, which also accumulates bias-table gradients) and the projections,
// and returns dX.
func (m *MHA) Backward(dout *tensor.Mat) *tensor.Mat {
	dConcat := m.WO.Backward(dout)
	dq, dk, dv := normPlan(m.plan).backwardHeads(m, dConcat)
	dx := m.WQ.Backward(dq)
	tensor.AddInPlace(dx, m.WK.Backward(dk))
	tensor.AddInPlace(dx, m.WV.Backward(dv))
	return dx
}

// AccumBiasGrads scatters one head-kernel's bias gradients into the bias
// table (exported for the distributed runtime). All indices written are
// ≡ head (mod Heads), keeping concurrent per-head calls race-free.
func (m *MHA) AccumBiasGrads(head int, kernel attention.Kernel, spec *AttentionSpec) {
	if m.BiasTable == nil || kernel == nil {
		return
	}
	grad := m.BiasTable.W.Grad
	if w, ok := kernel.(*attention.BF16Wrap); ok {
		kernel = w.Inner
	}
	switch kr := kernel.(type) {
	case *attention.Dense:
		bg := kr.BiasGrad()
		if bg == nil || spec.DenseBuckets == nil {
			return
		}
		for i := 0; i < bg.Rows; i++ {
			row := bg.Row(i)
			for j, g := range row {
				grad.Data[int(spec.DenseBuckets[i][j])*m.Heads+head] += g
			}
		}
	case *attention.Sparse:
		bg := kr.EdgeBiasGrad()
		if bg == nil {
			return
		}
		for e, g := range bg {
			grad.Data[int(spec.EdgeBuckets[e])*m.Heads+head] += g
		}
	case *attention.ClusterSparse:
		if bg := kr.EdgeBiasGrad(); bg != nil {
			for e, g := range bg {
				grad.Data[int(spec.KeepBuckets[e])*m.Heads+head] += g
			}
		}
		if m.BiasTable.Num > 1 {
			grad.Data[1*m.Heads+head] += kr.BlockBiasGrad()
		}
	}
}

// Pairs sums attended pairs over heads of the last forward (compute units).
func (m *MHA) Pairs() int64 {
	var p int64
	for _, k := range m.kernels {
		if k != nil {
			p += k.Pairs()
		}
	}
	return p
}
