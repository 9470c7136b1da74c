package attention

import (
	"math"

	"torchgt/internal/tensor"
)

// Kernelized is linear attention with positive feature maps φ(x) = elu(x)+1
// (Performer/NodeFormer-style): O = φ(Q)(φ(K)ᵀV) / (φ(Q)·Σφ(K)), giving
// O(S·d²) compute. It is the NodeFormer-lite used by the Fig. 1
// reproduction.
type Kernelized struct {
	ws         *tensor.Workspace
	q, k, v    *tensor.Mat
	phiQ, phiK *tensor.Mat
	m          *tensor.Mat // φ(K)ᵀ V  (d×dv)
	z          []float32   // Σ_j φ(k_j)  (d)
	den        []float32   // per-row denominators
	num        *tensor.Mat // numerators (S×dv)
	pairs      int64
}

// NewKernelized constructs the kernel.
func NewKernelized() *Kernelized { return &Kernelized{} }

// SetWorkspace implements WorkspaceUser.
func (kz *Kernelized) SetWorkspace(ws *tensor.Workspace) { kz.ws = ws }

// Name implements Kernel.
func (kz *Kernelized) Name() string { return "kernelized" }

// Pairs implements Kernel: linear attention touches S·d "virtual" pairs; we
// report S·d as its compute unit for the performance model.
func (kz *Kernelized) Pairs() int64 { return kz.pairs }

func elu1(x float32) float32 {
	if x >= 0 {
		return x + 1
	}
	return float32(math.Exp(float64(x)))
}

func elu1Grad(x float32) float32 {
	if x >= 0 {
		return 1
	}
	return float32(math.Exp(float64(x)))
}

// Forward implements Kernel.
func (kz *Kernelized) Forward(q, k, v *tensor.Mat) *tensor.Mat {
	checkQKV(q, k, v)
	kz.q, kz.k, kz.v = q, k, v
	s, d, dv := q.Rows, q.Cols, v.Cols
	kz.pairs = int64(s) * int64(d)
	phiQ := kz.ws.GetUninit(s, d)
	phiQ.CopyFrom(q)
	tensor.Apply(phiQ, elu1)
	phiK := kz.ws.GetUninit(s, d)
	phiK.CopyFrom(k)
	tensor.Apply(phiK, elu1)
	kz.phiQ, kz.phiK = phiQ, phiK
	m := kz.ws.GetUninit(d, dv)
	tensor.TMatMul(m, phiK, v)
	kz.m = m
	z := kz.ws.GetVec(d)
	tensor.ColSum(z, phiK)
	kz.z = z
	num := kz.ws.GetUninit(s, dv)
	tensor.MatMul(num, phiQ, m)
	kz.num = num
	o := kz.ws.GetUninit(s, dv)
	kz.den = kz.ws.GetVec(s)
	tensor.ParallelFor(s, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			den := tensor.Dot(phiQ.Row(i), z) + 1e-6
			kz.den[i] = den
			oi := o.Row(i)
			ni := num.Row(i)
			inv := 1 / den
			for x := range oi {
				oi[x] = ni[x] * inv
			}
		}
	})
	return o
}

// Backward implements Kernel.
func (kz *Kernelized) Backward(dO *tensor.Mat) (dq, dk, dv *tensor.Mat) {
	s, d, dvc := kz.q.Rows, kz.q.Cols, kz.v.Cols
	dNum := kz.ws.GetUninit(s, dvc)
	dDen := kz.ws.GetVec(s)
	for i := 0; i < s; i++ {
		den := kz.den[i]
		dOi := dO.Row(i)
		dNi := dNum.Row(i)
		inv := 1 / den
		var dd float32
		ni := kz.num.Row(i)
		for x := range dOi {
			dNi[x] = dOi[x] * inv
			dd += float32(dOi[x] * ni[x])
		}
		dDen[i] = -dd * inv * inv
	}
	// dφQ = dNum·Mᵀ + dDen ⊗ z
	dPhiQ := kz.ws.GetUninit(s, d)
	tensor.MatMulT(dPhiQ, dNum, kz.m)
	for i := 0; i < s; i++ {
		tensor.Axpy(dDen[i], kz.z, dPhiQ.Row(i))
	}
	// dM = φQᵀ·dNum ; dz = Σ_i dDen_i φQ_i
	dM := kz.ws.GetUninit(d, dvc)
	tensor.TMatMul(dM, kz.phiQ, dNum)
	dz := kz.ws.GetVec(d)
	for i := 0; i < s; i++ {
		tensor.Axpy(dDen[i], kz.phiQ.Row(i), dz)
	}
	// dφK_j = dM·v_j + dz ; dV_j = φK_jᵀ·dM
	dPhiK := kz.ws.GetUninit(s, d)
	tensor.MatMulT(dPhiK, kz.v, dM) // (S×dv)·(d×dv)ᵀ = S×d
	for i := 0; i < s; i++ {
		tensor.Axpy(1, dz, dPhiK.Row(i))
	}
	dv = kz.ws.GetUninit(s, dvc)
	tensor.MatMul(dv, kz.phiK, dM)
	// chain through φ
	dq = kz.ws.GetUninit(s, d)
	dk = kz.ws.GetUninit(s, d)
	for i := range dq.Data {
		dq.Data[i] = dPhiQ.Data[i] * elu1Grad(kz.q.Data[i])
		dk.Data[i] = dPhiK.Data[i] * elu1Grad(kz.k.Data[i])
	}
	return dq, dk, dv
}
