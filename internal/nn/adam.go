package nn

import (
	"math"

	"torchgt/internal/tensor"
)

// Adam implements the Adam optimiser with optional decoupled weight decay
// and global-norm gradient clipping.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64
	ClipNorm    float64 // 0 disables clipping

	t int
	m map[*Param]*tensor.Mat
	v map[*Param]*tensor.Mat
}

// NewAdam constructs an Adam optimiser with the usual defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param]*tensor.Mat), v: make(map[*Param]*tensor.Mat),
	}
}

// StepCount reports how many optimiser steps have been applied (the bias-
// correction time step t).
func (a *Adam) StepCount() int { return a.t }

// SetStepCount restores the bias-correction time step; used when resuming
// from a checkpoint.
func (a *Adam) SetStepCount(t int) { a.t = t }

// Moments returns the first/second moment accumulators for p, or nil if the
// optimiser has not stepped p yet.
func (a *Adam) Moments(p *Param) (m, v *tensor.Mat) { return a.m[p], a.v[p] }

// SetMoments installs moment accumulators for p (shapes must match p.W);
// used when resuming from a checkpoint.
func (a *Adam) SetMoments(p *Param, m, v *tensor.Mat) {
	a.m[p] = m
	a.v[p] = v
}

// Step applies one update to all params from their accumulated gradients,
// then zeroes the gradients.
func (a *Adam) Step(params []*Param) {
	a.t++
	if a.ClipNorm > 0 {
		var sq float64
		for _, p := range params {
			for _, g := range p.Grad.Data {
				sq += float64(float64(g) * float64(g))
			}
		}
		norm := math.Sqrt(sq)
		if norm > a.ClipNorm {
			scale := float32(a.ClipNorm / (norm + 1e-12))
			for _, p := range params {
				tensor.Scale(p.Grad, scale)
			}
		}
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.W.Rows, p.W.Cols)
			a.m[p] = m
			a.v[p] = tensor.New(p.W.Rows, p.W.Cols)
		}
		v := a.v[p]
		b1, b2 := float32(a.Beta1), float32(a.Beta2)
		lr := float32(a.LR)
		for i, g := range p.Grad.Data {
			if a.WeightDecay > 0 {
				p.W.Data[i] -= float32(lr * float32(a.WeightDecay) * p.W.Data[i])
			}
			m.Data[i] = float32(b1*m.Data[i]) + float32((1-b1)*g)
			v.Data[i] = float32(b2*v.Data[i]) + float32((1-b2)*g*g)
			mhat := float64(m.Data[i]) / bc1
			vhat := float64(v.Data[i]) / bc2
			p.W.Data[i] -= float32(float64(lr) * mhat / (math.Sqrt(vhat) + a.Eps))
		}
		p.ZeroGrad()
	}
}
