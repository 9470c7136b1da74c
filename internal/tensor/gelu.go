package tensor

import "math"

// Canonical GELU math (tanh approximation, as used by Graphormer's FFN).
// This is the single source of truth for the activation: nn.GELU and the
// fused BiasGELU both evaluate these float64 forms, which keeps the fused
// and unfused paths bitwise identical.

const geluC = 0.7978845608028654 // sqrt(2/π)

// GELU evaluates 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))).
func GELU(x float64) float64 {
	return 0.5 * x * (1 + math.Tanh(geluC*(x+float64(0.044715*x*x*x))))
}

// GELUGrad evaluates d/dx of GELU.
func GELUGrad(x float64) float64 {
	inner := geluC * (x + float64(0.044715*x*x*x))
	t := math.Tanh(inner)
	dInner := geluC * (1 + float64(3*0.044715*x*x))
	return float64(0.5*(1+t)) + float64(0.5*x*(1-float64(t*t))*dInner)
}
