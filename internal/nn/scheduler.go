package nn

import "math"

// LRScheduler produces a learning rate per step. Graph transformers are
// conventionally trained with linear warmup followed by a decay phase
// (Graphormer uses polynomial decay); both are provided.
type LRScheduler interface {
	// LR returns the learning rate for 0-based step t.
	LR(t int) float64
}

// ConstantLR always returns Base.
type ConstantLR struct{ Base float64 }

// LR implements LRScheduler.
func (c ConstantLR) LR(int) float64 { return c.Base }

// WarmupCosine ramps linearly to Peak over Warmup steps, then decays to
// Floor along a half cosine over the remaining Total−Warmup steps.
type WarmupCosine struct {
	Peak   float64
	Floor  float64
	Warmup int
	Total  int
}

// LR implements LRScheduler.
func (s WarmupCosine) LR(t int) float64 {
	if s.Warmup > 0 && t < s.Warmup {
		return s.Peak * float64(t+1) / float64(s.Warmup)
	}
	if t >= s.Total {
		return s.Floor
	}
	span := float64(s.Total - s.Warmup)
	if span <= 0 {
		return s.Floor
	}
	progress := float64(t-s.Warmup) / span
	return s.Floor + float64((s.Peak-s.Floor)*0.5*(1+math.Cos(math.Pi*progress)))
}

// WarmupPoly is Graphormer's polynomial-decay schedule: linear warmup to
// Peak, then (1 − progress)^Power decay to Floor.
type WarmupPoly struct {
	Peak   float64
	Floor  float64
	Warmup int
	Total  int
	Power  float64 // 0 → 1.0 (linear decay)
}

// LR implements LRScheduler.
func (s WarmupPoly) LR(t int) float64 {
	if s.Warmup > 0 && t < s.Warmup {
		return s.Peak * float64(t+1) / float64(s.Warmup)
	}
	if t >= s.Total {
		return s.Floor
	}
	span := float64(s.Total - s.Warmup)
	if span <= 0 {
		return s.Floor
	}
	p := s.Power
	if p <= 0 {
		p = 1
	}
	progress := float64(t-s.Warmup) / span
	return s.Floor + float64((s.Peak-s.Floor)*math.Pow(1-progress, p))
}

// StepWith applies one optimiser step at the scheduler's rate for step t.
func StepWith(opt *Adam, sched LRScheduler, t int, params []*Param) {
	opt.LR = sched.LR(t)
	opt.Step(params)
}
