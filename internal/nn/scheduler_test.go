package nn

import (
	"math"
	"testing"
)

func TestConstantLR(t *testing.T) {
	s := ConstantLR{Base: 0.01}
	if s.LR(0) != 0.01 || s.LR(1000) != 0.01 {
		t.Fatal("constant LR must not vary")
	}
}

func TestWarmupCosineShape(t *testing.T) {
	s := WarmupCosine{Peak: 1.0, Floor: 0.1, Warmup: 10, Total: 110}
	// warmup: strictly increasing up to peak
	for i := 1; i < 10; i++ {
		if s.LR(i) <= s.LR(i-1) {
			t.Fatalf("warmup not increasing at %d", i)
		}
	}
	if math.Abs(s.LR(9)-1.0) > 1e-9 {
		t.Fatalf("warmup should reach peak: %v", s.LR(9))
	}
	// decay: non-increasing down to floor
	for i := 11; i < 110; i++ {
		if s.LR(i) > s.LR(i-1)+1e-12 {
			t.Fatalf("decay not monotone at %d", i)
		}
	}
	if math.Abs(s.LR(109)-0.1) > 1e-2 {
		t.Fatalf("should approach floor: %v", s.LR(109))
	}
	if s.LR(500) != 0.1 {
		t.Fatal("past total → floor")
	}
}

func TestWarmupPolyShape(t *testing.T) {
	s := WarmupPoly{Peak: 1.0, Floor: 0, Warmup: 5, Total: 55, Power: 2}
	if math.Abs(s.LR(4)-1.0) > 1e-9 {
		t.Fatalf("warmup end should be peak: %v", s.LR(4))
	}
	mid := s.LR(30)
	if mid <= 0 || mid >= 1 {
		t.Fatalf("mid-decay LR out of range: %v", mid)
	}
	// power 2 decays faster than linear at the same progress
	lin := WarmupPoly{Peak: 1.0, Floor: 0, Warmup: 5, Total: 55, Power: 1}
	if s.LR(30) >= lin.LR(30) {
		t.Fatal("quadratic decay should undercut linear decay mid-schedule")
	}
	if s.LR(1000) != 0 {
		t.Fatal("past total → floor")
	}
	// degenerate: zero span
	zs := WarmupPoly{Peak: 1, Floor: 0.5, Warmup: 10, Total: 10}
	if zs.LR(10) != 0.5 {
		t.Fatal("zero span must return floor")
	}
}

func TestStepWithAppliesScheduledRate(t *testing.T) {
	p := NewParam("w", 1, 1)
	p.W.Data[0] = 1
	opt := NewAdam(999) // will be overwritten by the scheduler
	sched := ConstantLR{Base: 0}
	p.Grad.Data[0] = 1
	StepWith(opt, sched, 0, []*Param{p})
	if p.W.Data[0] != 1 {
		t.Fatal("lr=0 step must not move weights")
	}
	if opt.LR != 0 {
		t.Fatal("scheduler should set opt.LR")
	}
}
