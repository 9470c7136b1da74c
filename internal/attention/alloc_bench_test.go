package attention

import (
	"math/rand"
	"testing"

	"torchgt/internal/graph"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// Allocation-regression benchmarks: each kernel's Forward+Backward step is
// measured with b.ReportAllocs twice — once unpooled (the old behaviour) and
// once drawing from a workspace. Workers are pinned to 1 so that the numbers
// count kernel buffers, not goroutine-launch overhead; after warm-up the
// pooled path allocates ~0 bytes per step. TestPooledAllocsAtLeastHalved
// guards the pooled-vs-unpooled allocs/op ratio in CI.

func benchStep(b *testing.B, mk func() Kernel, pooled bool, s, d int) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	rng := rand.New(rand.NewSource(1))
	q := tensor.New(s, d)
	k := tensor.New(s, d)
	v := tensor.New(s, d)
	tensor.RandN(q, rng, 0.5)
	tensor.RandN(k, rng, 0.5)
	tensor.RandN(v, rng, 0.5)
	dO := tensor.New(s, d)
	tensor.RandN(dO, rng, 1)

	var ws *tensor.Workspace
	if pooled {
		ws = tensor.NewWorkspace()
	}
	kr := WithWorkspace(mk(), ws)
	// warm-up: populate the pools
	kr.Forward(q, k, v)
	kr.Backward(dO)
	ws.Reset()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kr.Forward(q, k, v)
		kr.Backward(dO)
		ws.Reset()
	}
}

func benchPattern(s int) *sparse.Pattern {
	rng := rand.New(rand.NewSource(2))
	return sparse.FromGraph(graph.BarabasiAlbert(s, 8, rng))
}

func BenchmarkDenseStepUnpooled(b *testing.B) {
	benchStep(b, func() Kernel { return NewDense() }, false, 256, 32)
}

func BenchmarkDenseStepPooled(b *testing.B) {
	benchStep(b, func() Kernel { return NewDense() }, true, 256, 32)
}

func BenchmarkFlashStepUnpooled(b *testing.B) {
	benchStep(b, func() Kernel { return NewFlash(false) }, false, 256, 32)
}

func BenchmarkFlashStepPooled(b *testing.B) {
	benchStep(b, func() Kernel { return NewFlash(false) }, true, 256, 32)
}

func BenchmarkSparseStepUnpooled(b *testing.B) {
	p := benchPattern(1024)
	benchStep(b, func() Kernel { return NewSparse(p) }, false, 1024, 32)
}

func BenchmarkSparseStepPooled(b *testing.B) {
	p := benchPattern(1024)
	benchStep(b, func() Kernel { return NewSparse(p) }, true, 1024, 32)
}

func BenchmarkKernelizedStepUnpooled(b *testing.B) {
	benchStep(b, func() Kernel { return NewKernelized() }, false, 1024, 32)
}

func BenchmarkKernelizedStepPooled(b *testing.B) {
	benchStep(b, func() Kernel { return NewKernelized() }, true, 1024, 32)
}

// stepAllocs measures average heap allocations of one warm fwd+bwd step.
func stepAllocs(mk func() Kernel, pooled bool, s, d int) float64 {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	rng := rand.New(rand.NewSource(3))
	q, k, v := tensor.New(s, d), tensor.New(s, d), tensor.New(s, d)
	tensor.RandN(q, rng, 0.5)
	tensor.RandN(k, rng, 0.5)
	tensor.RandN(v, rng, 0.5)
	dO := tensor.New(s, d)
	tensor.RandN(dO, rng, 1)
	var ws *tensor.Workspace
	if pooled {
		ws = tensor.NewWorkspace()
	}
	kr := WithWorkspace(mk(), ws)
	kr.Forward(q, k, v)
	kr.Backward(dO)
	ws.Reset()
	return testing.AllocsPerRun(10, func() {
		kr.Forward(q, k, v)
		kr.Backward(dO)
		ws.Reset()
	})
}

// TestPooledAllocsAtLeastHalved enforces the engine's allocation win: the
// pooled path must allocate at most half as often per step as the unpooled
// path for the dense, flash and sparse kernels.
func TestPooledAllocsAtLeastHalved(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	p := benchPattern(256)
	cases := []struct {
		name string
		mk   func() Kernel
	}{
		{"dense", func() Kernel { return NewDense() }},
		{"flash", func() Kernel { return NewFlash(false) }},
		{"sparse", func() Kernel { return NewSparse(p) }},
	}
	for _, tc := range cases {
		un := stepAllocs(tc.mk, false, 256, 16)
		po := stepAllocs(tc.mk, true, 256, 16)
		t.Logf("%s: unpooled %.1f allocs/step, pooled %.1f", tc.name, un, po)
		if po > un/2 {
			t.Fatalf("%s: pooled path allocates too much (%.1f vs %.1f unpooled)", tc.name, po, un)
		}
	}
}

// The long-sequence flash kernel at the training shape (one head of S=1024,
// Dh=8), forward and backward timed apart: ci/bench-baseline.json gates
// Backward/Forward, which holds the single-pass backward — every p_ij and
// dp_ij computed once — against a return of a second regeneration pass.
func benchFlashS1024(b *testing.B, backward bool) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	const s, d = 1024, 8
	rng := rand.New(rand.NewSource(4))
	q, k, v, dO := tensor.New(s, d), tensor.New(s, d), tensor.New(s, d), tensor.New(s, d)
	for _, m := range []*tensor.Mat{q, k, v, dO} {
		tensor.RandN(m, rng, 0.5)
	}
	ws := tensor.NewWorkspace()
	f := NewFlash(false)
	f.SetWorkspace(ws)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if backward {
			b.StopTimer()
		}
		f.Forward(q, k, v)
		if backward {
			b.StartTimer()
			f.Backward(dO)
		}
		ws.Reset()
	}
}

func BenchmarkFlashForwardS1024(b *testing.B)  { benchFlashS1024(b, false) }
func BenchmarkFlashBackwardS1024(b *testing.B) { benchFlashS1024(b, true) }
