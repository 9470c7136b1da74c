package tensor

import (
	"math/rand"
	"time"
)

// KernelSpeedup records one op timed on both backends. Speedup is the plain
// ratio RefNs / OptNs, whichever way it falls: above 1 the optimized backend
// was faster, below 1 the reference was — which is the usual case where the
// reference row ops run lane-wise (KernelISA() == "avx2" on a CPU with FMA)
// and the optimized backend's float32 polynomials are still scalar.
type KernelSpeedup struct {
	Kernel  string
	RefNs   float64
	OptNs   float64
	Speedup float64 // RefNs / OptNs
}

// reportRows×reportCols is the synthetic operand the report times on: large
// enough that the per-element transcendental dominates the loop overhead.
const (
	reportRows, reportCols = 48, 512
	reportReps             = 3
)

// TuningReport measures, on a fixed synthetic operand, every op that still
// differs between the backends (the linear algebra is shared, so it has no
// row). It takes some tens of milliseconds and keeps no state; the worker count is
// whatever the process set, identical for both sides.
func TuningReport() []KernelSpeedup {
	rng := rand.New(rand.NewSource(42))
	x := New(reportRows, reportCols)
	RandN(x, rng, 1)
	y, z := x.Clone(), x.Clone()
	bias := make([]float32, reportCols)
	dbias := make([]float32, reportCols)

	measure := func(kernel string, fn func(Backend)) KernelSpeedup {
		fn(Reference) // warm up both sides
		fn(Optimized)
		s := KernelSpeedup{
			Kernel: kernel,
			RefNs:  bestOf(reportReps, func() { fn(Reference) }),
			OptNs:  bestOf(reportReps, func() { fn(Optimized) }),
		}
		if s.OptNs > 0 {
			s.Speedup = s.RefNs / s.OptNs
		}
		return s
	}
	return []KernelSpeedup{
		measure("ExpShift", func(b Backend) { b.ExpShift(y.Data, x.Data, 0) }),
		measure("SoftmaxRows", func(b Backend) { y.CopyFrom(x); b.SoftmaxRows(y) }),
		measure("BiasGELU", func(b Backend) { z.CopyFrom(x); b.BiasGELU(y, z, bias) }),
		measure("BiasGELUGrad", func(b Backend) { b.BiasGELUGrad(y, dbias, x, z) }),
	}
}

func bestOf(reps int, fn func()) float64 {
	best := 0.0
	for r := 0; r < reps; r++ {
		start := time.Now()
		fn()
		ns := float64(time.Since(start).Nanoseconds())
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best
}
