package tensor

import (
	"fmt"
	"os"
	"sort"
	"sync/atomic"
)

// Backend is the pluggable part of the compute substrate: the transcendental
// row ops whose speed/accuracy trade-off is a choice — the softmax/exp the
// attention kernels stream through and the fused bias+GELU pair that lets
// nn.Linear skip a full matrix pass. Package-level SoftmaxRows, ExpShift,
// BiasGELU and BiasGELUGrad dispatch through the active backend, so every
// layer above — nn, attention, model, serve — switches without code changes.
//
// The linear algebra (MatMul/MatMulT/TMatMul, Dot/Axpy, MatVecRows,
// WeightedRowSum, AxpyRows) is NOT part of the interface: it has one order-preserving
// implementation (kernels.go) whose output never depended on the backend, so
// both backends share it.
//
// Two implementations exist, the same design shape as model.Plan:
//
//   - reference — float64 math.Exp / tanh-GELU rounded to float32. Training
//     defaults to it and its numerics are bitwise-pinned.
//   - optimized — the float32 polynomials of fastmath.go. Pure functions of
//     their inputs, so results are independent of worker count and exactly
//     reproducible (self-deterministic), and within a small stated tolerance
//     of the reference — see DESIGN.md "Compute backends and quantized
//     serving".
//
// The interface is sealed (unexported method): backends live in this
// package, next to the parallel-for scheduler their ops are written against.
type Backend interface {
	// Name identifies the backend ("reference", "optimized").
	Name() string

	// SoftmaxRows applies a numerically stable softmax to each row in place.
	SoftmaxRows(m *Mat)
	// ExpShift computes dst[i] = exp(src[i]+shift) over equal-length slices
	// (the streaming-softmax primitive: shift carries the running max).
	ExpShift(dst, src []float32, shift float32)

	// BiasGELU computes, in one pass, z = u + bias (row-broadcast, written
	// back into u) and y = GELU(z). y must not alias u.
	BiasGELU(y, u *Mat, bias []float32)
	// BiasGELUGrad computes dz = dy ⊙ GELU'(z) and accumulates column sums
	// of dz into dbias (+=). dz must not alias dy or z.
	BiasGELUGrad(dz *Mat, dbias []float32, z, dy *Mat)

	// sealed marks the interface implementable only inside this package.
	sealed()
}

// The two built-in backends. Reference is the process default; Optimized is
// selected with SetBackend("opt") / TORCHGT_BACKEND=opt.
var (
	Reference Backend = refBackend{}
	Optimized Backend = optBackend{}
)

type backendBox struct{ b Backend }

var activeBackend atomic.Pointer[backendBox]

func init() {
	name := os.Getenv("TORCHGT_BACKEND")
	b, err := backendByName(name)
	if err != nil {
		panic(fmt.Sprintf("tensor: TORCHGT_BACKEND=%q: %v", name, err))
	}
	Use(b)
}

// backendByName resolves a CLI/env spelling to a backend. The empty string
// is the reference default.
func backendByName(name string) (Backend, error) {
	switch name {
	case "", "ref", "reference":
		return Reference, nil
	case "opt", "optimized":
		return Optimized, nil
	}
	return nil, fmt.Errorf("unknown backend %q (have: %s)", name, backendNamesList())
}

func backendNamesList() string {
	names := BackendNames()
	sort.Strings(names)
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}

// BackendNames lists the selectable backend spellings (canonical short
// forms, as accepted by SetBackend and the -backend CLI flags).
func BackendNames() []string { return []string{"ref", "opt"} }

// Use activates b for all subsequent kernel dispatch. Safe for concurrent
// use with running kernels: a kernel reads the active backend once per call.
func Use(b Backend) { activeBackend.Store(&backendBox{b}) }

// SetBackend activates the backend named by a CLI/env spelling ("ref",
// "reference", "opt", "optimized"; "" keeps the reference default). It
// returns the previously active backend's name so callers can restore it.
func SetBackend(name string) (prev string, err error) {
	b, err := backendByName(name)
	if err != nil {
		return ActiveBackend().Name(), err
	}
	prev = ActiveBackend().Name()
	Use(b)
	return prev, nil
}

// ActiveBackend reports the backend the package-level row ops currently
// dispatch through.
func ActiveBackend() Backend { return activeBackend.Load().b }

// Dispatching entry points. Shape validation lives here, once, so every
// backend op can assume consistent operands.

// SoftmaxRows applies a numerically stable softmax to each row of m in place.
func SoftmaxRows(m *Mat) { ActiveBackend().SoftmaxRows(m) }

// ExpShift computes dst[i] = exp(src[i]+shift). dst and src must have equal
// length (dst may alias src). It is the vectorised exponential behind the
// flash kernel's streaming softmax.
func ExpShift(dst, src []float32, shift float32) {
	if len(dst) != len(src) {
		panic("tensor: ExpShift length mismatch")
	}
	ActiveBackend().ExpShift(dst, src, shift)
}

// BiasGELU fuses the bias add and GELU activation of a Linear layer into a
// single pass: u (holding X·W) becomes z = u + bias in place, and y receives
// GELU(z). One matrix read/write pass instead of AddRowVec + a separate
// activation sweep. y must be u's shape and must not alias it; len(bias)
// must equal u.Cols.
func BiasGELU(y, u *Mat, bias []float32) {
	if !y.SameShape(u) || len(bias) != u.Cols {
		panic(fmt.Sprintf("tensor: BiasGELU shapes y=%dx%d u=%dx%d bias=%d", y.Rows, y.Cols, u.Rows, u.Cols, len(bias)))
	}
	ActiveBackend().BiasGELU(y, u, bias)
}

// BiasGELUGrad is the backward of BiasGELU: dz = dy ⊙ GELU'(z), and the
// column sums of dz are accumulated (+=) into dbias — the bias gradient —
// in the same pass structure the unfused ColSum used (fixed row-ascending
// order, so results are worker-count independent).
func BiasGELUGrad(dz *Mat, dbias []float32, z, dy *Mat) {
	if !dz.SameShape(z) || !dz.SameShape(dy) || len(dbias) != z.Cols {
		panic(fmt.Sprintf("tensor: BiasGELUGrad shapes dz=%dx%d z=%dx%d dy=%dx%d dbias=%d",
			dz.Rows, dz.Cols, z.Rows, z.Cols, dy.Rows, dy.Cols, len(dbias)))
	}
	ActiveBackend().BiasGELUGrad(dz, dbias, z, dy)
}
