package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The av==0 fast-path contract. Skipping the B row when an A element is zero
// is NOT plain IEEE semantics — 0·NaN = NaN would otherwise propagate — so
// the intended behaviour is pinned here: NaN/Inf in a B row reached only
// through zero A entries must not leak into C, while a non-zero A entry
// meeting NaN/Inf must propagate it.
func TestMatMulZeroSkipSemantics(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	// A row 0 is zero at columns 1,2 → B rows 1,2 (all NaN/Inf) are skipped
	// for C row 0. A row 1 hits B row 1 with a non-zero coefficient → C row
	// 1 is NaN.
	a := FromSlice(2, 3, []float32{
		2, 0, 0,
		1, 1, 0,
	})
	b := FromSlice(3, 2, []float32{
		1, 2,
		nan, inf,
		inf, nan,
	})
	c := New(2, 2)
	MatMul(c, a, b)
	if c.At(0, 0) != 2 || c.At(0, 1) != 4 {
		t.Fatalf("zero-skip row polluted: %v", c.Row(0))
	}
	if !math.IsNaN(float64(c.At(1, 0))) || !math.IsInf(float64(c.At(1, 1)), 1) {
		t.Fatalf("non-zero path must propagate NaN/Inf: %v", c.Row(1))
	}

	// TMatMul skips symmetrically on zero Aᵀ elements: column 0 of A is zero
	// in rows 1,2, so B's NaN rows never reach C row 0.
	at := FromSlice(3, 2, []float32{
		3, 1,
		0, 1,
		0, 0,
	})
	ct := New(2, 2)
	TMatMul(ct, at, b)
	if ct.At(0, 0) != 3 || ct.At(0, 1) != 6 {
		t.Fatalf("TMatMul zero-skip row polluted: %v", ct.Row(0))
	}
	if !math.IsNaN(float64(ct.At(1, 0))) {
		t.Fatalf("TMatMul non-zero path must propagate NaN: %v", ct.Row(1))
	}

	// MatMulT and Dot follow plain IEEE semantics: zero times NaN is NaN, no
	// skip.
	zrow := FromSlice(1, 2, []float32{0, 0})
	nrow := FromSlice(1, 2, []float32{nan, 1})
	cm := New(1, 1)
	MatMulT(cm, zrow, nrow)
	if !math.IsNaN(float64(cm.At(0, 0))) {
		t.Fatalf("MatMulT must not zero-skip (got %v)", cm.At(0, 0))
	}
	if d := Dot(zrow.Data, nrow.Data); !math.IsNaN(float64(d)) {
		t.Fatalf("Dot must not zero-skip (got %v)", d)
	}
}

func bitwiseEqual(a, b *Mat) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// SoftmaxRows must not depend on the worker count (a worker owns whole rows)
// nor on repetition. Bitwise, not tolerance. The matrix kernels'
// worker-count invariance is part of TestKernelsBitwiseMatchOracle.
func TestSoftmaxRowsWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randMat(rng, 37, 53)
	base := SetWorkers(1)
	defer SetWorkers(base)
	s1 := a.Clone()
	SoftmaxRows(s1)
	for _, w := range []int{2, 3, 8, 1} {
		SetWorkers(w)
		s := a.Clone()
		SoftmaxRows(s)
		if !bitwiseEqual(s1, s) {
			t.Fatalf("SoftmaxRows differs at %d workers", w)
		}
	}
}

// BiasGELU must be bitwise identical to the unfused
// AddRowVec + per-element float64 GELU sequence it replaced.
func TestRefBiasGELUMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	u := randMat(rng, 13, 21)
	bias := make([]float32, 21)
	for j := range bias {
		bias[j] = float32(rng.NormFloat64())
	}

	// Unfused: z = u + bias, y = GELU(z) element-wise.
	z := u.Clone()
	AddRowVec(z, bias)
	yWant := New(13, 21)
	for i, v := range z.Data {
		yWant.Data[i] = float32(GELU(float64(v)))
	}

	uf := u.Clone()
	y := New(13, 21)
	BiasGELU(y, uf, bias)
	if !bitwiseEqual(uf, z) {
		t.Fatal("fused z differs from AddRowVec")
	}
	if !bitwiseEqual(y, yWant) {
		t.Fatal("fused GELU differs from unfused")
	}

	// Backward: dz = dy ⊙ GELU'(z), dbias += colsum(dz).
	dy := randMat(rng, 13, 21)
	dzWant := New(13, 21)
	for i := range z.Data {
		dzWant.Data[i] = dy.Data[i] * float32(GELUGrad(float64(z.Data[i])))
	}
	dbWant := make([]float32, 21)
	ColSum(dbWant, dzWant)

	dz := New(13, 21)
	dbias := make([]float32, 21)
	BiasGELUGrad(dz, dbias, z, dy)
	if !bitwiseEqual(dz, dzWant) {
		t.Fatal("fused dz differs")
	}
	for j := range dbias {
		if math.Float32bits(dbias[j]) != math.Float32bits(dbWant[j]) {
			t.Fatalf("dbias[%d]: %v != %v", j, dbias[j], dbWant[j])
		}
	}
}

func TestExpShiftLengthPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ExpShift(make([]float32, 3), make([]float32, 4), 0)
}
