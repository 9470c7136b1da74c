package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// withBackend activates b for the duration of the test and restores the
// previous backend afterwards.
func withBackend(t *testing.T, b Backend) {
	t.Helper()
	prev := ActiveBackend()
	Use(b)
	t.Cleanup(func() { Use(prev) })
}

func TestBackendByName(t *testing.T) {
	cases := []struct {
		in   string
		want string
		err  bool
	}{
		{"", "reference", false},
		{"ref", "reference", false},
		{"reference", "reference", false},
		{"opt", "optimized", false},
		{"optimized", "optimized", false},
		{"gpu", "", true},
		{"REF", "", true}, // spellings are case-sensitive
	}
	for _, c := range cases {
		b, err := backendByName(c.in)
		if c.err {
			if err == nil {
				t.Fatalf("backendByName(%q): want error", c.in)
			}
			continue
		}
		if err != nil {
			t.Fatalf("backendByName(%q): %v", c.in, err)
		}
		if b.Name() != c.want {
			t.Fatalf("backendByName(%q) = %s, want %s", c.in, b.Name(), c.want)
		}
	}
}

func TestSetBackendRoundTrip(t *testing.T) {
	withBackend(t, Reference)
	prev, err := SetBackend("opt")
	if err != nil || prev != "reference" {
		t.Fatalf("SetBackend(opt) prev=%q err=%v", prev, err)
	}
	if ActiveBackend().Name() != "optimized" {
		t.Fatal("opt not active")
	}
	if _, err := SetBackend("bogus"); err == nil {
		t.Fatal("SetBackend(bogus) must error")
	}
	if ActiveBackend().Name() != "optimized" {
		t.Fatal("failed SetBackend must not change the active backend")
	}
}

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

// The fast-math ops use float32 polynomials: equality with the reference
// holds only within tolerance.
func TestOptKernelsWithinTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))

	sr := randMat(rng, 9, 33)
	so := sr.Clone()
	Reference.SoftmaxRows(sr)
	Optimized.SoftmaxRows(so)
	if !sr.Equal(so, 1e-5) {
		t.Fatal("SoftmaxRows beyond tolerance")
	}

	src := make([]float32, 257)
	for i := range src {
		src[i] = float32(rng.NormFloat64() * 3)
	}
	er := make([]float32, len(src))
	eo := make([]float32, len(src))
	Reference.ExpShift(er, src, -1.5)
	Optimized.ExpShift(eo, src, -1.5)
	for i := range er {
		rel := math.Abs(float64(er[i]-eo[i])) / math.Abs(float64(er[i]))
		if rel > 1e-5 {
			t.Fatalf("ExpShift rel err %v at %d", rel, i)
		}
	}
}

// The optimized backend's results must not depend on the worker count (its
// ops are pure per-element functions) nor on repetition. Bitwise, not
// tolerance. The shared matrix kernels' worker-count invariance is part of
// TestKernelsBitwiseMatchOracle.
func TestOptBackendWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randMat(rng, 37, 53)
	base := SetWorkers(1)
	defer SetWorkers(base)
	s1 := a.Clone()
	Optimized.SoftmaxRows(s1)
	for _, w := range []int{2, 3, 8, 1} {
		SetWorkers(w)
		s := a.Clone()
		Optimized.SoftmaxRows(s)
		if !bitwiseEqual(s1, s) {
			t.Fatalf("SoftmaxRows differs at %d workers", w)
		}
	}
}

// The report covers exactly the ops that differ between the backends.
func TestTuningReport(t *testing.T) {
	rep := TuningReport()
	want := []string{"ExpShift", "SoftmaxRows", "BiasGELU", "BiasGELUGrad"}
	if len(rep) != len(want) {
		t.Fatalf("want %d rows, got %d", len(want), len(rep))
	}
	for i, s := range rep {
		if s.Kernel != want[i] || s.RefNs <= 0 || s.OptNs <= 0 || s.Speedup <= 0 {
			t.Fatalf("row %d: %+v", i, s)
		}
	}
}

// Fast float32 exp: relative error vs math.Exp below 1e-6 across the full
// finite range, exact at the overflow/underflow clamps, NaN-transparent.
func TestExpf32Accuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	check := func(x float32) {
		want := math.Exp(float64(x))
		got := float64(expf32(x))
		if want < 1.3e-38 { // near/below normal range: expf32 flushes to zero
			if got > 2e-38 {
				t.Fatalf("expf32(%v) = %v, want flush toward 0", x, got)
			}
			return
		}
		if math.IsInf(want, 1) || want > math.MaxFloat32 {
			if !math.IsInf(got, 1) && got < math.MaxFloat32/2 {
				t.Fatalf("expf32(%v) = %v, want overflow", x, got)
			}
			return
		}
		rel := math.Abs(got-want) / want
		if rel > 1e-6 {
			t.Fatalf("expf32(%v): rel err %v", x, rel)
		}
	}
	for x := float32(-90); x <= 90; x += 0.37 {
		check(x)
	}
	for i := 0; i < 2000; i++ {
		check(float32(rng.NormFloat64() * 20))
	}
	if v := expf32(float32(math.NaN())); !math.IsNaN(float64(v)) {
		t.Fatal("expf32(NaN) must be NaN")
	}
	if v := expf32(0); v != 1 {
		t.Fatalf("expf32(0) = %v", v)
	}
}

func TestTanhf32Accuracy(t *testing.T) {
	for x := float32(-15); x <= 15; x += 0.013 {
		want := math.Tanh(float64(x))
		got := float64(tanhf32(x))
		if math.Abs(got-want) > 2e-6 {
			t.Fatalf("tanhf32(%v): want %v got %v", x, want, got)
		}
	}
	// Exact symmetry.
	for _, x := range []float32{0.1, 1.7, 5, 12} {
		if tanhf32(-x) != -tanhf32(x) {
			t.Fatalf("tanhf32 not odd at %v", x)
		}
	}
	if v := tanhf32(float32(math.NaN())); !math.IsNaN(float64(v)) {
		t.Fatal("tanhf32(NaN) must be NaN")
	}
}

// Reference BiasGELU must be bitwise identical to the unfused
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
	Reference.BiasGELU(y, uf, bias)
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
	Reference.BiasGELUGrad(dz, dbias, z, dy)
	if !bitwiseEqual(dz, dzWant) {
		t.Fatal("fused dz differs")
	}
	for j := range dbias {
		if math.Float32bits(dbias[j]) != math.Float32bits(dbWant[j]) {
			t.Fatalf("dbias[%d]: %v != %v", j, dbias[j], dbWant[j])
		}
	}
}

// Optimized BiasGELU stays within the fast-math tolerance of reference.
func TestOptBiasGELUWithinTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	u := randMat(rng, 11, 19)
	bias := make([]float32, 19)
	for j := range bias {
		bias[j] = float32(rng.NormFloat64())
	}
	ur, uo := u.Clone(), u.Clone()
	yr, yo := New(11, 19), New(11, 19)
	Reference.BiasGELU(yr, ur, bias)
	Optimized.BiasGELU(yo, uo, bias)
	if !bitwiseEqual(ur, uo) {
		t.Fatal("z must be exact (plain float32 add)")
	}
	if !yr.Equal(yo, 1e-5) {
		t.Fatal("opt GELU beyond tolerance")
	}

	dy := randMat(rng, 11, 19)
	dzr, dzo := New(11, 19), New(11, 19)
	dbr := make([]float32, 19)
	dbo := make([]float32, 19)
	Reference.BiasGELUGrad(dzr, dbr, ur, dy)
	Optimized.BiasGELUGrad(dzo, dbo, uo, dy)
	if !dzr.Equal(dzo, 1e-5) {
		t.Fatal("opt GELU grad beyond tolerance")
	}
	for j := range dbr {
		if math.Abs(float64(dbr[j]-dbo[j])) > 1e-4 {
			t.Fatalf("dbias[%d] beyond tolerance: %v vs %v", j, dbr[j], dbo[j])
		}
	}
}

// Package-level dispatchers must route through the active backend.
func TestDispatchFollowsActiveBackend(t *testing.T) {
	src := []float32{-3, -0.5, 0.25, 2}
	for _, bk := range []Backend{Reference, Optimized} {
		withBackend(t, bk)
		got := make([]float32, len(src))
		want := make([]float32, len(src))
		ExpShift(got, src, -1)
		bk.ExpShift(want, src, -1)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: dispatch did not use the active backend", bk.Name())
			}
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
