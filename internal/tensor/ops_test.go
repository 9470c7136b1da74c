package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMatMul is the reference O(n³) implementation used to validate the
// parallel blocked kernels.
func naiveMatMul(a, b *Mat) *Mat {
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func randMat(rng *rand.Rand, r, c int) *Mat {
	m := New(r, c)
	RandN(m, rng, 1)
	return m
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {17, 9, 13}, {32, 64, 16}} {
		a := randMat(rng, dims[0], dims[1])
		b := randMat(rng, dims[1], dims[2])
		c := New(dims[0], dims[2])
		MatMul(c, a, b)
		want := naiveMatMul(a, b)
		if !c.Equal(want, 1e-4) {
			t.Fatalf("MatMul mismatch at dims %v", dims)
		}
	}
}

func TestMatMulTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randMat(rng, 11, 7)
	b := randMat(rng, 13, 7)
	c := New(11, 13)
	MatMulT(c, a, b)
	want := naiveMatMul(a, b.T())
	if !c.Equal(want, 1e-4) {
		t.Fatal("MatMulT mismatch")
	}
}

func TestTMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randMat(rng, 7, 11)
	b := randMat(rng, 7, 13)
	c := New(11, 13)
	TMatMul(c, a, b)
	want := naiveMatMul(a.T(), b)
	if !c.Equal(want, 1e-4) {
		t.Fatal("TMatMul mismatch")
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(2, 2))
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestMatMulTransposeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, 5, 6)
		b := randMat(rng, 6, 4)
		ab := New(5, 4)
		MatMul(ab, a, b)
		btat := New(4, 5)
		MatMul(btat, b.T(), a.T())
		return ab.T().Equal(btat, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: A·(B+C) = A·B + A·C.
func TestMatMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, 4, 5)
		b := randMat(rng, 5, 3)
		c := randMat(rng, 5, 3)
		bc := New(5, 3)
		Add(bc, b, c)
		left := New(4, 3)
		MatMul(left, a, bc)
		ab, ac := New(4, 3), New(4, 3)
		MatMul(ab, a, b)
		MatMul(ac, a, c)
		right := New(4, 3)
		Add(right, ab, ac)
		return left.Equal(right, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxRowsNormalised(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randMat(rng, 10, 20)
	SoftmaxRows(m)
	for i := 0; i < m.Rows; i++ {
		var s float64
		for _, v := range m.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

// Property: softmax is invariant to adding a constant to the row.
func TestSoftmaxShiftInvariant(t *testing.T) {
	f := func(seed int64, shift float32) bool {
		if shift != shift || shift > 50 || shift < -50 { // NaN / extreme guard
			shift = 1
		}
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, 1, 16)
		b := a.Clone()
		for i := range b.Data {
			b.Data[i] += shift
		}
		SoftmaxRows(a)
		SoftmaxRows(b)
		return a.Equal(b, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxBackwardMatchesFiniteDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 8
	x := make([]float32, n)
	dy := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
		dy[i] = float32(rng.NormFloat64())
	}
	y := append([]float32(nil), x...)
	SoftmaxInPlace(y)
	dx := make([]float32, n)
	SoftmaxBackwardRow(dx, y, dy)
	// finite differences on loss = Σ dy_j * softmax(x)_j
	eps := float32(1e-3)
	for i := 0; i < n; i++ {
		xp := append([]float32(nil), x...)
		xm := append([]float32(nil), x...)
		xp[i] += eps
		xm[i] -= eps
		SoftmaxInPlace(xp)
		SoftmaxInPlace(xm)
		var lp, lm float32
		for j := 0; j < n; j++ {
			lp += dy[j] * xp[j]
			lm += dy[j] * xm[j]
		}
		grad := (lp - lm) / (2 * eps)
		if math.Abs(float64(grad-dx[i])) > 1e-2 {
			t.Fatalf("softmax grad mismatch at %d: fd=%v got=%v", i, grad, dx[i])
		}
	}
}

func TestAddRowVecAndColSum(t *testing.T) {
	m := New(3, 2)
	AddRowVec(m, []float32{1, 2})
	want := FromSlice(3, 2, []float32{1, 2, 1, 2, 1, 2})
	if !m.Equal(want, 0) {
		t.Fatal("AddRowVec wrong")
	}
	out := make([]float32, 2)
	ColSum(out, m)
	if out[0] != 3 || out[1] != 6 {
		t.Fatalf("ColSum=%v", out)
	}
}

func TestScale(t *testing.T) {
	c := FromSlice(1, 3, []float32{3, -1, 0.5})
	Scale(c, 2)
	if c.Data[0] != 6 || c.Data[1] != -2 || c.Data[2] != 1 {
		t.Fatalf("Scale wrong: %v", c.Data)
	}
}

func TestDotUnrollTail(t *testing.T) {
	for n := 0; n < 9; n++ {
		a := make([]float32, n)
		b := make([]float32, n)
		var want float32
		for i := range a {
			a[i] = float32(i + 1)
			b[i] = float32(2 * (i + 1))
			want += a[i] * b[i]
		}
		if got := Dot(a, b); got != want {
			t.Fatalf("Dot n=%d got=%v want=%v", n, got, want)
		}
	}
}

func TestParallelForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 1000} {
		seen := make([]int32, n)
		ParallelFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestSetWorkers(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	if Workers() != 1 {
		t.Fatal("SetWorkers(1) failed")
	}
	got := 0
	ParallelFor(10, func(lo, hi int) { got += hi - lo })
	if got != 10 {
		t.Fatal("single worker did not cover range")
	}
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatal("reset failed")
	}
}

func TestApply(t *testing.T) {
	m := FromSlice(1, 3, []float32{1, -2, 3})
	Apply(m, func(v float32) float32 {
		if v < 0 {
			return 0
		}
		return v
	})
	if m.Data[1] != 0 || m.Data[2] != 3 {
		t.Fatal("Apply wrong")
	}
}

func TestRoundBF16(t *testing.T) {
	// 1.0 is exactly representable.
	if RoundBF16(1.0) != 1.0 {
		t.Fatal("1.0 must survive")
	}
	// bf16 has ~3 decimal digits: 1.001 rounds to nearby value within 0.004.
	v := RoundBF16(1.001)
	if math.Abs(float64(v)-1.001) > 0.004 {
		t.Fatalf("bf16 rounding too coarse: %v", v)
	}
	if v == 1.001 {
		t.Fatal("expected precision loss for 1.001")
	}
	// NaN and Inf preserved.
	if !math.IsNaN(float64(RoundBF16(float32(math.NaN())))) {
		t.Fatal("NaN must pass through")
	}
	if !math.IsInf(float64(RoundBF16(float32(math.Inf(1)))), 1) {
		t.Fatal("Inf must pass through")
	}
}

// Property: RoundBF16 is idempotent.
func TestRoundBF16Idempotent(t *testing.T) {
	f := func(v float32) bool {
		r := RoundBF16(v)
		if r != r { // NaN
			return true
		}
		return RoundBF16(r) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: relative error of bf16 rounding is bounded by 2^-8 for normals.
func TestRoundBF16RelativeError(t *testing.T) {
	f := func(v float32) bool {
		if v != v || math.IsInf(float64(v), 0) || math.Abs(float64(v)) < 1e-30 {
			return true
		}
		r := RoundBF16(v)
		rel := math.Abs(float64(r-v)) / math.Abs(float64(v))
		return rel <= 1.0/256.0+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXavierInitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := New(10, 10)
	XavierInit(m, rng)
	limit := float32(math.Sqrt(6.0 / 20.0))
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("xavier out of bounds: %v", v)
		}
	}
}
