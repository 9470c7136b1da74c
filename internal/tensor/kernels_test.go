package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Plain-loop oracles for the shared kernels. They state the determinism
// contract directly — per output element one accumulator, reduction index
// ascending, exact-zero A entries skipped in MatMul/TMatMul, Dot's grouped
// reduction statement for the row-dot kernels — with no tiling, panels or
// parallelism, so the kernels can be checked against them bit for bit.

func oracleMatMul(a, b *Mat) *Mat {
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for p := 0; p < a.Cols; p++ {
				if av := a.At(i, p); av != 0 {
					s += av * b.At(p, j)
				}
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func oracleTMatMul(a, b *Mat) *Mat {
	c := New(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for p := 0; p < a.Rows; p++ {
				if av := a.At(p, i); av != 0 {
					s += av * b.At(p, j)
				}
			}
			c.Set(i, j, s)
		}
	}
	return c
}

// oracleDot is the reduction statement every row-dot kernel must reproduce:
// groups of four products summed left to right, then added to the single
// running accumulator; the tail one product at a time.
func oracleDot(a, b []float32) float32 {
	var s float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s += a[i]*b[i] + a[i+1]*b[i+1] + a[i+2]*b[i+2] + a[i+3]*b[i+3]
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

func oracleMatMulT(a, b *Mat) *Mat {
	c := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			c.Set(i, j, oracleDot(a.Row(i), b.Row(j)))
		}
	}
	return c
}

func oracleWeightedRowSum(acc []float32, m *Mat, w []float32, lo, hi int) {
	for r := lo; r < hi; r++ {
		for c := range acc {
			acc[c] += w[r-lo] * m.At(r, c)
		}
	}
}

// sameBits reports bit equality, with any two NaNs equal (which NaN payload
// an operation returns is the hardware's choice, not the kernels').
func sameBits(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) &&
			!(math.IsNaN(float64(a[i])) && math.IsNaN(float64(b[i]))) {
			return i, false
		}
	}
	return 0, true
}

func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// poison overwrites about a third of m's rows with NaN/±Inf and returns
// which ones.
func poison(rng *rand.Rand, m *Mat) []bool {
	bad := make([]bool, m.Rows)
	vals := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for r := range bad {
		if rng.Intn(3) == 0 {
			bad[r] = true
			for c := 0; c < m.Cols; c++ {
				m.Set(r, c, vals[rng.Intn(len(vals))])
			}
		}
	}
	return bad
}

// TestKernelsBitwiseMatchOracle is the differential test behind the shared
// kernels: every shape class (0- and 1-sized dims, both row-pair and all four
// column-quad remainders, odd and even reduction depths, panels crossed),
// exact zeros in A — whole columns of them facing NaN/Inf rows of B, so a
// lost zero-skip shows as a NaN — and 1, 2 and 3 workers.
func TestKernelsBitwiseMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := [][3]int{ // n, k, m
		{0, 3, 4}, {3, 0, 4}, {3, 4, 0}, {1, 1, 1}, {2, 1, 4}, {1, 7, 5},
		{5, 129, 6}, {4, 8, 259}, {7, 2, 3}, {33, 65, 19}, {2, 3, 130},
	}
	for n := 1; n <= 3; n++ { // every (rows mod 2, cols mod 4, k parity) class
		for m := 4; m <= 7; m++ {
			shapes = append(shapes, [3]int{n, 5, m}, [3]int{n + 2, 6, m + 4})
		}
	}
	for i := 0; i < 20; i++ {
		shapes = append(shapes, [3]int{rng.Intn(40), rng.Intn(70), rng.Intn(300)})
	}
	base := Workers()
	defer SetWorkers(base)
	for _, workers := range []int{1, 2, 3} {
		SetWorkers(workers)
		for _, d := range shapes {
			n, k, m := d[0], d[1], d[2]

			// MatMul: A's columns facing poisoned B rows are exactly zero in
			// some A rows and not in others.
			a, b := randMat(rng, n, k), randMat(rng, k, m)
			for r, bad := range poison(rng, b) {
				for i := 0; i < n; i++ {
					if bad && i%3 != 0 || rng.Intn(6) == 0 {
						a.Set(i, r, 0)
					}
				}
			}
			got := New(n, m)
			got.Fill(float32(math.NaN())) // must be overwritten, not accumulated into
			MatMul(got, a, b)
			if i, ok := sameBits(got.Data, oracleMatMul(a, b).Data); !ok {
				t.Fatalf("MatMul %v workers=%d: element %d differs", d, workers, i)
			}

			// TMatMul: C is k×m from A (n×k), B (n×m); A rows facing
			// poisoned B rows are zero in some columns.
			at, bt := randMat(rng, n, k), randMat(rng, n, m)
			for r, bad := range poison(rng, bt) {
				for i := 0; i < k; i++ {
					if bad && i%3 != 0 || rng.Intn(6) == 0 {
						at.Set(r, i, 0)
					}
				}
			}
			got = New(k, m)
			got.Fill(float32(math.NaN()))
			TMatMul(got, at, bt)
			if i, ok := sameBits(got.Data, oracleTMatMul(at, bt).Data); !ok {
				t.Fatalf("TMatMul %v workers=%d: element %d differs", d, workers, i)
			}

			// MatMulT, MatVecRows, Dot: plain IEEE, no skip.
			ma, mb := randMat(rng, n, k), randMat(rng, m, k)
			for i := 0; i < len(ma.Data); i += 5 {
				ma.Data[i] = 0
			}
			poison(rng, mb)
			got = New(n, m)
			MatMulT(got, ma, mb)
			if i, ok := sameBits(got.Data, oracleMatMulT(ma, mb).Data); !ok {
				t.Fatalf("MatMulT %v workers=%d: element %d differs", d, workers, i)
			}
			if m > 0 {
				lo := rng.Intn(m)
				hi := lo + rng.Intn(m-lo+1)
				x := randVec(rng, k)
				dst := make([]float32, hi-lo)
				want := make([]float32, hi-lo)
				MatVecRows(dst, mb, x, lo, hi)
				for r := lo; r < hi; r++ {
					want[r-lo] = oracleDot(mb.Row(r), x)
					if d := Dot(mb.Row(r), x); math.Float32bits(d) != math.Float32bits(want[r-lo]) && d == d {
						t.Fatalf("Dot len %d differs from the oracle", k)
					}
				}
				if i, ok := sameBits(dst, want); !ok {
					t.Fatalf("MatVecRows %v rows [%d,%d): element %d differs", d, lo, hi, i)
				}
			}

			// WeightedRowSum over a sub-range, onto a non-zero accumulator.
			if n > 0 {
				wm := randMat(rng, n, k)
				lo := rng.Intn(n)
				hi := lo + rng.Intn(n-lo+1)
				w := randVec(rng, hi-lo)
				acc := randVec(rng, k)
				want := append([]float32(nil), acc...)
				WeightedRowSum(acc, wm, w, lo, hi)
				oracleWeightedRowSum(want, wm, w, lo, hi)
				if i, ok := sameBits(acc, want); !ok {
					t.Fatalf("WeightedRowSum %v rows [%d,%d): element %d differs", d, lo, hi, i)
				}

				// AxpyRows, the scatter dual: rows outside [lo,hi) untouched.
				x := randVec(rng, k)
				wantM := wm.Clone()
				for r := lo; r < hi; r++ {
					for c := 0; c < k; c++ {
						wantM.Data[r*k+c] += w[r-lo] * x[c]
					}
				}
				AxpyRows(wm, w, x, lo, hi)
				if i, ok := sameBits(wm.Data, wantM.Data); !ok {
					t.Fatalf("AxpyRows %v rows [%d,%d): element %d differs", d, lo, hi, i)
				}
			}
		}
	}
}
