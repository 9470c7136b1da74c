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
// parallelism, so the kernels can be checked against them bit for bit. Like
// the kernels, they convert every product explicitly so that no compiler may
// fuse it into the following add.

func oracleMatMul(a, b *Mat) *Mat {
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for p := 0; p < a.Cols; p++ {
				if av := a.At(i, p); av != 0 {
					s += float32(av * b.At(p, j))
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
					s += float32(av * b.At(p, j))
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
		s += float32(a[i]*b[i]) + float32(a[i+1]*b[i+1]) + float32(a[i+2]*b[i+2]) + float32(a[i+3]*b[i+3])
	}
	for ; i < len(a); i++ {
		s += float32(a[i] * b[i])
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

// unaligned returns a length-n slice that starts 4 bytes into its
// allocation: whatever alignment the allocator gives, the micro-kernels'
// 32-byte loads and stores straddle it.
func unaligned(n int) []float32 { return make([]float32, n+1)[1:] }

func randVec(rng *rand.Rand, n int) []float32 {
	v := unaligned(n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// randMatUnaligned is randMat over unaligned storage.
func randMatUnaligned(rng *rand.Rand, r, c int) *Mat {
	m := FromSlice(r, c, unaligned(r*c))
	RandN(m, rng, 1)
	return m
}

// forEachISA runs f once per kernel path — the AVX2 micro-kernels where the
// CPU has them, then the portable loops — by flipping the package selector.
func forEachISA(t *testing.T, f func(t *testing.T)) {
	have := useAVX2
	defer func() { useAVX2 = have }()
	for _, isa := range []string{"avx2", "portable"} {
		t.Run(isa, func(t *testing.T) {
			if isa == "avx2" && !have {
				t.Skip("CPU lacks AVX2")
			}
			useAVX2 = isa == "avx2"
			if got := KernelISA(); got != isa {
				t.Fatalf("KernelISA() = %q", got)
			}
			f(t)
		})
	}
}

// zeroOrSpecial returns the values an A-side element is overwritten with:
// mostly ±0 (both must be skipped), sometimes a subnormal (must not be).
func zeroOrSpecial(rng *rand.Rand) float32 {
	switch rng.Intn(8) {
	case 0:
		return math.Float32frombits(1 << 31) // −0
	case 1:
		return math.Float32frombits(uint32(1 + rng.Intn(1<<22))) // subnormal
	}
	return 0
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
// kernels, run on both kernel paths: every shape class (0- and 1-sized dims,
// both row-pair and all four column-quad remainders of the Go tiles, every
// column count mod 8, mod 32 and mod 64 for the micro-kernels' blocks, odd
// and even reduction depths, every k mod 4 of Dot's grouping, panels
// crossed), operands 4 bytes off their allocation, ±0 in A — whole columns
// of them facing NaN/Inf rows of B, so a lost zero-skip shows as a NaN —
// subnormals and a NaN row in A that must not be skipped, and 1, 2 and 3
// workers.
func TestKernelsBitwiseMatchOracle(t *testing.T) { forEachISA(t, testKernelsBitwiseMatchOracle) }

func testKernelsBitwiseMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := [][3]int{ // n, k, m
		{0, 3, 4}, {3, 0, 4}, {3, 4, 0}, {1, 1, 1}, {2, 1, 4}, {1, 7, 5},
		{5, 129, 6}, {4, 8, 259}, {7, 2, 3}, {33, 65, 19}, {2, 3, 130},
		{2, 9, 64 + 32 + 8 + 5}, {3, 2, 256 + 64 + 8 + 1}, {0, 3, 40}, {3, 0, 300},
	}
	for n := 1; n <= 3; n++ { // every (rows mod 2, cols mod 4, k parity) class
		for m := 4; m <= 7; m++ {
			shapes = append(shapes, [3]int{n, 5, m}, [3]int{n + 2, 6, m + 4})
		}
	}
	for m := 8; m <= 75; m++ { // every column class of the 64/32/8-wide blocks
		shapes = append(shapes, [3]int{3, 5, m})
	}
	for _, k := range []int{0, 1, 3, 4, 5, 8} { // Dot's groups of four and its tail
		shapes = append(shapes, [3]int{2, k, 43})
	}
	for _, dh := range []int{1, 4, 8, 12, 16} { // head widths of the tile primitives
		shapes = append(shapes, [3]int{70, dh, 70})
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
			a, b := randMatUnaligned(rng, n, k), randMatUnaligned(rng, k, m)
			for r, bad := range poison(rng, b) {
				for i := 0; i < n; i++ {
					if bad && i%3 != 0 || rng.Intn(6) == 0 {
						a.Set(i, r, zeroOrSpecial(rng))
					}
				}
			}
			if n > 1 && k > 0 { // a NaN in A is a term like any other
				a.Set(1, rng.Intn(k), float32(math.NaN()))
			}
			got := FromSlice(n, m, unaligned(n*m))
			got.Fill(float32(math.NaN())) // must be overwritten, not accumulated into
			MatMul(got, a, b)
			if i, ok := sameBits(got.Data, oracleMatMul(a, b).Data); !ok {
				t.Fatalf("MatMul %v workers=%d: element %d differs", d, workers, i)
			}

			// TMatMul: C is k×m from A (n×k), B (n×m); A rows facing
			// poisoned B rows are zero in some columns.
			at, bt := randMatUnaligned(rng, n, k), randMatUnaligned(rng, n, m)
			for r, bad := range poison(rng, bt) {
				for i := 0; i < k; i++ {
					if bad && i%3 != 0 || rng.Intn(6) == 0 {
						at.Set(r, i, zeroOrSpecial(rng))
					}
				}
			}
			if n > 0 && k > 1 {
				at.Set(rng.Intn(n), 1, float32(math.NaN()))
			}
			got = FromSlice(k, m, unaligned(k*m))
			got.Fill(float32(math.NaN()))
			TMatMul(got, at, bt)
			if i, ok := sameBits(got.Data, oracleTMatMul(at, bt).Data); !ok {
				t.Fatalf("TMatMul %v workers=%d: element %d differs", d, workers, i)
			}

			// MatMulT and Dot: plain IEEE, no skip.
			ma, mb := randMatUnaligned(rng, n, k), randMatUnaligned(rng, m, k)
			for i := 0; i < len(ma.Data); i += 5 {
				ma.Data[i] = 0
			}
			poison(rng, mb)
			got = FromSlice(n, m, unaligned(n*m))
			MatMulT(got, ma, mb)
			if i, ok := sameBits(got.Data, oracleMatMulT(ma, mb).Data); !ok {
				t.Fatalf("MatMulT %v workers=%d: element %d differs", d, workers, i)
			}
			x := randVec(rng, k)
			for r := 0; r < m; r++ {
				if !sameBit(Dot(mb.Row(r), x), oracleDot(mb.Row(r), x)) {
					t.Fatalf("Dot len %d differs from the oracle", k)
				}
			}
		}
	}
}

// specialWeight returns a weight for the row-block oracles: mostly
// ordinary, often ±0 (skipped in the skip form only), sometimes NaN or ±Inf
// (never skipped).
func specialWeight(rng *rand.Rand) float32 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return math.Float32frombits(1 << 31) // −0
	case 2:
		return []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}[rng.Intn(3)]
	}
	return float32(rng.NormFloat64())
}

func sameBit(a, b float32) bool {
	_, ok := sameBits([]float32{a}, []float32{b})
	return ok
}
