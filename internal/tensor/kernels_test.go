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

func oracleWeightedRowSum(acc []float32, m *Mat, w []float32, lo, hi int) {
	for r := lo; r < hi; r++ {
		for c := range acc {
			acc[c] += float32(w[r-lo] * m.At(r, c))
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

			// MatMulT, MatVecRows, Dot: plain IEEE, no skip.
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
			if m > 0 {
				lo := rng.Intn(m)
				hi := lo + rng.Intn(m-lo+1)
				x := randVec(rng, k)
				dst, dstT := unaligned(hi-lo), unaligned(hi-lo)
				want := make([]float32, hi-lo)
				MatVecRows(dst, mb, x, lo, hi)
				NewDotRows(nil, mb).MatVec(dstT, x, lo, hi)
				for r := lo; r < hi; r++ {
					want[r-lo] = oracleDot(mb.Row(r), x)
					if d := Dot(mb.Row(r), x); math.Float32bits(d) != math.Float32bits(want[r-lo]) && d == d {
						t.Fatalf("Dot len %d differs from the oracle", k)
					}
				}
				if i, ok := sameBits(dst, want); !ok {
					t.Fatalf("MatVecRows %v rows [%d,%d): element %d differs", d, lo, hi, i)
				}
				if i, ok := sameBits(dstT, want); !ok {
					t.Fatalf("DotRows.MatVec %v rows [%d,%d): element %d differs", d, lo, hi, i)
				}
			}

			// WeightedRowSum over a sub-range, onto a non-zero accumulator.
			if n > 0 {
				wm := randMatUnaligned(rng, n, k)
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
						wantM.Data[r*k+c] += float32(w[r-lo] * x[c])
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

// specialWeight returns a weight for the gather oracles: mostly ordinary,
// often ±0 (skipped in the skip form only), sometimes NaN or ±Inf (never
// skipped).
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

// TestGatherBitwiseMatchOracle checks the indexed-row kernels against the
// plain Dot/Axpy sequences they replace, on both kernel paths: every width
// from 1 to 72 (each mod-8 remainder the Go loops own, and the 64-, 32- and
// 8-column blocks of the accumulate), empty, short, long, repeated and
// unsorted index lists (every count mod 8 of the dot kernel's groups), rows
// of NaN/Inf — reaching the result only through a weight that is not ±0 in
// the skip form — and ±0, NaN and ±Inf weights in both skip modes.
func TestGatherBitwiseMatchOracle(t *testing.T) { forEachISA(t, testGatherBitwiseMatchOracle) }

func testGatherBitwiseMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for d := 1; d <= 72; d++ {
		rows := 1 + rng.Intn(40)
		m := randMatUnaligned(rng, rows, d)
		bad := poison(rng, m)
		x := randVec(rng, d)
		for _, ne := range []int{0, 1, 2, 5, 7, 8, 9, 16, 17, 23, 70, 133} {
			idx := make([]int32, ne)
			for e := range idx {
				idx[e] = int32(rng.Intn(rows)) // repeats and any order
			}
			if ne > 3 {
				idx[3] = idx[1]
			}
			dst := unaligned(ne)
			for e := range dst {
				dst[e] = float32(math.NaN()) // must be overwritten
			}
			GatherDots(dst, x, m, idx)
			for e, r := range idx {
				if want := oracleDot(x, m.Row(int(r))); !sameBit(dst[e], want) {
					t.Fatalf("GatherDots d=%d entries=%d: entry %d = %v, want %v", d, ne, e, dst[e], want)
				}
			}
			w := unaligned(ne)
			for e, r := range idx {
				w[e] = specialWeight(rng)
				if bad[r] && rng.Intn(2) == 0 {
					w[e] = 0
				}
			}
			for _, skip := range []bool{false, true} {
				acc := randVec(rng, d)
				want := append([]float32(nil), acc...)
				for e, r := range idx {
					if skip && w[e] == 0 {
						continue
					}
					for c := range want {
						want[c] += float32(w[e] * m.At(int(r), c))
					}
				}
				GatherWeightedRowSum(acc, m, w, idx, skip)
				if i, ok := sameBits(acc, want); !ok {
					t.Fatalf("GatherWeightedRowSum d=%d entries=%d skip=%v: column %d = %v, want %v", d, ne, skip, i, acc[i], want[i])
				}
			}
		}
	}
}

func sameBit(a, b float32) bool {
	_, ok := sameBits([]float32{a}, []float32{b})
	return ok
}

// TestGatherSkipIsolatesNaN pins what the skip form is for: a NaN row that
// meets only ±0 weights leaves the accumulator finite, and without the skip
// it does not.
func TestGatherSkipIsolatesNaN(t *testing.T) {
	forEachISA(t, func(t *testing.T) {
		for _, d := range []int{5, 8, 40, 64} {
			m := New(3, d)
			m.Fill(1)
			for c := 0; c < d; c++ {
				m.Set(1, c, float32(math.NaN()))
			}
			idx := []int32{0, 1, 2}
			w := []float32{0.5, float32(math.Copysign(0, -1)), 0.25}
			acc := make([]float32, d)
			GatherWeightedRowSum(acc, m, w, idx, true)
			for c, v := range acc {
				if v != 0.75 {
					t.Fatalf("d=%d skip: acc[%d] = %v, want 0.75", d, c, v)
				}
			}
			clear(acc)
			GatherWeightedRowSum(acc, m, w, idx, false)
			if !math.IsNaN(float64(acc[0])) {
				t.Fatalf("d=%d keep: acc[0] = %v, want NaN", d, acc[0])
			}
		}
	})
}

// TestGatherRejectsBadIndex: an index outside [0, m.Rows) panics on either
// path, before any row is read.
func TestGatherRejectsBadIndex(t *testing.T) {
	forEachISA(t, func(t *testing.T) {
		m := New(4, 16)
		for _, r := range []int32{-1, 4, math.MaxInt32} {
			for name, f := range map[string]func(){
				"GatherDots":           func() { GatherDots(make([]float32, 2), make([]float32, 16), m, []int32{0, r}) },
				"GatherWeightedRowSum": func() { GatherWeightedRowSum(make([]float32, 16), m, []float32{1, 1}, []int32{0, r}, false) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s accepted row index %d of 4 rows", name, r)
						}
					}()
					f()
				}()
			}
		}
	})
}
