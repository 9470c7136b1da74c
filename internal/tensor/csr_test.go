package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Per-row oracles for the row-block kernels of csr.go: what the sparse
// attention kernels computed one row at a time before a call took a range
// of rows — oracleDot per entry, an Axpy per entry ascending, expRow's
// scalar arithmetic with a cut per element — checked bit for bit on both
// kernel paths.

// csrLens are the row lengths the tests build CSRs from: empty rows, a
// lone entry, one short of, at and past the dot kernel's groups of four and
// eight, and a long row.
var csrLens = []int{0, 1, 7, 8, 9, 17, 0, 3, 2, 5}

// randCSR draws a CSR of rows rows with lengths cycling through csrLens
// over columns [0, cols): repeats and any order within a row.
func randCSR(rng *rand.Rand, rows, cols int) (ptr, col []int32) {
	ptr = make([]int32, rows+1)
	for r := range rows {
		n := csrLens[(r+rng.Intn(2))%len(csrLens)]
		for range n {
			col = append(col, int32(rng.Intn(cols)))
		}
		if n > 2 {
			col[len(col)-1] = col[len(col)-2] // a repeat
		}
		ptr[r+1] = int32(len(col))
	}
	return ptr, col
}

// csrMat is a rows×d operand with flashInput's specials: ±0, subnormals,
// NaN, ±Inf and overflowing magnitudes.
func csrMat(rng *rand.Rand, rows, d int) *Mat {
	m := FromSlice(rows, d, unaligned(rows*d))
	for i := range m.Data {
		m.Data[i] = flashInput(rng)
	}
	return m
}

// TestCSRBitwiseMatchOracle holds CSRDots, CSRAccum and CSRExp to their
// per-row sequences over every row range of a CSR, at head widths that take
// the micro-kernels only (8, 64), the Go loops only (6) and both (20).
func TestCSRBitwiseMatchOracle(t *testing.T) { forEachISA(t, testCSRBitwiseMatchOracle) }

func testCSRBitwiseMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const rows, keys = 23, 30
	ptr, col := randCSR(rng, rows, keys)
	c := NewCSR(ptr, col)
	for _, d := range []int{1, 6, 8, 20, 64} {
		x, m := csrMat(rng, rows, d), csrMat(rng, keys, d)
		w := unaligned(len(col))
		for e := range w {
			w[e] = specialWeight(rng)
		}
		shift := make([]float32, rows)
		for r := range shift {
			shift[r] = mathInput(rng)
		}
		for lo := 0; lo <= rows; lo += 3 {
			for _, hi := range []int{lo, min(lo+1, rows), min(lo+5, rows), rows} {
				e0, e1 := ptr[lo], ptr[hi]
				dst := unaligned(len(col))
				for e := range dst {
					dst[e] = float32(math.NaN()) // must be overwritten in range
				}
				CSRDots(dst, x, c, lo, hi, m)
				for r := lo; r < hi; r++ {
					for e := ptr[r]; e < ptr[r+1]; e++ {
						if want := oracleDot(x.Row(r), m.Row(int(col[e]))); !sameBit(dst[e], want) {
							t.Fatalf("CSRDots d=%d rows [%d,%d): entry %d = %v, want %v", d, lo, hi, e, dst[e], want)
						}
					}
				}

				acc := csrMat(rng, rows, d)
				want := append([]float32(nil), acc.Data...)
				for r := lo; r < hi; r++ {
					for e := ptr[r]; e < ptr[r+1]; e++ {
						for j := range d {
							want[r*d+j] += float32(w[e] * m.At(int(col[e]), j))
						}
					}
				}
				CSRAccum(acc, c, lo, hi, w, m)
				if i, ok := sameBits(acc.Data, want); !ok {
					t.Fatalf("CSRAccum d=%d rows [%d,%d): element %d = %v, want %v", d, lo, hi, i, acc.Data[i], want[i])
				}

				src := unaligned(len(col))
				for e := range src {
					src[e] = mathInput(rng)
				}
				got := append([]float32(nil), src...)
				CSRExp(got, got, c, lo, hi, shift, -80)
				for e := range src {
					want := src[e]
					if int32(e) >= e0 && int32(e) < e1 {
						want = oracleExp(src[e]+shift[c.row[e]], -80)
					}
					if !sameBit(got[e], want) {
						t.Fatalf("CSRExp rows [%d,%d): entry %d of %v shifted by %v = %v, want %v", lo, hi, e, src[e], shift[c.row[e]], got[e], want)
					}
				}
			}
		}
	}
}

// oracleExp is expRow's scalar arithmetic on one shifted element.
func oracleExp(x, cut float32) float32 {
	if x <= cut {
		return 0
	}
	return float32(math.Exp(float64(x)))
}

// TestTileBitwiseMatchOracle holds TileDots and TileAccum to the per-row
// Dot/Axpy sequences of a dense tile, key counts around the dot kernel's
// groups of four, both skip forms, ld wider than the tile.
func TestTileBitwiseMatchOracle(t *testing.T) { forEachISA(t, testTileBitwiseMatchOracle) }

func testTileBitwiseMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const rows = 40
	for _, d := range []int{1, 6, 8, 20, 64} {
		x, m := csrMat(rng, rows, d), csrMat(rng, rows, d)
		for _, nc := range []int{0, 1, 3, 4, 7, 8, 9, 16, 17, 70} {
			for _, nr := range []int{0, 1, 5, 16} {
				r0, c0 := rng.Intn(rows-nr+1), rng.Intn(max(rows-nc, 0)+1)
				if nc > rows {
					continue
				}
				ld := nc + rng.Intn(3)
				dst := unaligned(max(nr*ld, 1))
				for i := range dst {
					dst[i] = math.Float32frombits(canary)
				}
				TileDots(dst, ld, x, r0, nr, m, c0, nc)
				for i, v := range dst {
					r, c := i/max(ld, 1), i%max(ld, 1)
					want := math.Float32frombits(canary) // left as it was
					if r < nr && c < nc {
						want = oracleDot(x.Row(r0+r), m.Row(c0+c))
					}
					if !sameBit(v, want) {
						t.Fatalf("TileDots d=%d %dx%d ld=%d: element %d = %v, want %v", d, nr, nc, ld, i, v, want)
					}
				}
				w := unaligned((nr + nc + 1) * (ld + nr + 1))
				for i := range w {
					w[i] = specialWeight(rng)
				}
				for _, tr := range []bool{false, true} {
					ldr, ldc := ld, 1
					if tr {
						ldr, ldc = 1, nr+1 // the transposed read, weights of a row a column apart
					}
					for _, skip := range []bool{false, true} {
						acc := csrMat(rng, rows, d)
						want := append([]float32(nil), acc.Data...)
						for r := range nr {
							for c := range nc {
								if wc := w[r*ldr+c*ldc]; !skip || wc != 0 {
									for j := range d {
										want[(r0+r)*d+j] += float32(wc * m.At(c0+c, j))
									}
								}
							}
						}
						TileAccum(acc, r0, nr, w, ldr, ldc, m, c0, nc, skip)
						if i, ok := sameBits(acc.Data, want); !ok {
							t.Fatalf("TileAccum d=%d %dx%d transposed=%v skip=%v: element %d = %v, want %v", d, nr, nc, tr, skip, i, acc.Data[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestTileSkipIsolatesNaN pins what TileAccum's skip form is for: a NaN
// key row that meets only ±0 weights leaves the accumulator finite, and
// without the skip it does not — at widths the Go loops take alone (5), the
// micro-kernel takes alone (8, 64) and both take (40).
func TestTileSkipIsolatesNaN(t *testing.T) {
	forEachISA(t, func(t *testing.T) {
		for _, d := range []int{5, 8, 40, 64} {
			m := New(3, d)
			m.Fill(1)
			for c := 0; c < d; c++ {
				m.Set(1, c, float32(math.NaN()))
			}
			w := []float32{0.5, float32(math.Copysign(0, -1)), 0.25}
			acc := New(1, d)
			TileAccum(acc, 0, 1, w, 3, 1, m, 0, 3, true)
			for c, v := range acc.Data {
				if v != 0.75 {
					t.Fatalf("d=%d skip: acc[%d] = %v, want 0.75", d, c, v)
				}
			}
			acc.Zero()
			TileAccum(acc, 0, 1, w, 3, 1, m, 0, 3, false)
			if !math.IsNaN(float64(acc.Data[0])) {
				t.Fatalf("d=%d keep: acc[0] = %v, want NaN", d, acc.Data[0])
			}
		}
	})
}

// TestCSRRejectsBadIndex: a CSR that is not one, or a matrix too short for
// its largest column, panics on either path before any row is read.
func TestCSRRejectsBadIndex(t *testing.T) {
	forEachISA(t, func(t *testing.T) {
		m := New(4, 16)
		good := NewCSR([]int32{0, 1, 3}, []int32{3, 0, 2})
		for name, f := range map[string]func(){
			"negative column":    func() { NewCSR([]int32{0, 2}, []int32{0, -1}) },
			"decreasing pointer": func() { NewCSR([]int32{0, 2, 1, 3}, []int32{0, 1, 2}) },
			"short pointers":     func() { NewCSR([]int32{0, 2}, []int32{0, 1, 2}) },
			"nonzero start":      func() { NewCSR([]int32{1, 2}, []int32{0, 1}) },
			"CSRDots column":     func() { CSRDots(make([]float32, 3), New(2, 16), good, 0, 2, New(3, 16)) },
			"CSRDots rows":       func() { CSRDots(make([]float32, 3), New(1, 16), good, 0, 2, m) },
			"CSRDots range":      func() { CSRDots(make([]float32, 3), New(2, 16), good, 1, 3, m) },
			"CSRAccum column":    func() { CSRAccum(New(2, 16), good, 0, 2, make([]float32, 3), New(3, 16)) },
			"CSRAccum weights":   func() { CSRAccum(New(2, 16), good, 0, 2, make([]float32, 2), m) },
			"CSRExp shift":       func() { CSRExp(make([]float32, 3), make([]float32, 3), good, 0, 2, make([]float32, 1), 0) },
			"TileDots keys":      func() { TileDots(make([]float32, 16), 4, m, 0, 4, m, 1, 4) },
			"TileDots ld":        func() { TileDots(make([]float32, 16), 3, m, 0, 4, m, 0, 4) },
			"TileAccum rows":     func() { TileAccum(m, 2, 3, make([]float32, 12), 4, 1, m, 0, 4, false) },
			"TileAccum weights":  func() { TileAccum(m, 0, 4, make([]float32, 15), 1, 4, m, 0, 4, false) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: accepted", name)
					}
				}()
				f()
			}()
		}
	})
}
