package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// rowSplits lists ways of cutting n rows into up to four consecutive ranges:
// every choice of three cut points when n is small (empty ranges, single
// rows and odd/even boundaries included), otherwise a fixed set — cuts at
// n%2, at odd rows, doubled cuts (an empty middle range) and the two ends.
func rowSplits(n int) [][4]int {
	var out [][4]int
	if n <= 6 {
		for a := 0; a <= n; a++ {
			for b := a; b <= n; b++ {
				for c := b; c <= n; c++ {
					out = append(out, [4]int{a, b, c, n})
				}
			}
		}
		return out
	}
	h := n / 2
	return [][4]int{
		{n, n, n, n}, {0, 0, 0, n}, {0, n, n, n},
		{n % 2, h, h, n}, {1, h | 1, n - 1, n}, {h, h, h + 1, n}, {3, 3, 3, n}, {2, 5, n - 2, n},
	}
}

// TestTMatMulAccChainBitwise pins what the cross-process gradient chain
// stands on: continuing one C through consecutive row ranges — TMatMulAcc per
// range, in order, from zero — is bit for bit the one-shot TMatMul and the
// triple-loop oracle, on both kernel paths, whatever the split (empty ranges,
// cuts inside the Go tiles' row pairs, column counts either side of the
// micro-kernel blocks and of a panel edge). A carries ±0, subnormals and NaN;
// the ±0 face NaN/Inf rows of B, so continuing with the never-skip form
// (WeightedRowSum's) instead would pollute C — the test checks that it does,
// i.e. that this data would catch that mutation.
func TestTMatMulAccChainBitwise(t *testing.T) { forEachISA(t, testTMatMulAccChainBitwise) }

func testTMatMulAccChainBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	shapes := [][3]int{ // rows n, C rows k, C cols m
		{0, 3, 8}, {1, 1, 1}, {2, 3, 5}, {3, 2, 8}, {5, 5, 9}, {6, 4, 33},
		{16, 8, 64}, {33, 7, 70}, {40, 3, mmPanel + 44}, {64, 16, 32},
	}
	caught := false
	for _, d := range shapes {
		n, k, m := d[0], d[1], d[2]
		a := randMatUnaligned(rng, n, k)
		b := randMatUnaligned(rng, n, m)
		bad := poison(rng, b)
		for r := 0; r < n; r++ {
			for c := 0; c < k; c++ {
				switch {
				case bad[r]: // ±0 (skipped) or a subnormal (not skipped) against the NaN/Inf row
					a.Set(r, c, zeroOrSpecial(rng))
				case rng.Intn(6) == 0:
					a.Set(r, c, zeroOrSpecial(rng))
				case rng.Intn(40) == 0:
					a.Set(r, c, float32(math.NaN()))
				}
			}
		}
		want := oracleTMatMul(a, b)
		oneShot := FromSlice(k, m, unaligned(k*m))
		TMatMul(oneShot, a, b)
		if i, ok := sameBits(oneShot.Data, want.Data); !ok {
			t.Fatalf("TMatMul %v: element %d differs from the oracle", d, i)
		}
		for _, cuts := range rowSplits(n) {
			for _, workers := range []int{1, 3} {
				prev := SetWorkers(workers)
				got := FromSlice(k, m, unaligned(k*m))
				keep := New(k, m) // the same chain with every term kept
				lo := 0
				for _, hi := range cuts {
					TMatMulAcc(got, a.SliceRows(lo, hi), b.SliceRows(lo, hi))
					col := make([]float32, hi-lo)
					for i := 0; i < k; i++ {
						for r := lo; r < hi; r++ {
							col[r-lo] = a.At(r, i)
						}
						WeightedRowSum(keep.Row(i), b, col, lo, hi)
					}
					lo = hi
				}
				SetWorkers(prev)
				if i, ok := sameBits(got.Data, want.Data); !ok {
					t.Fatalf("TMatMulAcc %v cuts %v workers=%d: element %d: %v, one-shot %v",
						d, cuts, workers, i, got.Data[i], want.Data[i])
				}
				if _, same := sameBits(keep.Data, want.Data); !same {
					caught = true
				}
			}
		}
	}
	if !caught {
		t.Fatal("no case distinguishes zero-skip from never-skip: the data lost its ±0-against-NaN entries")
	}
}

// TestColSumChainBitwise: ColSum accumulates onto what out holds, row by
// row, so summing consecutive row ranges in order is the one-shot sum — the
// bias-gradient half of the chain. Includes −0 rows, which a fresh partial
// per range (0 + −0 = +0) would get wrong.
func TestColSumChainBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, n := range []int{0, 1, 2, 5, 6, 17, 32} {
		m := randMat(rng, n, 9)
		for i := range m.Data {
			switch rng.Intn(5) {
			case 0:
				m.Data[i] = math.Float32frombits(1 << 31)
			case 1:
				m.Data[i] = float32(rng.NormFloat64()) * 1e8
			}
		}
		start := make([]float32, m.Cols)
		for j := range start {
			start[j] = math.Float32frombits(1 << 31) // −0: stays −0 until a row says otherwise
		}
		want := append([]float32(nil), start...)
		ColSum(want, m)
		for _, cuts := range rowSplits(n) {
			got := append([]float32(nil), start...)
			lo := 0
			for _, hi := range cuts {
				ColSum(got, m.SliceRows(lo, hi))
				lo = hi
			}
			if i, ok := sameBits(got, want); !ok {
				t.Fatalf("ColSum n=%d cuts %v: column %d: %v, one-shot %v", n, cuts, i, got[i], want[i])
			}
		}
	}
}

// TestTMatMulSegAccMatchesPerSegmentLoop pins the segmented weight-gradient
// kernel to the loop it replaced — per segment a TMatMul into a zeroed
// temporary, then a whole AddInPlace onto the gradient — and to the
// triple-loop oracle, bit for bit on both kernel paths and at every worker
// count: onto a non-zero gradient (with −0 entries, which a segment product
// of +0 must turn into +0), with empty and one-row segments, cuts inside the
// Go tiles' row pairs, gradient row counts that split unevenly over workers
// and column counts either side of the micro-kernel blocks and a panel edge.
// A carries ±0, subnormals and NaN against NaN/Inf rows of B (the zero-skip
// contract). The data must also tell the segmented order from continuing the
// gradient straight through the segments (TMatMulAcc with no temporary),
// which associates the same terms differently.
func TestTMatMulSegAccMatchesPerSegmentLoop(t *testing.T) {
	forEachISA(t, testTMatMulSegAccMatchesPerSegmentLoop)
}

func testTMatMulSegAccMatchesPerSegmentLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	shapes := [][3]int{ // rows n, C rows k, C cols m
		{0, 3, 8}, {1, 1, 1}, {2, 3, 5}, {3, 2, 8}, {5, 5, 9}, {6, 4, 33},
		{16, 8, 64}, {33, 7, 70}, {40, 3, mmPanel + 44}, {64, 16, 32}, {24, 5, mmPanel},
	}
	caught := false
	for _, d := range shapes {
		n, k, m := d[0], d[1], d[2]
		a := randMatUnaligned(rng, n, k)
		b := randMatUnaligned(rng, n, m)
		bad := poison(rng, b)
		for r := 0; r < n; r++ {
			for c := 0; c < k; c++ {
				switch {
				case bad[r] || rng.Intn(6) == 0:
					a.Set(r, c, zeroOrSpecial(rng))
				case rng.Intn(40) == 0:
					a.Set(r, c, float32(math.NaN()))
				}
			}
		}
		grad0 := randMatUnaligned(rng, k, m)
		for i := range grad0.Data {
			if rng.Intn(5) == 0 {
				grad0.Data[i] = math.Float32frombits(1 << 31) // −0
			}
		}
		for _, cuts := range rowSplits(n) {
			bounds := []int32{0, int32(cuts[0]), int32(cuts[1]), int32(cuts[2]), int32(cuts[3])}
			want, loop, through := grad0.Clone(), grad0.Clone(), grad0.Clone()
			tmp := New(k, m)
			for s := 0; s+1 < len(bounds); s++ {
				lo, hi := int(bounds[s]), int(bounds[s+1])
				if lo == hi {
					continue
				}
				as, bs := a.SliceRows(lo, hi), b.SliceRows(lo, hi)
				seg := oracleTMatMul(as, bs)
				for i, v := range seg.Data {
					want.Data[i] += v
				}
				TMatMul(tmp, as, bs)
				AddInPlace(loop, tmp)
				TMatMulAcc(through, as, bs)
			}
			if i, ok := sameBits(loop.Data, want.Data); !ok {
				t.Fatalf("per-segment loop %v cuts %v: element %d differs from the oracle", d, cuts, i)
			}
			if _, same := sameBits(through.Data, want.Data); !same {
				caught = true
			}
			for _, workers := range []int{1, 2, 3} {
				prev := SetWorkers(workers)
				got := FromSlice(k, m, unaligned(k*m))
				copy(got.Data, grad0.Data)
				TMatMulSegAcc(got, a, b, bounds)
				SetWorkers(prev)
				if i, ok := sameBits(got.Data, want.Data); !ok {
					t.Fatalf("TMatMulSegAcc %v cuts %v workers=%d: element %d: %v, per-segment loop %v",
						d, cuts, workers, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
	if !caught {
		t.Fatal("no case distinguishes per-segment products from one continued reduction")
	}
}

// TestTMatMulSegAccRejectsBadBounds: descending bounds and bounds past the
// operands' rows panic instead of reading out of range.
func TestTMatMulSegAccRejectsBadBounds(t *testing.T) {
	a, b, c := New(6, 3), New(6, 4), New(3, 4)
	for _, bounds := range [][]int32{{0, 4, 2, 6}, {0, 7}, {-1, 6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v: no panic", bounds)
				}
			}()
			TMatMulSegAcc(c, a, b, bounds)
		}()
	}
}
