package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Row-at-a-time oracles for the flash row-block kernels: what the flash
// kernel computed one query row at a time before rows went through a tile in
// blocks — per row, oracleDot for every score, a scalar `>` loop for the
// tile max, per-row Axpy sums — with no lane interleaving. The kernels are
// checked against them bit for bit on both kernel paths.

// flashInput draws an operand element: mostly ordinary, sometimes ±0, a
// subnormal, NaN, ±Inf, or large enough that a product or a dot overflows.
func flashInput(rng *rand.Rand) float32 {
	switch rng.Intn(200) {
	case 0:
		return []float32{0, negZero, float32(math.NaN()), float32(math.Inf(1)), negInf32}[rng.Intn(5)]
	case 1:
		return math.Float32frombits(uint32(1 + rng.Intn(1<<22))) // subnormal
	case 2:
		return float32(rng.NormFloat64() * 1e20)
	}
	return float32(rng.NormFloat64())
}

// flashLanes draws FlashRows lane values (a running max, logsumexp, D or
// rescale factor), specials included.
func flashLanes(rng *rand.Rand) []float32 {
	v := unaligned(FlashRows)
	for r := range v {
		v[r] = flashInput(rng)
	}
	return v
}

// flashBlock draws the rows i0 … i0+nr−1 of a fresh rows×cols matrix and
// the block lane-interleaved, its missing lanes NaN (they must not reach a
// row's result).
func flashBlock(rng *rand.Rand, rows, cols, i0, nr int) (*Mat, []float32) {
	m := FromSlice(rows, cols, unaligned(rows*cols))
	for i := range m.Data {
		m.Data[i] = flashInput(rng)
	}
	xT := unaligned(cols * FlashRows)
	for d := 0; d < cols; d++ {
		for r := range FlashRows {
			xT[d*FlashRows+r] = float32(math.NaN())
			if r < nr {
				xT[d*FlashRows+r] = m.At(i0+r, d)
			}
		}
	}
	return m, xT
}

func flashMat(rng *rand.Rand, rows, cols int) *Mat {
	m := FromSlice(rows, cols, unaligned(rows*cols))
	for i := range m.Data {
		m.Data[i] = flashInput(rng)
	}
	return m
}

// mustSameLanes compares the lanes r < nr of a lane-interleaved result.
func mustSameLanes(t *testing.T, name string, got, want []float32, nr int) {
	t.Helper()
	for i := range want {
		if i%FlashRows < nr && !sameBit(got[i], want[i]) {
			t.Fatalf("%s: element %d (key %d, row %d) = %v, want %v", name, i, i/FlashRows, i%FlashRows, got[i], want[i])
		}
	}
}

// TestFlashKernelsMatchOracle runs FlashScores (both forms), FlashDS,
// FlashAccum (with and without rescale and running sum) and FlashScatter
// against the row-at-a-time oracles on both kernel paths: head widths
// around Dot's groups of four and the lane-wise scatter's eight columns
// (8 and 16 the register paths), ragged row blocks of 1 to 7 rows beside
// full ones, tiles of 0, 1, 7, 8, 63 and 64 keys at offsets into K, and
// operands holding ±0, subnormals, NaN, ±Inf and scores beyond the float32
// range, with the same specials in the running max, logsumexp, D and
// rescale lanes.
func TestFlashKernelsMatchOracle(t *testing.T) { forEachISA(t, testFlashKernelsMatchOracle) }

func testFlashKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const R = FlashRows
	for _, dh := range []int{0, 1, 3, 4, 5, 7, 8, 9, 12, 16, 17} {
		for _, n := range []int{0, 1, 7, 8, 63, 64} {
			for _, nr := range []int{1, 3, 7, 8} {
				j0 := rng.Intn(5)
				j1 := j0 + n
				rows := max(j1, nr+2)
				i0 := rows - nr - rng.Intn(2)
				scale := float32(1 / math.Sqrt(float64(max(dh, 1))))
				q, qT := flashBlock(rng, rows, dh, i0, nr)
				k := flashMat(rng, rows, dh)

				// FlashScores, forward form: scores, tile max, shift.
				m, sub := flashLanes(rng), unaligned(R)
				wantM, wantSub, want := append([]float32(nil), m...), make([]float32, R), make([]float32, n*R)
				for r := 0; r < nr; r++ {
					tm := negInf32
					for j := j0; j < j1; j++ {
						s := float32(oracleDot(q.Row(i0+r), k.Row(j)) * scale)
						want[(j-j0)*R+r] = s
						if s > tm {
							tm = s
						}
					}
					newM := m[r]
					if tm > newM {
						newM = tm
					}
					wantSub[r], wantM[r] = m[r]-newM, newM
					for j := j0; j < j1; j++ {
						want[(j-j0)*R+r] += -newM
					}
				}
				dst := unaligned(n * R)
				FlashScores(dst, qT, k, j0, j1, scale, m, sub)
				mustSameLanes(t, "FlashScores max", dst, want, nr)
				mustSameLanes(t, "FlashScores m", m, wantM, nr)
				mustSameLanes(t, "FlashScores sub", sub, wantSub, nr)

				// FlashScores, backward form: shifted by a fixed −lse.
				lse := flashLanes(rng)
				for r := 0; r < nr; r++ {
					for j := j0; j < j1; j++ {
						want[(j-j0)*R+r] = float32(oracleDot(q.Row(i0+r), k.Row(j))*scale) + -lse[r]
					}
				}
				lseIn := append([]float32(nil), lse...)
				FlashScores(dst, qT, k, j0, j1, scale, lse, nil)
				mustSameLanes(t, "FlashScores shift", dst, want, nr)
				mustSameLanes(t, "FlashScores lse", lse, lseIn, R)

				// FlashDS: p·(dO_r·v_j − d_r)·scale.
				dO, dOT := flashBlock(rng, rows, dh, i0, nr)
				v := flashMat(rng, rows, dh)
				p, d := unaligned(n*R), flashLanes(rng)
				for i := range p {
					p[i] = flashInput(rng)
				}
				for r := 0; r < nr; r++ {
					for j := j0; j < j1; j++ {
						e := (j-j0)*R + r
						want[e] = p[e] * (oracleDot(dO.Row(i0+r), v.Row(j)) - d[r]) * scale
					}
				}
				FlashDS(dst, p, dOT, v, j0, j1, d, scale)
				mustSameLanes(t, "FlashDS", dst, want, nr)

				// FlashAccum: rescale, then keys ascending into l and acc.
				for _, form := range []struct{ l, corr bool }{{true, true}, {false, false}, {true, false}, {false, true}} {
					accT := unaligned(dh * R)
					for i := range accT {
						accT[i] = flashInput(rng)
					}
					var l, corr []float32
					if form.l {
						l = flashLanes(rng)
					}
					if form.corr {
						corr = flashLanes(rng)
					}
					wantAcc, wantL := append([]float32(nil), accT...), append([]float32(nil), l...)
					for r := 0; r < R; r++ {
						if corr != nil {
							if l != nil {
								wantL[r] *= corr[r]
							}
							for x := 0; x < dh; x++ {
								wantAcc[x*R+r] *= corr[r]
							}
						}
						for j := j0; j < j1; j++ {
							w := p[(j-j0)*R+r]
							if l != nil {
								wantL[r] += w
							}
							for x := 0; x < dh; x++ {
								wantAcc[x*R+r] += float32(w * v.At(j, x))
							}
						}
					}
					FlashAccum(accT, l, p, v, j0, j1, corr)
					mustSameLanes(t, "FlashAccum acc", accT, wantAcc, R)
					if l != nil {
						mustSameLanes(t, "FlashAccum l", l, wantL, R)
					}
				}

				// FlashScatter: rows r < nr ascending into each key row;
				// the NaN in p's missing lanes must not be read.
				for i := range p {
					if i%R >= nr {
						p[i] = float32(math.NaN())
					}
				}
				dk := flashMat(rng, rows, dh)
				wantDK := dk.Clone()
				for j := j0; j < j1; j++ {
					for r := 0; r < nr; r++ {
						w := p[(j-j0)*R+r]
						for c := 0; c < dh; c++ {
							wantDK.Data[j*dh+c] += float32(w * q.At(i0+r, c))
						}
					}
				}
				FlashScatter(dk, j0, j1, p, q, i0, nr)
				if i, ok := sameBits(dk.Data, wantDK.Data); !ok {
					t.Fatalf("FlashScatter dh=%d keys=%d rows=%d: element %d = %v, want %v", dh, n, nr, i, dk.Data[i], wantDK.Data[i])
				}
			}
		}
	}
}

// TestFlashScoresMaxFirstWins pins the streaming max's tie and NaN rules on
// both paths: a later equal score never replaces an earlier one (so of −0
// and +0 the running value keeps its own), NaN scores never win, and a NaN
// running max is kept.
func TestFlashScoresMaxFirstWins(t *testing.T) {
	forEachISA(t, func(t *testing.T) {
		const R = FlashRows
		// one key, dh = 1: the score is q·k·1
		k := FromSlice(1, 1, []float32{1})
		qT := []float32{0, 0, float32(math.NaN()), 2, 2, negInf32, 5, 1}
		m := []float32{negZero, 0, 1, 2, float32(math.NaN()), negInf32, negInf32, 3}
		sub := make([]float32, R)
		dst := make([]float32, R)
		FlashScores(dst, qT, k, 0, 1, 1, m, sub)
		wantM := []float32{negZero, 0, 1, 2, float32(math.NaN()), negInf32, 5, 3}
		for r := range R {
			if !sameBit(m[r], wantM[r]) {
				t.Fatalf("lane %d: running max %v, want %v", r, m[r], wantM[r])
			}
		}
	})
}

// TestFlashKernelsRejectBadShapes: out-of-range keys, short operands and
// ragged blocks beyond the matrix panic on either path before any element
// is touched.
func TestFlashKernelsRejectBadShapes(t *testing.T) {
	forEachISA(t, func(t *testing.T) {
		const R = FlashRows
		k := New(10, 8)
		lanes := make([]float32, R)
		for name, f := range map[string]func(){
			"FlashScores keys":  func() { FlashScores(make([]float32, 11*R), make([]float32, 8*R), k, 0, 11, 1, lanes, nil) },
			"FlashScores dst":   func() { FlashScores(make([]float32, 3*R), make([]float32, 8*R), k, 0, 4, 1, lanes, lanes) },
			"FlashScores qT":    func() { FlashScores(make([]float32, 4*R), make([]float32, 7*R), k, 0, 4, 1, lanes, nil) },
			"FlashScores m":     func() { FlashScores(make([]float32, 4*R), make([]float32, 8*R), k, 0, 4, 1, lanes[:3], nil) },
			"FlashDS p":         func() { FlashDS(make([]float32, 4*R), make([]float32, 3*R), make([]float32, 8*R), k, 0, 4, lanes, 1) },
			"FlashAccum accT":   func() { FlashAccum(make([]float32, 7*R), nil, make([]float32, 4*R), k, 0, 4, nil) },
			"FlashAccum corr":   func() { FlashAccum(make([]float32, 8*R), nil, make([]float32, 4*R), k, 0, 4, lanes[:2]) },
			"FlashScatter rows": func() { FlashScatter(k, 0, 4, make([]float32, 4*R), k, 5, 6) },
			"FlashScatter nr":   func() { FlashScatter(k, 0, 4, make([]float32, 4*R), k, 0, R+1) },
			"FlashScatter cols": func() { FlashScatter(k, 0, 4, make([]float32, 4*R), New(10, 7), 0, 2) },
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
