package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The scalar expressions the row ops are defined as. The lane-wise
// kernels must return these bits — NaN payloads included — for every input.

func wantExp(v, shift, cut float32) float32 {
	x := v + shift
	if x <= cut {
		return 0
	}
	return float32(math.Exp(float64(x)))
}

func wantGELU(u, bias float32) (z, y float32) {
	z = u + bias
	return z, float32(GELU(float64(z)))
}

func wantGELUGrad(z, dy float32) float32 { return dy * float32(GELUGrad(float64(z))) }

var negZero = math.Float32frombits(1 << 31)

// rowKernels names the three row ops in the order the mismatch counters use.
var rowKernels = [3]string{"expRow", "geluRow", "geluGradRow"}

// checkRows runs the three row ops over src (shift and cut for the exp, one
// bias and one dy value for every element of the GELU pair) and returns, per
// op, how many outputs differ from the scalar expressions and the first
// input that did.
func checkRows(src []float32, shift, cut, bias, dy float32, scratch *[3][]float32) (bad [3]int, first [3]uint32) {
	n := len(src)
	for i := range scratch {
		if cap(scratch[i]) < n {
			scratch[i] = make([]float32, n)
		}
		scratch[i] = scratch[i][:n]
	}
	out, u, vec := scratch[0], scratch[1], scratch[2]
	note := func(k int, v float32) {
		if bad[k] == 0 {
			first[k] = math.Float32bits(v)
		}
		bad[k]++
	}

	if cut == negInf32 {
		expRow(out, src, shift)
	} else { // a finite cut is CSRExp's: src as one row
		CSRExp(out, src, DenseCSR(1, n), 0, 1, []float32{shift}, cut)
	}
	for i, v := range src {
		if math.Float32bits(out[i]) != math.Float32bits(wantExp(v, shift, cut)) {
			note(0, v)
		}
	}

	copy(u, src)
	for i := range vec {
		vec[i] = bias
	}
	geluRow(out, u, vec)
	for i, v := range src {
		z, y := wantGELU(v, bias)
		if math.Float32bits(u[i]) != math.Float32bits(z) || math.Float32bits(out[i]) != math.Float32bits(y) {
			note(1, v)
		}
	}

	for i := range vec {
		vec[i] = dy
	}
	geluGradRow(out, src, vec)
	for i, v := range src {
		if math.Float32bits(out[i]) != math.Float32bits(wantGELUGrad(v, dy)) {
			note(2, v)
		}
	}
	return bad, first
}

// sweepPatterns checks the three row ops on the float32 bit patterns 0,
// stride, 2·stride, … below 2³², split across GOMAXPROCS workers.
func sweepPatterns(t *testing.T, stride uint64) {
	const chunk = 1 << 14
	total := (uint64(1)<<32 + stride - 1) / stride
	chunks := (total + chunk - 1) / chunk
	var next atomic.Uint64
	var mu sync.Mutex // guards bad and first, merged once per worker
	var bad [3]int
	var first [3]uint32
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := make([]float32, chunk)
			var scratch [3][]float32
			var myBad [3]int
			var myFirst [3]uint32
			for c := next.Add(1) - 1; c < chunks; c = next.Add(1) - 1 {
				lo := c * chunk
				n := min(chunk, total-lo)
				for i := uint64(0); i < n; i++ {
					src[i] = math.Float32frombits(uint32((lo + i) * stride))
				}
				// bias −0 and dy 1 leave every input and output as it is
				b, f := checkRows(src[:n], 0, negInf32, negZero, 1, &scratch)
				for k := range b {
					if myBad[k] == 0 {
						myFirst[k] = f[k]
					}
					myBad[k] += b[k]
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for k := range myBad {
				if bad[k] == 0 {
					first[k] = myFirst[k]
				}
				bad[k] += myBad[k]
			}
		}()
	}
	wg.Wait()
	for k, name := range rowKernels {
		if bad[k] != 0 {
			t.Errorf("%s: %d of %d inputs differ from the scalar expression, e.g. bits %#08x (%v)",
				name, bad[k], total, first[k], math.Float32frombits(first[k]))
		}
	}
	t.Logf("%d float32 patterns (stride %d) x 3 row ops in %v", total, stride, time.Since(start).Round(time.Millisecond))
}

// float32 neighbours of v, k ulps either side.
func around(v float32, k int) []float32 {
	out := []float32{v}
	lo, hi := v, v
	for i := 0; i < k; i++ {
		lo = math.Nextafter32(lo, float32(math.Inf(-1)))
		hi = math.Nextafter32(hi, float32(math.Inf(1)))
		out = append(out, lo, hi)
	}
	return out
}

// edgeInputs lists the inputs where a branch of exp or tanh changes hands,
// each with its neighbours: signed zeros, infinities, quiet and signalling
// NaNs, both ends of math.Exp's normal range (−708.4 / 709.78) and of its
// denormal range (−745.1), the float32 result's overflow (88.72), subnormal
// (−87.3) and zero (−103.97) thresholds, the −80 cut, and the GELU inputs at
// which tanh's argument crosses ±0.625 and ±0.5·MAXLOG.
func edgeInputs() []float32 {
	bits := []uint32{0, 1 << 31, 0x7f800000, 0xff800000, 0x7fc00000, 0xffc00000, 0x7fc01234, 0x7f800001, 0xffa00000,
		1, 0x80000001, 0x007fffff, 0x00800000, 0x7f7fffff, 0xff7fffff}
	var in []float32
	for _, b := range bits {
		in = append(in, math.Float32frombits(b))
	}
	for _, v := range []float32{-80, 88.72284, -87.33655, -103.97208, -103.27893, -708.3964, -745.1332, 709.7827, 1, -1, 0.5, 30, -30} {
		in = append(in, around(v, 3)...)
	}
	inner := func(x float32) float64 { z := float64(x); return geluC * (z + 0.044715*z*z*z) }
	for _, edge := range []float64{0.625, 0.5 * 8.8029691931113054295988e+01} {
		// smallest positive float32 whose tanh argument reaches the edge
		lo, hi := uint32(0), uint32(0x7f800000)
		for lo < hi {
			if mid := (lo + hi) / 2; inner(math.Float32frombits(mid)) >= edge {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		x := math.Float32frombits(lo)
		in = append(in, around(x, 4)...)
		in = append(in, around(-x, 4)...)
	}
	return in
}

// TestLaneMathMatchesScalar is the equality proof behind the lane-wise
// exp/GELU kernels. Their input domain is float32: 2²⁴ bit patterns — an odd
// stride, so every low-order bit varies — then every branch edge with its
// neighbours, under each shift and cut, bias and upstream gradient, both
// packed (groups that mix in-range and out-of-range lanes) and one value at a
// time (a full group plus a three-element tail). TestLaneMathExhaustive
// (build tag exhaustive) sweeps all 2³² patterns.
func TestLaneMathMatchesScalar(t *testing.T) { forEachISA(t, testLaneMathMatchesScalar) }

func testLaneMathMatchesScalar(t *testing.T) {
	sweepPatterns(t, 257)

	var scratch [3][]float32
	edges := edgeInputs()
	for _, shift := range []float32{0, -3.25, 1.7, -0.001} {
		src := make([]float32, len(edges))
		for i, x := range edges {
			src[i] = x - shift // so that src+shift lands on or beside the edge
		}
		for _, cut := range []float32{negInf32, -80} {
			for _, bd := range [][2]float32{{0, 1}, {shift, -0.75}, {-shift, 3}} {
				rows := [][]float32{src}
				for _, v := range src {
					rows = append(rows, []float32{v, v, v, v, v, v, v})
				}
				for _, row := range rows {
					bad, first := checkRows(row, shift, cut, bd[0], bd[1], &scratch)
					for k, name := range rowKernels {
						if bad[k] != 0 {
							t.Fatalf("%s (shift %v, cut %v, bias %v, dy %v): %d of %d edge inputs differ, e.g. bits %#08x (%v)",
								name, shift, cut, bd[0], bd[1], bad[k], len(row), first[k], math.Float32frombits(first[k]))
						}
					}
				}
			}
		}
	}
}

// TestSoftmaxInPlaceMatchesScalar: SoftmaxInPlace on expRow against the
// per-element loop it replaced, on rows of every length 0…70 (every
// lane-group count and tail), dense, partly masked with the attention
// kernels' −1e30, wholly masked, and spread wide.
func TestSoftmaxInPlaceMatchesScalar(t *testing.T) { forEachISA(t, testSoftmaxInPlaceMatchesScalar) }

func testSoftmaxInPlaceMatchesScalar(t *testing.T) {
	oldSoftmax := func(row []float32) {
		if len(row) == 0 {
			return
		}
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for j, v := range row {
			e := float32(math.Exp(float64(v - mx)))
			row[j] = e
			sum += float64(e)
		}
		inv := float32(1.0 / sum)
		for j := range row {
			row[j] *= inv
		}
	}
	const masked = float32(-1e30)
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 70; n++ {
		for variant := 0; variant < 4; variant++ {
			row := unaligned(n)
			for i := range row {
				switch {
				case variant == 1 && rng.Intn(3) == 0, variant == 2:
					row[i] = masked
				case variant == 3:
					row[i] = float32(rng.NormFloat64() * 60)
				default:
					row[i] = float32(rng.NormFloat64() * 3)
				}
			}
			want, got := append([]float32(nil), row...), append([]float32(nil), row...)
			oldSoftmax(want)
			SoftmaxInPlace(got)
			if i, ok := sameBits(want, got); !ok {
				t.Fatalf("SoftmaxInPlace n=%d variant %d: [%d] = %v, want %v", n, variant, i, got[i], want[i])
			}
		}
	}
}
