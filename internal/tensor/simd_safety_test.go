package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Memory-safety tests for the assembly. The micro-kernels trust their
// arguments, so each bounds-checked wrapper is driven here with every
// operand carved out of a larger slab of canaries at an odd offset: after the
// call the output must equal a plain-loop oracle and no element outside the
// output window — in any slab — may have changed. One deterministic sweep
// over adversarial lengths, offsets and strides per wrapper, and one fuzz
// target per wrapper over the same check (`go test -fuzz FuzzAccumCols
// ./internal/tensor`; the f.Add seeds are the committed corpus).

// canary is the bit pattern of 12345678: finite on purpose — a NaN canary
// survives being read, run through a kernel and stored back, payload and all.
const canary = 0x4b3c614e

// guarded is an operand window inside a canary-filled allocation.
type guarded struct {
	all    []float32
	off, n int
}

// newGuarded returns an n-element window off elements into a slab with at
// least 16 canaries (two YMM stores) behind it, the window filled by fill.
func newGuarded(n, off int, fill func(i int) float32) guarded {
	s := guarded{all: make([]float32, off+n+16), off: off, n: n}
	for i := range s.all {
		s.all[i] = math.Float32frombits(canary)
	}
	for i := 0; i < n; i++ {
		s.all[off+i] = fill(i)
	}
	return s
}

// win is the window, capacity clipped so an append cannot hide an overrun.
func (s guarded) win() []float32 { return s.all[s.off : s.off+s.n : s.off+s.n] }

// intact fails the test if any element outside the window — or, for an
// input operand (want != nil), any element at all — differs from what was
// put there.
func (s guarded) intact(tb testing.TB, name string, want []float32) {
	tb.Helper()
	for i, v := range s.all {
		in := i >= s.off && i < s.off+s.n
		switch {
		case !in && math.Float32bits(v) != canary:
			tb.Fatalf("%s: element %d outside the window [%d,%d) was overwritten with %#08x", name, i, s.off, s.off+s.n, math.Float32bits(v))
		case in && want != nil && math.Float32bits(v) != math.Float32bits(want[i-s.off]):
			tb.Fatalf("%s: input element %d changed", name, i-s.off)
		}
	}
}

func mustSameBits(tb testing.TB, name string, got, want []float32) {
	tb.Helper()
	if i, ok := sameBits(want, got); !ok {
		tb.Fatalf("%s[%d] = %v (%#08x), want %v (%#08x)", name, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
	}
}

// mathInput draws an input for the transcendental kernels: mostly ordinary
// activations, sometimes far out, sometimes a special.
func mathInput(rng *rand.Rand) float32 {
	switch rng.Intn(16) {
	case 0:
		return float32(rng.NormFloat64() * 400)
	case 1:
		return []float32{float32(math.NaN()), float32(math.Inf(1)), negInf32, 0, negZero, -1e30, 3e38}[rng.Intn(7)]
	}
	return float32(rng.NormFloat64() * 3)
}

func needLanes(tb testing.TB) {
	if mathLanes(4) == 0 {
		tb.Skip("no lane-wise exp/GELU kernels on this machine")
	}
}

func needCols(tb testing.TB) {
	if simdCols(8) == 0 {
		tb.Skip("no AVX2 micro-kernels on this machine")
	}
}

func checkExpLanes(tb testing.TB, seed int64, groups, dstOff, srcOff int, inPlace bool) {
	needLanes(tb)
	rng := rand.New(rand.NewSource(seed))
	n := 4 * groups
	shift := float32(rng.NormFloat64())
	cut := []float32{negInf32, -80, -2}[rng.Intn(3)]
	src := newGuarded(n, srcOff, func(int) float32 { return mathInput(rng) })
	in := append([]float32(nil), src.win()...)
	dst := newGuarded(n, dstOff, func(int) float32 { return math.Float32frombits(canary) })
	if inPlace {
		dst = src
	}
	k := expLanes(dst.win(), src.win(), shift, cut)
	if k < 0 || k > n || k%4 != 0 {
		tb.Fatalf("expLanes returned %d of %d", k, n)
	}
	want := append([]float32(nil), in...) // past k nothing may be written
	if !inPlace {
		for i := k; i < n; i++ {
			want[i] = math.Float32frombits(canary)
		}
	}
	for i := 0; i < k; i++ {
		want[i] = wantExp(in[i], shift, cut)
	}
	mustSameBits(tb, "expLanes dst", dst.win(), want)
	dst.intact(tb, "expLanes dst", nil)
	if !inPlace {
		src.intact(tb, "expLanes src", in)
	}
	if k < n {
		// it may only stop in front of a lane math.Exp's main path does not
		// take: every x in (−708, 709) has a normal float64 exponential
		stop := false
		for _, v := range in[k : k+4] {
			x := v + shift
			stop = stop || (!(x <= cut) && !(x > -708 && x < 709))
		}
		if !stop {
			tb.Fatalf("expLanes stopped at %d in front of in-range lanes %v (shift %v, cut %v)", k, in[k:k+4], shift, cut)
		}
	}
}

func checkGELULanes(tb testing.TB, seed int64, groups, yOff, uOff, bOff int) {
	needLanes(tb)
	rng := rand.New(rand.NewSource(seed))
	n := 4 * groups
	u := newGuarded(n, uOff, func(int) float32 { return mathInput(rng) })
	bias := newGuarded(n, bOff, func(int) float32 { return float32(rng.NormFloat64()) })
	y := newGuarded(n, yOff, func(int) float32 { return math.Float32frombits(canary) })
	b := append([]float32(nil), bias.win()...)
	wantZ, wantY := make([]float32, n), make([]float32, n)
	for i, v := range u.win() {
		wantZ[i], wantY[i] = wantGELU(v, b[i])
	}
	geluLanes(y.win(), u.win(), bias.win())
	mustSameBits(tb, "geluLanes y", y.win(), wantY)
	mustSameBits(tb, "geluLanes u", u.win(), wantZ)
	y.intact(tb, "geluLanes y", nil)
	u.intact(tb, "geluLanes u", nil)
	bias.intact(tb, "geluLanes bias", b)
}

func checkGELUGradLanes(tb testing.TB, seed int64, groups, dzOff, zOff, dyOff int) {
	needLanes(tb)
	rng := rand.New(rand.NewSource(seed))
	n := 4 * groups
	z := newGuarded(n, zOff, func(int) float32 { return mathInput(rng) })
	dy := newGuarded(n, dyOff, func(int) float32 { return float32(rng.NormFloat64()) })
	dz := newGuarded(n, dzOff, func(int) float32 { return math.Float32frombits(canary) })
	zin, dyin := append([]float32(nil), z.win()...), append([]float32(nil), dy.win()...)
	want := make([]float32, n)
	for i := range want {
		want[i] = wantGELUGrad(zin[i], dyin[i])
	}
	geluGradLanes(dz.win(), z.win(), dy.win())
	mustSameBits(tb, "geluGradLanes dz", dz.win(), want)
	dz.intact(tb, "geluGradLanes dz", nil)
	z.intact(tb, "geluGradLanes z", zin)
	dy.intact(tb, "geluGradLanes dy", dyin)
}

// checkAccumCols: c[j] = init + Σ_p a[p·stride]·b[p·ldb+j] over 8·blocks
// columns, ldb = columns + ldPad, in the form mode names.
func checkAccumCols(tb testing.TB, seed int64, blocks, k, stride, ldPad, cOff, aOff, bOff int, mode accumMode) {
	needCols(tb)
	rng := rand.New(rand.NewSource(seed))
	n := 8 * blocks
	ldb := n + ldPad
	aLen, bLen := 0, 0
	if k > 0 {
		aLen, bLen = (k-1)*stride+1, (k-1)*ldb+n
	}
	a := newGuarded(aLen, aOff, func(int) float32 {
		if rng.Intn(4) == 0 {
			return zeroOrSpecial(rng)
		}
		return float32(rng.NormFloat64())
	})
	b := newGuarded(bLen, bOff, func(int) float32 { return float32(rng.NormFloat64()) })
	c := newGuarded(n, cOff, func(int) float32 { return float32(rng.NormFloat64()) })
	ain, bin := append([]float32(nil), a.win()...), append([]float32(nil), b.win()...)
	want := append([]float32(nil), c.win()...)
	for j := range want {
		if mode == accumZeroSkip {
			want[j] = 0
		}
		for p := 0; p < k; p++ {
			if av := ain[p*stride]; mode == accumLoadKeep || av != 0 {
				want[j] += float32(av * bin[p*ldb+j])
			}
		}
	}
	accumCols(c.win(), a.win(), stride, b.win(), ldb, k, mode)
	mustSameBits(tb, "accumCols c", c.win(), want)
	c.intact(tb, "accumCols c", nil)
	a.intact(tb, "accumCols a", ain)
	b.intact(tb, "accumCols b", bin)
}

// checkScatterCols: rows[r·ld+j] += w[r]·x[j] over 8·blocks columns of nr
// rows, ld = columns + ldPad; the ldPad elements between rows must not move.
func checkScatterCols(tb testing.TB, seed int64, blocks, nr, ldPad, rowsOff, wOff, xOff int) {
	needCols(tb)
	rng := rand.New(rand.NewSource(seed))
	n := 8 * blocks
	ld := n + ldPad
	rowsLen := 0
	if nr > 0 && n > 0 {
		rowsLen = (nr-1)*ld + n
	}
	rnd := func(int) float32 { return float32(rng.NormFloat64()) }
	rows := newGuarded(rowsLen, rowsOff, rnd)
	w := newGuarded(nr, wOff, rnd)
	x := newGuarded(n, xOff, rnd)
	win, xin := append([]float32(nil), w.win()...), append([]float32(nil), x.win()...)
	want := append([]float32(nil), rows.win()...)
	if rowsLen > 0 {
		for r := 0; r < nr; r++ {
			for j := 0; j < n; j++ {
				want[r*ld+j] += float32(win[r] * xin[j])
			}
		}
	}
	scatterCols(rows.win(), ld, w.win(), x.win())
	mustSameBits(tb, "scatterCols rows", rows.win(), want)
	rows.intact(tb, "scatterCols rows", nil)
	w.intact(tb, "scatterCols w", win)
	x.intact(tb, "scatterCols x", xin)
}

// checkDotCols: dst[j] = Dot(x, column j of bt) over 8·blocks columns,
// ld = columns + ldPad.
func checkDotCols(tb testing.TB, seed int64, blocks, k, ldPad, dstOff, xOff, btOff int) {
	needCols(tb)
	rng := rand.New(rand.NewSource(seed))
	n := 8 * blocks
	ld := n + ldPad
	btLen := 0
	if k > 0 && n > 0 {
		btLen = (k-1)*ld + n
	}
	rnd := func(int) float32 { return float32(rng.NormFloat64()) }
	x := newGuarded(k, xOff, rnd)
	bt := newGuarded(btLen, btOff, rnd)
	dst := newGuarded(n, dstOff, func(int) float32 { return math.Float32frombits(canary) })
	xin, btin := append([]float32(nil), x.win()...), append([]float32(nil), bt.win()...)
	want := make([]float32, n)
	col := make([]float32, k)
	for j := range want {
		for p := range col {
			col[p] = btin[p*ld+j]
		}
		want[j] = oracleDot(xin, col)
	}
	dotCols(dst.win(), x.win(), bt.win(), ld)
	mustSameBits(tb, "dotCols dst", dst.win(), want)
	dst.intact(tb, "dotCols dst", nil)
	x.intact(tb, "dotCols x", xin)
	bt.intact(tb, "dotCols bt", btin)
}

// gatherOperands draws the operands of the gather wrappers: an m of rows
// rows of 8·blocks columns, ld = columns + ldPad apart, and ne row indices
// into it (repeats, any order).
func gatherOperands(rng *rand.Rand, blocks, ne, ldPad, rows, mOff int) (m guarded, ld int, idx []int32) {
	n := 8 * blocks
	ld = n + ldPad
	mLen := 0
	if rows > 0 {
		mLen = (rows-1)*ld + n
	}
	m = newGuarded(mLen, mOff, func(int) float32 { return float32(rng.NormFloat64()) })
	if rows > 0 {
		idx = make([]int32, ne)
		for e := range idx {
			idx[e] = int32(rng.Intn(rows))
		}
	}
	return m, ld, idx
}

// checkGatherDotCols: dst[e] = Dot(x, row idx[e] of m) over 8·blocks
// columns.
func checkGatherDotCols(tb testing.TB, seed int64, blocks, ne, ldPad, rows, dstOff, xOff, mOff int) {
	needCols(tb)
	rng := rand.New(rand.NewSource(seed))
	m, ld, idx := gatherOperands(rng, blocks, ne, ldPad, rows, mOff)
	n := 8 * blocks
	x := newGuarded(n, xOff, func(int) float32 { return float32(rng.NormFloat64()) })
	dst := newGuarded(len(idx), dstOff, func(int) float32 { return math.Float32frombits(canary) })
	mIn, xin, idxIn := append([]float32(nil), m.win()...), append([]float32(nil), x.win()...), append([]int32(nil), idx...)
	want := make([]float32, len(idx))
	for e, r := range idx {
		want[e] = oracleDot(xin, mIn[int(r)*ld:int(r)*ld+n])
	}
	gatherDotCols(dst.win(), x.win(), m.win(), ld, idx)
	mustSameBits(tb, "gatherDotCols dst", dst.win(), want)
	dst.intact(tb, "gatherDotCols dst", nil)
	x.intact(tb, "gatherDotCols x", xin)
	m.intact(tb, "gatherDotCols m", mIn)
	if !slices.Equal(idx, idxIn) {
		tb.Fatal("gatherDotCols changed idx")
	}
}

// checkGatherAccumCols: acc += w[e]·(row idx[e] of m) over 8·blocks
// columns, e ascending, ±0 weights left out when skip.
func checkGatherAccumCols(tb testing.TB, seed int64, blocks, ne, ldPad, rows, accOff, mOff, wOff int, skip bool) {
	needCols(tb)
	rng := rand.New(rand.NewSource(seed))
	m, ld, idx := gatherOperands(rng, blocks, ne, ldPad, rows, mOff)
	n := 8 * blocks
	w := newGuarded(len(idx), wOff, func(int) float32 {
		if rng.Intn(4) == 0 {
			return zeroOrSpecial(rng)
		}
		return float32(rng.NormFloat64())
	})
	acc := newGuarded(n, accOff, func(int) float32 { return float32(rng.NormFloat64()) })
	mIn, win, idxIn := append([]float32(nil), m.win()...), append([]float32(nil), w.win()...), append([]int32(nil), idx...)
	want := append([]float32(nil), acc.win()...)
	for e, r := range idx {
		if skip && win[e] == 0 {
			continue
		}
		for j := range want {
			want[j] += float32(win[e] * mIn[int(r)*ld+j])
		}
	}
	gatherAccumCols(acc.win(), m.win(), ld, w.win(), idx, skip)
	mustSameBits(tb, "gatherAccumCols acc", acc.win(), want)
	acc.intact(tb, "gatherAccumCols acc", nil)
	m.intact(tb, "gatherAccumCols m", mIn)
	w.intact(tb, "gatherAccumCols w", win)
	if !slices.Equal(idx, idxIn) {
		tb.Fatal("gatherAccumCols changed idx")
	}
}

// TestGatherWrappersStayInBounds sweeps the gather wrappers: 0 to 9 and 17
// column blocks (the accumulate's 64-, 32- and 8-column loops and their
// exits), entry counts around the dot kernel's groups of eight, matrices of
// one row and more, padded and unpadded rows, operands at every offset from
// the 32-byte boundary.
func TestGatherWrappersStayInBounds(t *testing.T) {
	seed := int64(0)
	for _, blocks := range []int{0, 1, 2, 3, 4, 5, 8, 9, 17} {
		for _, ne := range []int{0, 1, 7, 8, 9, 16, 21} {
			for _, rows := range []int{1, 3, 40} {
				for off := 0; off < 9; off += 2 {
					seed++
					ldPad := off % 4
					checkGatherDotCols(t, seed, blocks, ne, ldPad, rows, off, (off+3)%9, (off+5)%9)
					checkGatherAccumCols(t, seed, blocks, ne, ldPad, rows, off, (off+7)%9, (off+2)%9, off%3 == 0)
				}
			}
		}
	}
}

// TestSIMDWrappersStayInBounds is the deterministic sweep: every group/block
// count that exercises each kernel's 64-, 32- and 8-column loops and their
// exits, reduction depths around Dot's grouping, row strides with and
// without padding, and every operand at a different offset from the 32-byte
// boundary.
func TestSIMDWrappersStayInBounds(t *testing.T) {
	seed := int64(0)
	for _, g := range []int{0, 1, 2, 3, 4, 7, 8, 9, 16, 17, 33} {
		for off := 0; off < 9; off++ {
			seed++
			checkExpLanes(t, seed, g, off, (off+3)%9, off%2 == 1)
			checkGELULanes(t, seed, g, off, (off+5)%9, (off+7)%9)
			checkGELUGradLanes(t, seed, g, (off+2)%9, off, (off+4)%9)
			for _, k := range []int{0, 1, 3, 4, 5, 9} {
				for _, ldPad := range []int{0, 3} {
					for _, mode := range []accumMode{accumZeroSkip, accumLoadSkip, accumLoadKeep} {
						checkAccumCols(t, seed, g, k, 1+ldPad, ldPad, off, (off+1)%9, (off+6)%9, mode)
					}
					checkScatterCols(t, seed, g, k, ldPad, off, (off+2)%9, (off+5)%9)
					checkDotCols(t, seed, g, k, ldPad, (off+8)%9, off, (off+3)%9)
				}
			}
		}
	}
}

// The fuzz targets bound every dimension so one input stays in the
// microsecond range, and fold offsets into 0…15 elements.

func FuzzExpLanes(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(1), uint8(3), false)
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), true)
	f.Add(int64(3), uint8(64), uint8(7), uint8(15), true)
	f.Fuzz(func(t *testing.T, seed int64, groups, dstOff, srcOff uint8, inPlace bool) {
		checkExpLanes(t, seed, int(groups), int(dstOff%16), int(srcOff%16), inPlace)
	})
}

func FuzzGELULanes(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(1), uint8(3), uint8(2))
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(3), uint8(64), uint8(7), uint8(15), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, groups, yOff, uOff, bOff uint8) {
		checkGELULanes(t, seed, int(groups), int(yOff%16), int(uOff%16), int(bOff%16))
	})
}

func FuzzGELUGradLanes(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(1), uint8(3), uint8(2))
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(3), uint8(64), uint8(7), uint8(15), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, groups, dzOff, zOff, dyOff uint8) {
		checkGELUGradLanes(t, seed, int(groups), int(dzOff%16), int(zOff%16), int(dyOff%16))
	})
}

func FuzzAccumCols(f *testing.F) {
	f.Add(int64(1), uint8(9), uint8(5), uint8(1), uint8(0), uint8(1), uint8(2), uint8(3), uint8(0))
	f.Add(int64(2), uint8(0), uint8(0), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(1))
	f.Add(int64(3), uint8(13), uint8(17), uint8(6), uint8(5), uint8(7), uint8(15), uint8(9), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, blocks, k, stride, ldPad, cOff, aOff, bOff, mode uint8) {
		modes := []accumMode{accumZeroSkip, accumLoadSkip, accumLoadKeep}
		checkAccumCols(t, seed, int(blocks%20), int(k%40), 1+int(stride%8), int(ldPad%8),
			int(cOff%16), int(aOff%16), int(bOff%16), modes[int(mode)%len(modes)])
	})
}

func FuzzScatterCols(f *testing.F) {
	f.Add(int64(1), uint8(9), uint8(5), uint8(0), uint8(1), uint8(2), uint8(3))
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(3), uint8(1), uint8(33), uint8(5), uint8(7), uint8(15), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, blocks, nr, ldPad, rowsOff, wOff, xOff uint8) {
		checkScatterCols(t, seed, int(blocks%20), int(nr%40), int(ldPad%8), int(rowsOff%16), int(wOff%16), int(xOff%16))
	})
}

func FuzzDotCols(f *testing.F) {
	f.Add(int64(1), uint8(9), uint8(5), uint8(0), uint8(1), uint8(2), uint8(3))
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(3), uint8(1), uint8(33), uint8(5), uint8(7), uint8(15), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, blocks, k, ldPad, dstOff, xOff, btOff uint8) {
		checkDotCols(t, seed, int(blocks%20), int(k%40), int(ldPad%8), int(dstOff%16), int(xOff%16), int(btOff%16))
	})
}

func FuzzGatherDotCols(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(9), uint8(0), uint8(12), uint8(1), uint8(2), uint8(3))
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Add(int64(3), uint8(8), uint8(33), uint8(5), uint8(40), uint8(7), uint8(15), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, blocks, ne, ldPad, rows, dstOff, xOff, mOff uint8) {
		checkGatherDotCols(t, seed, int(blocks%20), int(ne%70), int(ldPad%8), 1+int(rows%64),
			int(dstOff%16), int(xOff%16), int(mOff%16))
	})
}

func FuzzGatherAccumCols(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(9), uint8(0), uint8(12), uint8(1), uint8(2), uint8(3), false)
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), uint8(1), uint8(0), uint8(0), uint8(0), true)
	f.Add(int64(3), uint8(13), uint8(33), uint8(5), uint8(40), uint8(7), uint8(15), uint8(9), true)
	f.Fuzz(func(t *testing.T, seed int64, blocks, ne, ldPad, rows, accOff, mOff, wOff uint8, skip bool) {
		checkGatherAccumCols(t, seed, int(blocks%20), int(ne%70), int(ldPad%8), 1+int(rows%64),
			int(accOff%16), int(mOff%16), int(wOff%16), skip)
	})
}
