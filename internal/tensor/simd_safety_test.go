package tensor

import (
	"math"
	"math/rand"
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
		if mode == accumZero {
			want[j] = 0
		}
		for p := 0; p < k; p++ {
			if av := ain[p*stride]; av != 0 {
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

// checkFlashDots: flashDots over n key rows of a dh-wide m, ld = dh + ldPad
// apart, in the given mode, against flashDotsGo on a compact copy of m.
func checkFlashDots(tb testing.TB, seed int64, n, dh, ldPad int, mode uintptr, dstOff, xOff, mOff, aOff, bOff int) {
	needCols(tb)
	const R = FlashRows
	rng := rand.New(rand.NewSource(seed))
	ld := dh + ldPad
	mLen := 0
	if n > 0 && dh > 0 {
		mLen = (n-1)*ld + dh
	}
	rnd := func(int) float32 { return float32(rng.NormFloat64()) }
	xT := newGuarded(dh*R, xOff, rnd)
	m := newGuarded(mLen, mOff, rnd)
	a := newGuarded(R, aOff, rnd)
	b := newGuarded(map[uintptr]int{dotsMax: R, dotsShift: 0, dotsDS: n * R}[mode], bOff, rnd)
	dst := newGuarded(n*R, dstOff, func(int) float32 { return math.Float32frombits(canary) })
	xin, mIn := append([]float32(nil), xT.win()...), append([]float32(nil), m.win()...)
	ain, bin := append([]float32(nil), a.win()...), append([]float32(nil), b.win()...)
	scale := float32(0.35)
	compact := New(n, dh)
	for j := 0; j < n && dh > 0; j++ {
		copy(compact.Row(j), mIn[j*ld:j*ld+dh])
	}
	want, wantA, wantB := make([]float32, n*R), append([]float32(nil), ain...), append([]float32(nil), bin...)
	flashDotsGo(want, xin, compact, 0, n, scale, mode, wantA, wantB)
	flashDots(dst.win(), xT.win(), m.win(), ld, n, dh, scale, mode, a.win(), b.win())
	mustSameBits(tb, "flashDots dst", dst.win(), want)
	dst.intact(tb, "flashDots dst", nil)
	xT.intact(tb, "flashDots xT", xin)
	m.intact(tb, "flashDots m", mIn)
	if mode == dotsMax {
		mustSameBits(tb, "flashDots a", a.win(), wantA)
		mustSameBits(tb, "flashDots b", b.win(), wantB)
		a.intact(tb, "flashDots a", nil)
		b.intact(tb, "flashDots b", nil)
	} else {
		a.intact(tb, "flashDots a", ain)
		b.intact(tb, "flashDots b", bin)
	}
}

// checkFlashAccum: flashAccum over n key rows of a dv-wide v (dv ≥ 1),
// ld = dv + ldPad apart, with and without l and corr, against flashAccumGo
// on a compact copy of v.
func checkFlashAccum(tb testing.TB, seed int64, n, dv, ldPad int, withL, withCorr bool, accOff, lOff, wOff, vOff, cOff int) {
	needCols(tb)
	const R = FlashRows
	rng := rand.New(rand.NewSource(seed))
	ld := dv + ldPad
	vLen := 0
	if n > 0 {
		vLen = (n-1)*ld + dv
	}
	rnd := func(int) float32 { return float32(rng.NormFloat64()) }
	accT := newGuarded(dv*R, accOff, rnd)
	w := newGuarded(n*R, wOff, rnd)
	v := newGuarded(vLen, vOff, rnd)
	l, corr := newGuarded(R, lOff, rnd), newGuarded(R, cOff, rnd)
	win, vin, cin := append([]float32(nil), w.win()...), append([]float32(nil), v.win()...), append([]float32(nil), corr.win()...)
	compact := New(n, dv)
	for j := 0; j < n; j++ {
		copy(compact.Row(j), vin[j*ld:j*ld+dv])
	}
	wantAcc, wantL := append([]float32(nil), accT.win()...), append([]float32(nil), l.win()...)
	var lArg, cArg, wantLArg, wantCArg []float32
	if withL {
		lArg, wantLArg = l.win(), wantL
	}
	if withCorr {
		cArg, wantCArg = corr.win(), cin
	}
	flashAccumGo(wantAcc, wantLArg, win, compact, 0, n, wantCArg)
	flashAccum(accT.win(), lArg, w.win(), v.win(), ld, n, dv, cArg)
	mustSameBits(tb, "flashAccum accT", accT.win(), wantAcc)
	mustSameBits(tb, "flashAccum l", l.win(), wantL)
	accT.intact(tb, "flashAccum accT", nil)
	l.intact(tb, "flashAccum l", nil)
	w.intact(tb, "flashAccum w", win)
	v.intact(tb, "flashAccum v", vin)
	corr.intact(tb, "flashAccum corr", cin)
}

// checkFlashScatter: flashScatter of nr rows (ldx = columns + xPad apart)
// into n key rows (ldm = columns + mPad apart) over 8·blocks columns; w is
// exactly as long as the last key's nr lanes, and the padding between rows
// must not move.
func checkFlashScatter(tb testing.TB, seed int64, blocks, n, nr, mPad, xPad, mOff, wOff, xOff int) {
	needCols(tb)
	const R = FlashRows
	rng := rand.New(rand.NewSource(seed))
	cols := 8 * blocks
	ldm, ldx := cols+mPad, cols+xPad
	mLen, wLen, xLen := 0, 0, 0
	if n > 0 && nr > 0 && cols > 0 {
		mLen, wLen, xLen = (n-1)*ldm+cols, (n-1)*R+nr, (nr-1)*ldx+cols
	}
	rnd := func(int) float32 { return float32(rng.NormFloat64()) }
	m := newGuarded(mLen, mOff, rnd)
	w := newGuarded(wLen, wOff, rnd)
	x := newGuarded(xLen, xOff, rnd)
	win, xin := append([]float32(nil), w.win()...), append([]float32(nil), x.win()...)
	want := append([]float32(nil), m.win()...)
	if mLen > 0 {
		for j := 0; j < n; j++ {
			for r := 0; r < nr; r++ {
				for c := 0; c < cols; c++ {
					want[j*ldm+c] += float32(win[j*R+r] * xin[r*ldx+c])
				}
			}
		}
	}
	flashScatter(m.win(), ldm, w.win(), x.win(), ldx, nr, n, cols)
	mustSameBits(tb, "flashScatter m", m.win(), want)
	m.intact(tb, "flashScatter m", nil)
	w.intact(tb, "flashScatter w", win)
	x.intact(tb, "flashScatter x", xin)
}

// TestFlashWrappersStayInBounds sweeps the flash wrappers: key counts 0 to
// 9 and 65, head widths around Dot's groups of four and the register path
// at 8, every dots mode, value widths crossing the eight-column blocks of
// the accumulate, row counts 1 to 8 (the scatter's register path at 8),
// padded and unpadded rows, operands at every offset from the 32-byte
// boundary.
func TestFlashWrappersStayInBounds(t *testing.T) {
	seed := int64(0)
	for _, n := range []int{0, 1, 2, 3, 7, 9, 65} {
		for _, dh := range []int{0, 1, 4, 5, 8, 9, 17} {
			for off := 0; off < 9; off += 2 {
				seed++
				ldPad := off % 3
				for _, mode := range []uintptr{dotsMax, dotsShift, dotsDS} {
					checkFlashDots(t, seed, n, dh, ldPad, mode, off, (off+1)%9, (off+3)%9, (off+5)%9, (off+7)%9)
				}
				if dh > 0 {
					checkFlashAccum(t, seed, n, dh, ldPad, off%4 < 2, off%3 == 0, off, (off+2)%9, (off+4)%9, (off+6)%9, (off+8)%9)
				}
				for _, nr := range []int{1, 5, 8} {
					checkFlashScatter(t, seed, dh/4, n, nr, ldPad, (ldPad+1)%3, (off+1)%9, off, (off+4)%9)
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
					for _, mode := range []accumMode{accumZero, accumLoad} {
						checkAccumCols(t, seed, g, k, 1+ldPad, ldPad, off, (off+1)%9, (off+6)%9, mode)
					}
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
		modes := []accumMode{accumZero, accumLoad}
		checkAccumCols(t, seed, int(blocks%20), int(k%40), 1+int(stride%8), int(ldPad%8),
			int(cOff%16), int(aOff%16), int(bOff%16), modes[int(mode)%len(modes)])
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

func FuzzFlashDots(f *testing.F) {
	f.Add(int64(1), uint8(9), uint8(8), uint8(0), uint8(0), uint8(1), uint8(2), uint8(3), uint8(4), uint8(5))
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(3), uint8(65), uint8(13), uint8(5), uint8(2), uint8(7), uint8(15), uint8(9), uint8(11), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, n, dh, ldPad, mode, dstOff, xOff, mOff, aOff, bOff uint8) {
		checkFlashDots(t, seed, int(n%80), int(dh%24), int(ldPad%8), uintptr(mode%3),
			int(dstOff%16), int(xOff%16), int(mOff%16), int(aOff%16), int(bOff%16))
	})
}

func FuzzFlashAccum(f *testing.F) {
	f.Add(int64(1), uint8(9), uint8(8), uint8(0), true, true, uint8(1), uint8(2), uint8(3), uint8(4), uint8(5))
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), false, false, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(3), uint8(65), uint8(18), uint8(5), true, false, uint8(7), uint8(15), uint8(9), uint8(11), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, n, dv, ldPad uint8, withL, withCorr bool, accOff, lOff, wOff, vOff, cOff uint8) {
		checkFlashAccum(t, seed, int(n%80), 1+int(dv%24), int(ldPad%8), withL, withCorr,
			int(accOff%16), int(lOff%16), int(wOff%16), int(vOff%16), int(cOff%16))
	})
}

func FuzzFlashScatter(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(9), uint8(8), uint8(0), uint8(0), uint8(1), uint8(2), uint8(3))
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(3), uint8(3), uint8(65), uint8(5), uint8(5), uint8(3), uint8(7), uint8(15), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, blocks, n, nr, mPad, xPad, mOff, wOff, xOff uint8) {
		checkFlashScatter(t, seed, int(blocks%6), int(n%80), 1+int(nr%FlashRows), int(mPad%8), int(xPad%8),
			int(mOff%16), int(wOff%16), int(xOff%16))
	})
}
