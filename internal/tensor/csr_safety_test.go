package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Memory-safety checks of the row-block wrappers (pairDots, csrAccum,
// expSeg, tileDots, tileAccum), in the form of simd_safety_test.go: every
// operand a window into a canary slab at an odd offset, the output held to
// a plain-loop oracle, nothing outside a window touched. One sweep, and one
// fuzz target per wrapper.

func weightInput(rng *rand.Rand) float32 {
	if rng.Intn(4) == 0 {
		return zeroOrSpecial(rng)
	}
	return float32(rng.NormFloat64())
}

// gatherOperands draws the operands of the indexed-row wrappers: an m of
// rows rows of 8·blocks columns, ld = columns + ldPad apart, and ne row
// indices into it (repeats, any order).
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

// checkPairDots: dst[e] = Dot(row ai[e] of a, row bi[e] of b) over 8·blocks
// columns for 4·groups entries.
func checkPairDots(tb testing.TB, seed int64, blocks, groups, ldPad, rows, dstOff, aOff, bOff int) {
	needCols(tb)
	rng := rand.New(rand.NewSource(seed))
	n, ne := 8*blocks, 4*groups
	a, ld, ai := gatherOperands(rng, blocks, ne, ldPad, rows, aOff)
	b, _, bi := gatherOperands(rng, blocks, ne, ldPad, rows, bOff)
	dst := newGuarded(ne, dstOff, func(int) float32 { return math.Float32frombits(canary) })
	aIn, bIn := slices.Clone(a.win()), slices.Clone(b.win())
	aiIn, biIn := slices.Clone(ai), slices.Clone(bi)
	want := make([]float32, ne)
	for e := range want {
		want[e] = oracleDot(aIn[int(ai[e])*ld:int(ai[e])*ld+n], bIn[int(bi[e])*ld:int(bi[e])*ld+n])
	}
	pairDots(dst.win(), a.win(), ld, ai, rows-1, b.win(), ld, bi, rows-1, n)
	mustSameBits(tb, "pairDots dst", dst.win(), want)
	dst.intact(tb, "pairDots dst", nil)
	a.intact(tb, "pairDots a", aIn)
	b.intact(tb, "pairDots b", bIn)
	if !slices.Equal(ai, aiIn) || !slices.Equal(bi, biIn) {
		tb.Fatal("pairDots changed an index")
	}
}

// checkCSRAccum: rows 1…nrows of a CSR over rows rows of m add their
// entries' weighted rows to acc rows ldacc apart, 8·blocks columns.
func checkCSRAccum(tb testing.TB, seed int64, blocks, nrows, ldPad, rows, accOff, mOff, wOff int) {
	needCols(tb)
	rng := rand.New(rand.NewSource(seed))
	n := 8 * blocks
	m, ld, _ := gatherOperands(rng, blocks, 0, ldPad, rows, mOff)
	ptr, idx := []int32{0}, []int32(nil)
	for range nrows + 2 {
		for range csrLens[rng.Intn(len(csrLens))] {
			idx = append(idx, int32(rng.Intn(rows)))
		}
		ptr = append(ptr, int32(len(idx)))
	}
	sub := ptr[1 : nrows+2]
	w := newGuarded(len(idx), wOff, func(int) float32 { return weightInput(rng) })
	ldacc := n + (ldPad+1)%4
	acc := newGuarded((nrows-1)*ldacc+n, accOff, func(int) float32 { return float32(rng.NormFloat64()) })
	mIn, wIn, idxIn := slices.Clone(m.win()), slices.Clone(w.win()), slices.Clone(idx)
	want := slices.Clone(acc.win())
	for t := range nrows {
		for e := sub[t]; e < sub[t+1]; e++ {
			for j := range n {
				want[t*ldacc+j] += float32(wIn[e] * mIn[int(idx[e])*ld+j])
			}
		}
	}
	csrAccum(acc.win(), ldacc, m.win(), ld, w.win(), idx, sub, rows-1, n)
	mustSameBits(tb, "csrAccum acc", acc.win(), want)
	acc.intact(tb, "csrAccum acc", nil)
	m.intact(tb, "csrAccum m", mIn)
	w.intact(tb, "csrAccum w", wIn)
	if !slices.Equal(idx, idxIn) {
		tb.Fatal("csrAccum changed idx")
	}
}

// checkExpSeg: expLanes over 4·groups elements, element i shifted by
// shift[row[i]] for rows in any order among nseg.
func checkExpSeg(tb testing.TB, seed int64, groups, nseg, dstOff, srcOff, shOff int, inPlace bool) {
	needLanes(tb)
	rng := rand.New(rand.NewSource(seed))
	n := 4 * groups
	cut := []float32{negInf32, -80, -2}[rng.Intn(3)]
	src := newGuarded(n, srcOff, func(int) float32 { return mathInput(rng) })
	shift := newGuarded(nseg, shOff, func(int) float32 { return mathInput(rng) / 4 })
	row := make([]int32, n)
	for i := range row {
		row[i] = int32(rng.Intn(nseg))
	}
	in, shIn := slices.Clone(src.win()), slices.Clone(shift.win())
	dst := newGuarded(n, dstOff, func(int) float32 { return math.Float32frombits(canary) })
	if inPlace {
		dst = src
	}
	k := expSeg(dst.win(), src.win(), row, nseg-1, shift.win(), cut)
	if k < 0 || k > n || k%4 != 0 {
		tb.Fatalf("expSeg returned %d of %d", k, n)
	}
	want := slices.Clone(in) // past k nothing may be written
	if !inPlace {
		for i := k; i < n; i++ {
			want[i] = math.Float32frombits(canary)
		}
	}
	for i := range k {
		want[i] = wantExp(in[i], shIn[row[i]], cut)
	}
	mustSameBits(tb, "expSeg dst", dst.win(), want)
	dst.intact(tb, "expSeg dst", nil)
	shift.intact(tb, "expSeg shift", shIn)
	if !inPlace {
		src.intact(tb, "expSeg src", in)
	}
	if k < n {
		stop := false
		for i := k; i < k+4; i++ {
			x := in[i] + shIn[row[i]]
			stop = stop || (!(x <= cut) && !(x > -708 && x < 709))
		}
		if !stop {
			tb.Fatalf("expSeg stopped at %d in front of in-range lanes", k)
		}
	}
}

// checkTileDots: dst[r·ld+c] = Dot(row r of x, row c of m) for nr rows and
// 8·kb keys over 8·blocks columns.
func checkTileDots(tb testing.TB, seed int64, blocks, kb, nr, ldPad, dstOff, xOff, mOff int) {
	needCols(tb)
	rng := rand.New(rand.NewSource(seed))
	n, nc := 8*blocks, 8*kb
	ldx, ldm, ld := n+ldPad, n+(ldPad+3)%5, nc+ldPad%3
	x := newGuarded((nr-1)*ldx+n, xOff, func(int) float32 { return flashInput(rng) })
	m := newGuarded((nc-1)*ldm+n, mOff, func(int) float32 { return flashInput(rng) })
	dst := newGuarded((nr-1)*ld+nc, dstOff, func(int) float32 { return math.Float32frombits(canary) })
	xIn, mIn := slices.Clone(x.win()), slices.Clone(m.win())
	want := slices.Clone(dst.win())
	for r := range nr {
		for c := range nc {
			want[r*ld+c] = oracleDot(xIn[r*ldx:r*ldx+n], mIn[c*ldm:c*ldm+n])
		}
	}
	tileDots(dst.win(), ld, x.win(), ldx, nr, m.win(), ldm, nc, n)
	mustSameBits(tb, "tileDots dst", dst.win(), want)
	dst.intact(tb, "tileDots dst", nil)
	x.intact(tb, "tileDots x", xIn)
	m.intact(tb, "tileDots m", mIn)
}

// checkTileAccum: acc row r += Σ_c w[r·ldwr+c·ldwc]·(row c of m) for nr rows
// and nc keys over 8·blocks columns, the weights read row-major or
// transposed.
func checkTileAccum(tb testing.TB, seed int64, blocks, nr, nc, ldPad, accOff, wOff, mOff int, transposed, keep bool) {
	needCols(tb)
	rng := rand.New(rand.NewSource(seed))
	n := 8 * blocks
	ldacc, ldm := n+ldPad, n+(ldPad+2)%5
	ldwr, ldwc := nc+ldPad%3, 1
	if transposed {
		ldwr, ldwc = 1, nr+ldPad%3
	}
	nw, nm := 0, 0
	if nc > 0 {
		nw, nm = (nr-1)*ldwr+(nc-1)*ldwc+1, (nc-1)*ldm+n
	}
	acc := newGuarded((nr-1)*ldacc+n, accOff, func(int) float32 { return float32(rng.NormFloat64()) })
	w := newGuarded(nw, wOff, func(int) float32 { return weightInput(rng) })
	m := newGuarded(nm, mOff, func(int) float32 { return flashInput(rng) })
	wIn, mIn := slices.Clone(w.win()), slices.Clone(m.win())
	want := slices.Clone(acc.win())
	for r := range nr {
		for c := range nc {
			if wc := wIn[r*ldwr+c*ldwc]; keep || wc != 0 {
				for j := range n {
					want[r*ldacc+j] += float32(wc * mIn[c*ldm+j])
				}
			}
		}
	}
	tileAccum(acc.win(), ldacc, w.win(), ldwr, ldwc, m.win(), ldm, nr, nc, n, keep)
	mustSameBits(tb, "tileAccum acc", acc.win(), want)
	acc.intact(tb, "tileAccum acc", nil)
	w.intact(tb, "tileAccum w", wIn)
	m.intact(tb, "tileAccum m", mIn)
}

// TestRowBlockWrappersStayInBounds sweeps the row-block wrappers: column
// blocks around the accumulate's 32- and 8-column loops, entry counts around
// the dot kernel's groups of eight, the tile kernels' row groups of four and
// key blocks past one stack buffer of transposed keys, padded and unpadded
// strides, operands at every offset from the 32-byte boundary.
func TestRowBlockWrappersStayInBounds(t *testing.T) {
	seed := int64(0)
	for _, blocks := range []int{1, 2, 4, 5, 17} {
		for off := 0; off < 9; off += 2 {
			seed++
			ldPad := off % 4
			for _, groups := range []int{1, 2, 3, 9} {
				checkPairDots(t, seed, blocks, groups, ldPad, 1+off*5, off, (off+3)%9, (off+5)%9)
				checkExpSeg(t, seed, groups*blocks, 1+off, off, (off+1)%9, (off+2)%9, off%3 == 0)
			}
			for _, nrows := range []int{1, 2, 9} {
				checkCSRAccum(t, seed, blocks, nrows, ldPad, 1+off*5, off, (off+4)%9, (off+7)%9)
			}
			for _, nr := range []int{1, 3, 4, 5, 16} {
				for _, kb := range []int{1, 2, 3} {
					checkTileDots(t, seed, blocks, kb, nr, ldPad, off, (off+2)%9, (off+6)%9)
				}
				for _, nc := range []int{0, 1, 5, 16} {
					checkTileAccum(t, seed, blocks, nr, nc, ldPad, off, (off+1)%9, (off+3)%9, nr%2 == 0, off%3 != 2)
				}
			}
		}
	}
}

func FuzzPairDots(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(3), uint8(0), uint8(12), uint8(1), uint8(2), uint8(3))
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(3), uint8(8), uint8(17), uint8(5), uint8(40), uint8(7), uint8(15), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, blocks, groups, ldPad, rows, dstOff, aOff, bOff uint8) {
		checkPairDots(t, seed, 1+int(blocks%20), 1+int(groups%20), int(ldPad%8), 1+int(rows%64),
			int(dstOff%16), int(aOff%16), int(bOff%16))
	})
}

func FuzzCSRAccum(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(3), uint8(0), uint8(12), uint8(1), uint8(2), uint8(3))
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(3), uint8(13), uint8(17), uint8(5), uint8(40), uint8(7), uint8(15), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, blocks, nrows, ldPad, rows, accOff, mOff, wOff uint8) {
		checkCSRAccum(t, seed, 1+int(blocks%20), 1+int(nrows%24), int(ldPad%8), 1+int(rows%64),
			int(accOff%16), int(mOff%16), int(wOff%16))
	})
}

func FuzzExpSeg(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(3), uint8(1), uint8(3), uint8(2), false)
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), true)
	f.Add(int64(3), uint8(64), uint8(40), uint8(7), uint8(15), uint8(9), true)
	f.Fuzz(func(t *testing.T, seed int64, groups, nseg, dstOff, srcOff, shOff uint8, inPlace bool) {
		checkExpSeg(t, seed, int(groups), 1+int(nseg%64), int(dstOff%16), int(srcOff%16), int(shOff%16), inPlace)
	})
}

func FuzzTileDots(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(2), uint8(16), uint8(0), uint8(1), uint8(2), uint8(3))
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(3), uint8(17), uint8(5), uint8(7), uint8(5), uint8(7), uint8(15), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, blocks, kb, nr, ldPad, dstOff, xOff, mOff uint8) {
		checkTileDots(t, seed, 1+int(blocks%20), 1+int(kb%6), 1+int(nr%24), int(ldPad%8),
			int(dstOff%16), int(xOff%16), int(mOff%16))
	})
}

func FuzzTileAccum(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(16), uint8(16), uint8(0), uint8(1), uint8(2), uint8(3), false, true)
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), true, false)
	f.Add(int64(3), uint8(13), uint8(7), uint8(33), uint8(5), uint8(7), uint8(15), uint8(9), true, true)
	f.Fuzz(func(t *testing.T, seed int64, blocks, nr, nc, ldPad, accOff, wOff, mOff uint8, transposed, keep bool) {
		checkTileAccum(t, seed, 1+int(blocks%20), 1+int(nr%24), int(nc%40), int(ldPad%8),
			int(accOff%16), int(wOff%16), int(mOff%16), transposed, keep)
	})
}
