package nn

import (
	"math"
	"math/rand"
	"testing"

	"torchgt/internal/tensor"
)

// relay is a GradChain for one "rank" of a chain run in sequence inside one
// goroutine: values a rank passes are queued for the next rank to continue,
// in order, as the transport would deliver them.
type relay struct {
	in, out *[][]float32 // nil in: first rank; nil out: last rank
}

func (r relay) Continue(run []float32) {
	if r.in == nil {
		return
	}
	copy(run, (*r.in)[0])
	*r.in = (*r.in)[1:]
}

func (r relay) Pass(run []float32) bool {
	if r.out == nil {
		return true
	}
	*r.out = append(*r.out, append([]float32(nil), run...))
	return false
}

// splits lists ways of cutting n rows into up to four consecutive shards,
// empty ones included.
func splits(n int) [][]int {
	h := n / 2
	return [][]int{{n}, {0, n}, {n, n}, {h, n}, {1, n}, {n % 2, h, h, n}, {1, h | 1, n - 1, n}, {h, h + 1, n, n}}
}

func bitsEqual(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d]: %v (%#x), serial %v (%#x)", what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// chainLayers runs backward shard by shard: build makes a fresh layer with
// the serial layer's weights, and run drives its forward+backward over rows
// [lo, hi) and returns its parameters. It returns the last shard's
// gradients — where the chain completes.
func chainLayers(cuts []int, build func(c GradChain) func(lo, hi int) []*Param) []*Param {
	var last []*Param
	var link *[][]float32
	lo := 0
	for i, hi := range cuts {
		r := relay{in: link}
		if i < len(cuts)-1 {
			link = new([][]float32)
			r.out = link
		}
		last = build(r)(lo, hi)
		lo = hi
	}
	return last
}

// TestLinearChainBitwise: the weight gradient (TMatMul), the bias gradient
// (ColSum) and the fused GELU bias gradient, continued across row shards,
// land on the last shard bit for bit as the serial backward — accumulating
// onto a non-zero gradient, as a second backward before the step does.
func TestLinearChainBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n, in, out = 11, 6, 9
	x := tensor.New(n, in)
	tensor.RandN(x, rng, 1)
	for i := range x.Data {
		if rng.Intn(5) == 0 {
			x.Data[i] = math.Float32frombits(uint32(rng.Intn(2)) << 31) // ±0: the zero-skip
		}
	}
	dy := tensor.New(n, out)
	tensor.RandN(dy, rng, 1)
	seed := tensor.New(in, out)
	tensor.RandN(seed, rng, 1)
	for _, gelu := range []bool{false, true} {
		mk := func(c GradChain) (*Linear, func(lo, hi int) []*Param) {
			l := NewLinear("l", in, out, true, rand.New(rand.NewSource(72)))
			copy(l.W.Grad.Data, seed.Data)
			copy(l.B.Grad.Data, seed.Data)
			l.SetChain(c)
			return l, func(lo, hi int) []*Param {
				if gelu {
					l.ForwardGELU(x.SliceRows(lo, hi))
					l.BackwardGELU(dy.SliceRows(lo, hi))
				} else {
					l.Forward(x.SliceRows(lo, hi))
					l.Backward(dy.SliceRows(lo, hi))
				}
				return l.Params()
			}
		}
		_, serial := mk(nil)
		want := serial(0, n)
		for _, cuts := range splits(n) {
			got := chainLayers(cuts, func(c GradChain) func(lo, hi int) []*Param { _, run := mk(c); return run })
			bitsEqual(t, "dW", got[0].Grad.Data, want[0].Grad.Data)
			bitsEqual(t, "db", got[1].Grad.Data, want[1].Grad.Data)
		}
	}
}

// TestLayerNormChainBitwise: dγ/dβ continued across row shards.
func TestLayerNormChainBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	const n, dim = 10, 7
	x := tensor.New(n, dim)
	tensor.RandN(x, rng, 2)
	dy := tensor.New(n, dim)
	tensor.RandN(dy, rng, 1)
	mk := func(c GradChain) func(lo, hi int) []*Param {
		ln := NewLayerNorm("ln", dim)
		ln.SetChain(c)
		return func(lo, hi int) []*Param {
			ln.Forward(x.SliceRows(lo, hi))
			ln.Backward(dy.SliceRows(lo, hi))
			return ln.Params()
		}
	}
	want := mk(nil)(0, n)
	for _, cuts := range splits(n) {
		got := chainLayers(cuts, mk)
		bitsEqual(t, "dgamma", got[0].Grad.Data, want[0].Grad.Data)
		bitsEqual(t, "dbeta", got[1].Grad.Data, want[1].Grad.Data)
	}
}

// TestEmbeddingChainBitwise: the scatter-add continued across row shards,
// with indices that repeat across shards (the order within a table row is
// the row order of the sequence).
func TestEmbeddingChainBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	const n, num, dim = 13, 4, 5
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(rng.Intn(num))
	}
	dy := tensor.New(n, dim)
	tensor.RandN(dy, rng, 1)
	mk := func(c GradChain) func(lo, hi int) []*Param {
		e := NewEmbedding("e", num, dim, rand.New(rand.NewSource(75)))
		e.SetChain(c)
		return func(lo, hi int) []*Param {
			e.Forward(idx[lo:hi])
			e.Backward(dy.SliceRows(lo, hi))
			return e.Params()
		}
	}
	want := mk(nil)(0, n)
	for _, cuts := range splits(n) {
		bitsEqual(t, "dE", chainLayers(cuts, mk)[0].Grad.Data, want[0].Grad.Data)
	}
}

// TestDropoutWindowMatchesSerialRows: a layer told it holds rows [lo, hi) of
// an n-row sequence applies exactly the serial mask's rows lo..hi, forward
// and backward, and leaves RNGDraws where the serial layer's is — for every
// window, empty ones included, over two consecutive steps.
func TestDropoutWindowMatchesSerialRows(t *testing.T) {
	const n, cols = 9, 5
	x := tensor.New(n, cols)
	dy := tensor.New(n, cols)
	for i := range x.Data {
		x.Data[i] = float32(i + 1)
		dy.Data[i] = float32(2*i + 1)
	}
	for lo := 0; lo <= n; lo++ {
		for hi := lo; hi <= n; hi++ {
			serial, win := NewDropout(0.3, 81), NewDropout(0.3, 81)
			win.SetWindow(lo, n)
			for step := 0; step < 2; step++ {
				wantY := serial.Forward(x, true)
				wantDx := serial.Backward(dy)
				gotY := win.Forward(x.SliceRows(lo, hi), true)
				gotDx := win.Backward(dy.SliceRows(lo, hi))
				bitsEqual(t, "y", gotY.Data, wantY.SliceRows(lo, hi).Data)
				bitsEqual(t, "dx", gotDx.Data, wantDx.SliceRows(lo, hi).Data)
				if win.RNGDraws() != serial.RNGDraws() {
					t.Fatalf("window [%d,%d) step %d: %d draws, serial %d", lo, hi, step, win.RNGDraws(), serial.RNGDraws())
				}
			}
		}
	}
	// Clearing the window restores the whole-sequence layer.
	d, ref := NewDropout(0.3, 82), NewDropout(0.3, 82)
	d.SetWindow(2, n)
	d.SetWindow(0, 0)
	bitsEqual(t, "cleared", d.Forward(x, true).Data, ref.Forward(x, true).Data)
}
