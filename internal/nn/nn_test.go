package nn

import (
	"math"
	"math/rand"
	"testing"

	"torchgt/internal/tensor"
)

// fdCheck compares an analytic gradient against central finite differences of
// loss(w) for every element of w, with relative tolerance tol.
func fdCheck(t *testing.T, name string, w *tensor.Mat, analytic *tensor.Mat, loss func() float64, tol float64) {
	t.Helper()
	const eps = 1e-2
	for i := range w.Data {
		orig := w.Data[i]
		w.Data[i] = orig + eps
		lp := loss()
		w.Data[i] = orig - eps
		lm := loss()
		w.Data[i] = orig
		fd := (lp - lm) / (2 * eps)
		got := float64(analytic.Data[i])
		diff := math.Abs(fd - got)
		scale := math.Max(1, math.Max(math.Abs(fd), math.Abs(got)))
		if diff/scale > tol {
			t.Fatalf("%s grad[%d]: fd=%v analytic=%v", name, i, fd, got)
		}
	}
}

// weightedSum gives a deterministic scalar loss over an output matrix, whose
// gradient is exactly the weight matrix r.
func weightedSum(y *tensor.Mat, r *tensor.Mat) float64 {
	var s float64
	for i, v := range y.Data {
		s += float64(v) * float64(r.Data[i])
	}
	return s
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("l", 4, 3, true, rng)
	x := tensor.New(5, 4)
	tensor.RandN(x, rng, 1)
	r := tensor.New(5, 3)
	tensor.RandN(r, rng, 1)

	loss := func() float64 { return weightedSum(l.Forward(x), r) }
	loss() // populate cache
	ZeroGrads(l.Params())
	dx := l.Backward(r)

	fdCheck(t, "linear.W", l.W.W, l.W.Grad, loss, 1e-2)
	fdCheck(t, "linear.b", l.B.W, l.B.Grad, loss, 1e-2)
	fdCheck(t, "linear.x", x, dx, loss, 1e-2)
}

// TestLinearBackwardParamsMatchesBackward: the parameter-only backward of a
// first layer accumulates the same gradients, bit for bit, as Backward.
func TestLinearBackwardParamsMatchesBackward(t *testing.T) {
	for _, bias := range []bool{false, true} {
		rng := rand.New(rand.NewSource(3))
		a := NewLinear("a", 12, 8, bias, rng)
		b := NewLinear("b", 12, 8, bias, rand.New(rand.NewSource(3)))
		x, dy := tensor.New(9, 12), tensor.New(9, 8)
		tensor.RandN(x, rng, 1)
		tensor.RandN(dy, rng, 1)
		for step := 0; step < 2; step++ { // the second step accumulates onto the first
			a.Forward(x)
			b.Forward(x)
			a.Backward(dy)
			b.BackwardParams(dy)
		}
		for i, p := range a.Params() {
			for j, g := range p.Grad.Data {
				if math.Float32bits(g) != math.Float32bits(b.Params()[i].Grad.Data[j]) {
					t.Fatalf("bias=%v: %s grad[%d] = %v, want %v", bias, p.Name, j, b.Params()[i].Grad.Data[j], g)
				}
			}
		}
	}
}

func TestLinearNoBias(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear("l", 3, 2, false, rng)
	if len(l.Params()) != 1 {
		t.Fatal("no-bias linear must expose 1 param")
	}
	x := tensor.New(2, 3)
	tensor.RandN(x, rng, 1)
	y := l.Forward(x)
	if y.Rows != 2 || y.Cols != 2 {
		t.Fatal("shape wrong")
	}
}

func TestLayerNormGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ln := NewLayerNorm("ln", 6)
	tensor.RandN(ln.Gamma.W, rng, 0.5)
	for i := range ln.Gamma.W.Data {
		ln.Gamma.W.Data[i] += 1
	}
	tensor.RandN(ln.Beta.W, rng, 0.5)
	x := tensor.New(4, 6)
	tensor.RandN(x, rng, 2)
	r := tensor.New(4, 6)
	tensor.RandN(r, rng, 1)

	loss := func() float64 { return weightedSum(ln.Forward(x), r) }
	loss()
	ZeroGrads(ln.Params())
	dx := ln.Backward(r)

	fdCheck(t, "ln.gamma", ln.Gamma.W, ln.Gamma.Grad, loss, 2e-2)
	fdCheck(t, "ln.beta", ln.Beta.W, ln.Beta.Grad, loss, 2e-2)
	fdCheck(t, "ln.x", x, dx, loss, 2e-2)
}

func TestLayerNormNormalises(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ln := NewLayerNorm("ln", 8)
	x := tensor.New(3, 8)
	tensor.RandN(x, rng, 5)
	y := ln.Forward(x)
	for i := 0; i < y.Rows; i++ {
		var mean, sq float64
		for _, v := range y.Row(i) {
			mean += float64(v)
		}
		mean /= 8
		for _, v := range y.Row(i) {
			sq += (float64(v) - mean) * (float64(v) - mean)
		}
		if math.Abs(mean) > 1e-4 || math.Abs(sq/8-1) > 1e-3 {
			t.Fatalf("row %d not normalised: mean=%v var=%v", i, mean, sq/8)
		}
	}
}

func TestGELUGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := &GELU{}
	x := tensor.New(3, 4)
	tensor.RandN(x, rng, 1.5)
	r := tensor.New(3, 4)
	tensor.RandN(r, rng, 1)
	loss := func() float64 { return weightedSum(g.Forward(x), r) }
	loss()
	dx := g.Backward(r)
	fdCheck(t, "gelu.x", x, dx, loss, 2e-2)
}

func TestReLUForwardBackward(t *testing.T) {
	r := &ReLU{}
	x := tensor.FromSlice(1, 4, []float32{-1, 2, -3, 4})
	y := r.Forward(x)
	want := []float32{0, 2, 0, 4}
	for i, v := range y.Data {
		if v != want[i] {
			t.Fatalf("relu fwd wrong at %d", i)
		}
	}
	dy := tensor.FromSlice(1, 4, []float32{5, 6, 7, 8})
	dx := r.Backward(dy)
	wantdx := []float32{0, 6, 0, 8}
	for i, v := range dx.Data {
		if v != wantdx[i] {
			t.Fatalf("relu bwd wrong at %d", i)
		}
	}
}

func TestDropoutTrainEval(t *testing.T) {
	d := NewDropout(0.5, 1)
	x := tensor.New(10, 10)
	x.Fill(1)
	// eval mode: identity
	if y := d.Forward(x, false); !y.Equal(x, 0) {
		t.Fatal("eval dropout must be identity")
	}
	// train mode: some zeros, survivors scaled by 2
	y := d.Forward(x, true)
	zeros, twos := 0, 0
	for _, v := range y.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected value %v", v)
		}
	}
	if zeros == 0 || twos == 0 {
		t.Fatal("dropout mask degenerate")
	}
	// backward uses same mask
	dy := tensor.New(10, 10)
	dy.Fill(1)
	dx := d.Backward(dy)
	for i := range y.Data {
		if (y.Data[i] == 0) != (dx.Data[i] == 0) {
			t.Fatal("backward mask mismatch")
		}
	}
}

func TestEmbeddingForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e := NewEmbedding("e", 5, 3, rng)
	idx := []int32{1, 3, 1}
	y := e.Forward(idx)
	if y.Rows != 3 || y.Cols != 3 {
		t.Fatal("shape wrong")
	}
	for j := 0; j < 3; j++ {
		if y.At(0, j) != e.W.W.At(1, j) || y.At(2, j) != e.W.W.At(1, j) {
			t.Fatal("gather wrong")
		}
	}
	dy := tensor.New(3, 3)
	dy.Fill(1)
	ZeroGrads(e.Params())
	e.Backward(dy)
	// row 1 hit twice, row 3 once, others zero
	if e.W.Grad.At(1, 0) != 2 || e.W.Grad.At(3, 0) != 1 || e.W.Grad.At(0, 0) != 0 {
		t.Fatalf("scatter-add wrong: %v", e.W.Grad.Data)
	}
}

func TestEmbeddingPanicsOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEmbedding("e", 2, 2, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Forward([]int32{5})
}

func TestSoftmaxCrossEntropyGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	logits := tensor.New(6, 4)
	tensor.RandN(logits, rng, 1)
	labels := []int32{0, 1, 2, 3, 1, 2}
	mask := []bool{true, true, false, true, true, false}
	_, dl := SoftmaxCrossEntropy(logits, labels, mask)
	loss := func() float64 {
		l, _ := SoftmaxCrossEntropy(logits, labels, mask)
		return l
	}
	fdCheck(t, "xent", logits, dl, loss, 2e-2)
	// masked rows get zero grad
	for j := 0; j < 4; j++ {
		if dl.At(2, j) != 0 || dl.At(5, j) != 0 {
			t.Fatal("masked rows must have zero grad")
		}
	}
}

func TestSoftmaxCrossEntropyEmptyMask(t *testing.T) {
	logits := tensor.New(2, 3)
	l, dl := SoftmaxCrossEntropy(logits, []int32{0, 1}, []bool{false, false})
	if l != 0 || dl.MaxAbs() != 0 {
		t.Fatal("empty mask should give zero loss and grads")
	}
}

func TestMSEGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pred := tensor.New(5, 1)
	tensor.RandN(pred, rng, 1)
	targets := []float32{0.5, -1, 2, 0, 1}
	_, d := MSE(pred, targets)
	loss := func() float64 {
		l, _ := MSE(pred, targets)
		return l
	}
	fdCheck(t, "mse", pred, d, loss, 1e-2)
}

func TestMAEAndAccuracy(t *testing.T) {
	pred := tensor.FromSlice(2, 1, []float32{1, 3})
	if m := MAE(pred, []float32{2, 1}); math.Abs(m-1.5) > 1e-6 {
		t.Fatalf("MAE=%v", m)
	}
	logits := tensor.FromSlice(3, 2, []float32{1, 0, 0, 1, 1, 0})
	acc := Accuracy(logits, []int32{0, 1, 1}, nil)
	if math.Abs(acc-2.0/3.0) > 1e-9 {
		t.Fatalf("acc=%v", acc)
	}
	acc = Accuracy(logits, []int32{0, 1, 1}, []bool{true, true, false})
	if acc != 1.0 {
		t.Fatalf("masked acc=%v", acc)
	}
	if Accuracy(logits, []int32{0, 1, 1}, []bool{false, false, false}) != 0 {
		t.Fatal("empty mask accuracy must be 0")
	}
}

func TestAdamReducesQuadratic(t *testing.T) {
	// minimise ||w - c||² — Adam should converge close to c.
	p := NewParam("w", 1, 4)
	c := []float32{1, -2, 3, 0.5}
	opt := NewAdam(0.05)
	for step := 0; step < 500; step++ {
		for i := range p.W.Data {
			p.Grad.Data[i] = 2 * (p.W.Data[i] - c[i])
		}
		opt.Step([]*Param{p})
	}
	for i := range c {
		if math.Abs(float64(p.W.Data[i]-c[i])) > 1e-2 {
			t.Fatalf("adam did not converge: w[%d]=%v want %v", i, p.W.Data[i], c[i])
		}
	}
}

func TestAdamClipNorm(t *testing.T) {
	p := NewParam("w", 1, 2)
	p.Grad.Data[0] = 30
	p.Grad.Data[1] = 40 // norm 50
	opt := NewAdam(0.1)
	opt.ClipNorm = 5
	before := p.W.Clone()
	opt.Step([]*Param{p})
	// after clip, grad direction preserved; weight moved opposite to grad
	if !(p.W.Data[0] < before.Data[0] && p.W.Data[1] < before.Data[1]) {
		t.Fatal("clipped step should still descend")
	}
}

func TestAdamWeightDecay(t *testing.T) {
	p := NewParam("w", 1, 1)
	p.W.Data[0] = 10
	opt := NewAdam(0.0) // lr=0: only decay term (scaled by lr) — expect no change
	opt.WeightDecay = 0.1
	p.Grad.Data[0] = 0
	opt.Step([]*Param{p})
	if p.W.Data[0] != 10 {
		t.Fatal("lr=0 must freeze weights entirely")
	}
}

func TestCollectAndCount(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	l1 := NewLinear("a", 2, 3, true, rng)
	l2 := NewLinear("b", 3, 1, false, rng)
	ps := CollectParams(l1, l2)
	if len(ps) != 3 {
		t.Fatalf("params=%d", len(ps))
	}
	if NumParams(l1, l2) != 2*3+3+3*1 {
		t.Fatalf("count=%d", NumParams(l1, l2))
	}
}
