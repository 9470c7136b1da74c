package nn

import (
	"math"
	"math/rand"
	"testing"

	"torchgt/internal/tensor"
)

// The fused ForwardGELU/BackwardGELU pair must be bitwise identical to the
// unfused Forward → GELU → backward chain it replaced in model.Block —
// weights, bias gradients and input gradients included.
func TestLinearFusedGELUMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	mk := func() *Linear { return NewLinear("fc", 11, 17, true, rand.New(rand.NewSource(5))) }
	lFused, lUnfused := mk(), mk()

	x := tensor.New(9, 11)
	tensor.RandN(x, rng, 1)
	dy := tensor.New(9, 17)
	tensor.RandN(dy, rng, 1)

	var act GELU
	yU := act.Forward(lUnfused.Forward(x))
	dxU := lUnfused.Backward(act.Backward(dy.Clone()))

	yF := lFused.ForwardGELU(x)
	dxF := lFused.BackwardGELU(dy.Clone())

	mustBitwise := func(name string, a, b *tensor.Mat) {
		t.Helper()
		if !a.SameShape(b) {
			t.Fatalf("%s: shape mismatch", name)
		}
		for i := range a.Data {
			if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
				t.Fatalf("%s: element %d differs: %v vs %v", name, i, a.Data[i], b.Data[i])
			}
		}
	}
	mustBitwise("y", yF, yU)
	mustBitwise("dx", dxF, dxU)
	mustBitwise("dW", lFused.W.Grad, lUnfused.W.Grad)
	mustBitwise("db", lFused.B.Grad, lUnfused.B.Grad)
}

func TestLinearForwardGELURequiresBias(t *testing.T) {
	l := NewLinear("nb", 4, 4, false, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for biasless fused forward")
		}
	}()
	l.ForwardGELU(tensor.New(2, 4))
}
