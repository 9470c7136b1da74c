package nn

import (
	"math/rand"

	"torchgt/internal/tensor"
)

// Dropout zeroes activations with probability P during training (inverted
// dropout: survivors scaled by 1/(1−P)).
type Dropout struct {
	P    float64
	rng  *rand.Rand
	src  *CountedSource
	mask []float32

	winLo, winRows int // SetWindow; winRows == 0: the input is the whole sequence
}

// NewDropout constructs a dropout layer with its own RNG stream. The stream
// is draw-counted so training checkpoints can serialise and restore the
// layer's exact position in it (see CountedSource).
func NewDropout(p float64, seed int64) *Dropout {
	rng, src := NewCountedRand(seed)
	return &Dropout{P: p, rng: rng, src: src}
}

// RNGDraws reports how many RNG draws the layer has consumed — the layer's
// serialisable stream position.
func (d *Dropout) RNGDraws() uint64 { return d.src.Draws() }

// SeekRNG fast-forwards a freshly built layer to stream position n, so the
// next mask it draws is bitwise identical to the one an uninterrupted run
// would have drawn.
func (d *Dropout) SeekRNG(n uint64) { d.src.Seek(n) }

// SetWindow declares that the inputs of the following Forward calls are rows
// [lo, lo+x.Rows) of a sequence of rows rows (rows == 0: the whole sequence,
// the default). The layer still consumes the mask stream of the whole
// sequence — one draw per element, those outside the window discarded — so
// the rows it holds get the mask entries a single process would give them and
// RNGDraws advances as it would there, which is what keeps checkpoints and
// resumes exact at any rank count.
func (d *Dropout) SetWindow(lo, rows int) { d.winLo, d.winRows = lo, rows }

// Forward applies dropout when train is true; identity otherwise.
func (d *Dropout) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if !train || d.P <= 0 {
		d.mask = nil
		return x
	}
	keep := float32(1.0 / (1.0 - d.P))
	d.mask = make([]float32, len(x.Data))
	y := tensor.New(x.Rows, x.Cols)
	before, after := 0, 0
	if d.winRows > 0 {
		before = d.winLo * x.Cols
		after = (d.winRows - d.winLo - x.Rows) * x.Cols
	}
	for i := 0; i < before; i++ {
		d.rng.Float64()
	}
	for i := range x.Data {
		if d.rng.Float64() >= d.P {
			d.mask[i] = keep
			y.Data[i] = x.Data[i] * keep
		}
	}
	for i := 0; i < after; i++ {
		d.rng.Float64()
	}
	return y
}

// Backward routes gradients through the surviving units.
func (d *Dropout) Backward(dy *tensor.Mat) *tensor.Mat {
	if d.mask == nil {
		return dy
	}
	dx := tensor.New(dy.Rows, dy.Cols)
	for i := range dy.Data {
		dx.Data[i] = dy.Data[i] * d.mask[i]
	}
	return dx
}
