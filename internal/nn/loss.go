package nn

import (
	"math"

	"torchgt/internal/tensor"
)

// SoftmaxCrossEntropy computes mean cross-entropy over rows where mask is
// true (mask nil = all rows), returning the loss and dLogits. Rows outside
// the mask get zero gradient.
func SoftmaxCrossEntropy(logits *tensor.Mat, labels []int32, mask []bool) (float64, *tensor.Mat) {
	n := 0
	for i := 0; i < logits.Rows; i++ {
		if mask == nil || mask[i] {
			n++
		}
	}
	dl := tensor.New(logits.Rows, logits.Cols)
	if n == 0 {
		return 0, dl
	}
	inv := 1.0 / float64(n)
	var loss float64
	for i := 0; i < logits.Rows; i++ {
		if mask != nil && !mask[i] {
			continue
		}
		row := logits.Row(i)
		p := append([]float32(nil), row...)
		tensor.SoftmaxInPlace(p)
		y := labels[i]
		loss += float64(-math.Log(math.Max(float64(p[y]), 1e-12)) * inv)
		dr := dl.Row(i)
		for j := range dr {
			dr[j] = p[j] * float32(inv)
		}
		dr[y] -= float32(inv)
	}
	return loss, dl
}

// MSE computes mean squared error over predictions (pred is R×1) against
// targets, returning loss and dPred.
func MSE(pred *tensor.Mat, targets []float32) (float64, *tensor.Mat) {
	n := pred.Rows
	d := tensor.New(n, pred.Cols)
	if n == 0 {
		return 0, d
	}
	var loss float64
	inv := 1.0 / float64(n)
	for i := 0; i < n; i++ {
		diff := pred.At(i, 0) - targets[i]
		loss += float64(float64(diff) * float64(diff) * inv)
		d.Set(i, 0, 2*diff*float32(inv))
	}
	return loss, d
}

// MAE computes mean absolute error (metric only, no gradient).
func MAE(pred *tensor.Mat, targets []float32) float64 {
	if pred.Rows == 0 {
		return 0
	}
	var s float64
	for i := 0; i < pred.Rows; i++ {
		s += math.Abs(float64(pred.At(i, 0) - targets[i]))
	}
	return s / float64(pred.Rows)
}

// Accuracy computes argmax accuracy over rows where mask is true (nil = all).
func Accuracy(logits *tensor.Mat, labels []int32, mask []bool) float64 {
	correct, total := 0, 0
	for i := 0; i < logits.Rows; i++ {
		if mask != nil && !mask[i] {
			continue
		}
		total++
		row := logits.Row(i)
		best := 0
		for j := 1; j < len(row); j++ {
			if row[j] > row[best] {
				best = j
			}
		}
		if int32(best) == labels[i] {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
