package tensor

import "math"

// RoundBF16 rounds a float32 to bfloat16 precision (8-bit mantissa) using
// round-to-nearest-even, returning the value re-expanded to float32. This
// emulates the reduced-precision arithmetic of FlashAttention's BF16 mode,
// which the paper's Table VII identifies as the source of GP-Flash's
// accuracy loss.
func RoundBF16(v float32) float32 {
	bits := math.Float32bits(v)
	// NaN/Inf pass through (exponent all ones).
	if bits&0x7f800000 == 0x7f800000 {
		return v
	}
	lsb := (bits >> 16) & 1
	rounded := bits + 0x7fff + lsb
	// Saturate finite values that would round past the largest finite bf16
	// (|v| > (2−2⁻⁷)·2¹²⁷) instead of overflowing to ±Inf, keeping the
	// conversion's relative error bounded by 2⁻⁸ for all normal inputs.
	if rounded&0x7f800000 == 0x7f800000 {
		return math.Float32frombits(bits&0x80000000 | 0x7f7f0000)
	}
	return math.Float32frombits(rounded &^ 0xffff)
}

// RoundBF16Slice rounds every element of s to bfloat16 precision in place.
func RoundBF16Slice(s []float32) {
	for i, v := range s {
		s[i] = RoundBF16(v)
	}
}

// RoundBF16Mat rounds every element of m to bfloat16 precision in place.
func RoundBF16Mat(m *Mat) { RoundBF16Slice(m.Data) }
