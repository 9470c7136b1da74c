package tensor

import (
	"math"
	"testing"
)

// Edge-case coverage for RoundBF16 beyond the property tests in ops_test.go:
// subnormals, signed zero, NaN payloads, and the saturation boundary near
// MaxFloat32.

func TestRoundBF16Subnormals(t *testing.T) {
	// The smallest positive float32 subnormal has no bf16 representation
	// with a nonzero mantissa; round-to-nearest-even sends tiny subnormals
	// to (signed) zero rather than inventing magnitude.
	tiny := math.Float32frombits(1) // 2^-149
	if got := RoundBF16(tiny); got != 0 {
		t.Fatalf("RoundBF16(min subnormal) = %v, want 0", got)
	}
	negTiny := math.Float32frombits(0x80000001)
	got := RoundBF16(negTiny)
	if got != 0 || math.Signbit(float64(got)) != true {
		t.Fatalf("RoundBF16(-min subnormal) = %v (signbit %v), want -0", got, math.Signbit(float64(got)))
	}
	// A large subnormal (top of the subnormal range) keeps its leading
	// mantissa bits: result must stay subnormal-or-zero-exponent and within
	// one bf16 ulp (2^-8 of the magnitude... here absolute: 2^-133 scale).
	big := math.Float32frombits(0x007fffff) // largest subnormal
	r := RoundBF16(big)
	if math.Float32bits(r)&0x7f800000 > 0x00800000 {
		t.Fatalf("RoundBF16(max subnormal) jumped exponent ranges: %x", math.Float32bits(r))
	}
	if math.Abs(float64(r-big)) > float64(big)/128 {
		t.Fatalf("RoundBF16(max subnormal) too far: %v -> %v", big, r)
	}
	// Idempotence holds on the subnormal outputs too.
	if RoundBF16(r) != r {
		t.Fatal("not idempotent on subnormal result")
	}
}

func TestRoundBF16NegativeZero(t *testing.T) {
	nz := float32(math.Copysign(0, -1))
	got := RoundBF16(nz)
	if math.Float32bits(got) != 0x80000000 {
		t.Fatalf("RoundBF16(-0) bits = %#x, want 0x80000000", math.Float32bits(got))
	}
	if math.Float32bits(RoundBF16(0)) != 0 {
		t.Fatal("RoundBF16(+0) must stay +0")
	}
}

func TestRoundBF16NaNPayload(t *testing.T) {
	// NaNs pass through with their payload bits untouched — the exponent
	// check short-circuits before any mantissa arithmetic could quiet or
	// reshuffle them.
	payloads := []uint32{
		0x7fc00001, // quiet NaN, low payload bit
		0x7f800001, // signalling NaN pattern
		0xffc0dead, // negative quiet NaN with payload
		0x7fffffff, // all-ones mantissa
	}
	for _, bits := range payloads {
		v := math.Float32frombits(bits)
		got := RoundBF16(v)
		if math.Float32bits(got) != bits {
			t.Fatalf("NaN payload %#x changed to %#x", bits, math.Float32bits(got))
		}
	}
	// ±Inf likewise.
	for _, bits := range []uint32{0x7f800000, 0xff800000} {
		if math.Float32bits(RoundBF16(math.Float32frombits(bits))) != bits {
			t.Fatalf("Inf %#x not preserved", bits)
		}
	}
}

func TestRoundBF16SaturationBoundary(t *testing.T) {
	maxBF16 := math.Float32frombits(0x7f7f0000) // (2−2⁻⁷)·2¹²⁷, largest finite bf16
	// MaxFloat32 would round up past the largest finite bf16: must saturate,
	// not overflow to Inf.
	if got := RoundBF16(math.MaxFloat32); got != maxBF16 {
		t.Fatalf("RoundBF16(MaxFloat32) = %v, want saturation to %v", got, maxBF16)
	}
	if got := RoundBF16(-math.MaxFloat32); got != -maxBF16 {
		t.Fatalf("RoundBF16(-MaxFloat32) = %v, want -maxBF16", got)
	}
	// The largest finite bf16 itself is a fixed point.
	if RoundBF16(maxBF16) != maxBF16 {
		t.Fatal("maxBF16 must survive unchanged")
	}
	// Just below the rounding midpoint above maxBF16, values round DOWN to
	// maxBF16 without tripping saturation.
	below := math.Float32frombits(0x7f7f0000 | 0x7fff)
	if RoundBF16(below) != maxBF16 {
		t.Fatalf("value below midpoint must round down to maxBF16, got %v", RoundBF16(below))
	}
	// At/above the midpoint the unsaturated result would be Inf; the clamp
	// keeps it finite.
	above := math.Float32frombits(0x7f7f0000 | 0x8000)
	if got := RoundBF16(above); math.IsInf(float64(got), 0) || got != maxBF16 {
		t.Fatalf("midpoint value must saturate to maxBF16, got %v", got)
	}
}
