//go:build exhaustive

package tensor

import "testing"

// TestLaneMathExhaustive extends TestLaneMathMatchesScalar's 2²⁴-input sweep
// to all 2³² float32 bit patterns on the lane-wise path (the portable path is
// the scalar loop itself). It takes minutes, so it builds only under the
// exhaustive tag:
//
//	go test -tags exhaustive -run TestLaneMathExhaustive ./internal/tensor/
func TestLaneMathExhaustive(t *testing.T) {
	if mathLanes(4) == 0 {
		t.Skip("this CPU has no lane-wise exp/GELU kernels")
	}
	sweepPatterns(t, 1)
}
