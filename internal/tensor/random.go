package tensor

import (
	"math"
	"math/rand"
)

// RandN fills m with N(0, std²) samples from rng.
func RandN(m *Mat, rng *rand.Rand, std float64) {
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// XavierInit fills m with Xavier/Glorot uniform samples appropriate for a
// fanIn×fanOut weight matrix.
func XavierInit(m *Mat, rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		// converting the draw keeps arm64 from fusing its scaling into the doubling
		m.Data[i] = float32((float64(rng.Float64())*2 - 1) * limit)
	}
}
