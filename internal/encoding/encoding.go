// Package encoding computes the graph structural encodings that graph
// transformers add to the vanilla Transformer: Graphormer's degree
// (centrality) encoding indices, shortest-path-distance (SPD) bias buckets,
// and Laplacian positional encodings for GT (Dwivedi–Bresson). The learnable
// tables that consume these indices live in internal/nn; this package is pure
// precomputation, which is exactly the part the paper charges to
// "pre-processing cost" (§IV-E).
package encoding

import (
	"math"
	"math/rand"

	"torchgt/internal/graph"
	"torchgt/internal/tensor"
)

// MaxDegreeBucket is the default clip for degree encodings: degrees are
// bucketed into [0, MaxDegreeBucket] with everything larger clipped, matching
// Graphormer's practice on skewed graphs.
const MaxDegreeBucket = 63

// DegreeBuckets returns per-node (in, out) degree bucket indices, clipped to
// maxBucket.
func DegreeBuckets(g *graph.Graph, maxBucket int) (in, out []int32) {
	in = g.InDegrees()
	out = make([]int32, g.N)
	for i := 0; i < g.N; i++ {
		out[i] = int32(g.Degree(i))
	}
	clip := func(s []int32) {
		for i, v := range s {
			if v > int32(maxBucket) {
				s[i] = int32(maxBucket)
			}
		}
	}
	clip(in)
	clip(out)
	return in, out
}

// SPDTable holds bucketed shortest-path distances for a (small) graph.
// Bucket values are in [0, MaxDist+1], where MaxDist+1 means "farther than
// MaxDist or unreachable".
type SPDTable struct {
	N       int
	MaxDist int
	Dist    [][]int32
}

// NumBuckets returns the number of distinct bias buckets (0..MaxDist+1).
func (t *SPDTable) NumBuckets() int { return t.MaxDist + 2 }

// ComputeSPD runs capped all-pairs BFS; intended for graph-level tasks where
// each graph is small (tens to thousands of nodes).
func ComputeSPD(g *graph.Graph, maxDist int) *SPDTable {
	return &SPDTable{N: g.N, MaxDist: maxDist, Dist: g.AllPairsSPD(maxDist)}
}

// LaplacianPE computes m-dimensional Laplacian positional encodings: the
// eigenvectors of the symmetric normalised Laplacian associated with the
// smallest non-trivial eigenvalues, approximated by orthogonal power
// iteration on (2I − L) (whose largest eigenpairs are L's smallest). Signs
// are randomised per GT's training recipe.
func LaplacianPE(g *graph.Graph, m, iters int, rng *rand.Rand) *tensor.Mat {
	n := g.N
	if m > n {
		m = n
	}
	pe := tensor.New(n, m)
	if n == 0 || m == 0 {
		return pe
	}
	// D^{-1/2}
	dinv := make([]float32, n)
	for i := 0; i < n; i++ {
		d := g.Degree(i)
		if d > 0 {
			dinv[i] = float32(1.0 / math.Sqrt(float64(d)))
		}
	}
	// matvec y = (2I - L) x = x + D^{-1/2} A D^{-1/2} x
	matvec := func(dst, x []float32) {
		for i := 0; i < n; i++ {
			var s float32
			for _, v := range g.Neighbors(i) {
				s += float32(dinv[i] * dinv[v] * x[v])
			}
			dst[i] = x[i] + s
		}
	}
	// block power iteration with Gram–Schmidt; include the trivial
	// eigenvector slot (m+1 vectors) and drop it at the end.
	k := m + 1
	vecs := make([][]float32, k)
	for j := range vecs {
		vecs[j] = make([]float32, n)
		for i := range vecs[j] {
			vecs[j][i] = float32(rng.NormFloat64())
		}
	}
	tmp := make([]float32, n)
	orthonormalise := func() {
		for j := 0; j < k; j++ {
			for l := 0; l < j; l++ {
				dot := tensor.Dot(vecs[j], vecs[l])
				tensor.Axpy(-dot, vecs[l], vecs[j])
			}
			norm := float32(math.Sqrt(float64(tensor.Dot(vecs[j], vecs[j]))))
			if norm < 1e-12 {
				for i := range vecs[j] {
					vecs[j][i] = float32(rng.NormFloat64())
				}
				norm = float32(math.Sqrt(float64(tensor.Dot(vecs[j], vecs[j]))))
			}
			inv := 1 / norm
			for i := range vecs[j] {
				vecs[j][i] *= inv
			}
		}
	}
	orthonormalise()
	for it := 0; it < iters; it++ {
		for j := 0; j < k; j++ {
			matvec(tmp, vecs[j])
			copy(vecs[j], tmp)
		}
		orthonormalise()
	}
	// vecs[0] converges to the trivial (largest) eigenvector; PE uses 1..m.
	for j := 0; j < m; j++ {
		sign := float32(1)
		if rng.Intn(2) == 1 {
			sign = -1
		}
		for i := 0; i < n; i++ {
			pe.Set(i, j, sign*vecs[j+1][i])
		}
	}
	return pe
}
