package graph

import (
	"math"
	"math/rand"
)

// ErdosRenyi samples G(n, p) undirected via geometric edge skipping, which is
// O(E) rather than O(n²).
func ErdosRenyi(n int, p float64, rng *rand.Rand) *Graph {
	var edges []Edge
	if p > 0 && n > 1 {
		logq := math.Log1p(-p)
		// iterate over the strictly-upper-triangular pairs with skips
		v := int64(1)
		w := int64(-1)
		total := int64(n)
		for v < total {
			r := rng.Float64()
			w += 1 + int64(math.Floor(math.Log1p(-r)/logq))
			for w >= v && v < total {
				w -= v
				v++
			}
			if v < total {
				edges = append(edges, Edge{int32(w), int32(v)})
			}
		}
	}
	return FromEdges(n, edges, true)
}

// BarabasiAlbert grows a preferential-attachment graph: each new node
// attaches to m existing nodes with probability proportional to degree.
// Produces the heavy-tailed degree distributions of real-world graphs.
func BarabasiAlbert(n, m int, rng *rand.Rand) *Graph {
	if m < 1 {
		m = 1
	}
	if n <= m {
		return ErdosRenyi(n, 1, rng)
	}
	var edges []Edge
	// repeated-endpoint list implements preferential attachment in O(1)
	targets := make([]int32, 0, 2*n*m)
	for i := 0; i < m; i++ { // initial clique-ish seed: star over first m+1
		edges = append(edges, Edge{int32(i), int32(m)})
		targets = append(targets, int32(i), int32(m))
	}
	for v := m + 1; v < n; v++ {
		chosen := make(map[int32]bool, m)
		for len(chosen) < m {
			t := targets[rng.Intn(len(targets))]
			chosen[t] = true
		}
		for t := range chosen {
			edges = append(edges, Edge{int32(v), t})
			targets = append(targets, int32(v), t)
		}
	}
	return FromEdges(n, edges, true)
}

// SBMConfig parameterises a (degree-corrected) stochastic block model.
type SBMConfig struct {
	BlockSizes []int   // nodes per block
	AvgDegIn   float64 // expected within-block degree per node
	AvgDegOut  float64 // expected cross-block degree per node
	PowerLaw   float64 // degree-correction exponent; 0 disables correction
}

// SBM samples a degree-corrected stochastic block model. Blocks are laid out
// contiguously in node-ID order and the block assignment is returned
// alongside the graph. This generator is the stand-in for the paper's
// clustered real-world graphs (ogbn-arxiv/products, Amazon, …): it has
// planted community structure (for METIS/cluster experiments), tunable
// sparsity and skewed degrees.
func SBM(cfg SBMConfig, rng *rand.Rand) (*Graph, []int32) {
	n := 0
	for _, s := range cfg.BlockSizes {
		n += s
	}
	block := make([]int32, n)
	starts := make([]int, len(cfg.BlockSizes)+1)
	{
		idx := 0
		for b, s := range cfg.BlockSizes {
			starts[b] = idx
			for i := 0; i < s; i++ {
				block[idx] = int32(b)
				idx++
			}
		}
		starts[len(cfg.BlockSizes)] = idx
	}
	// degree-correction weights
	w := make([]float64, n)
	for i := range w {
		if cfg.PowerLaw > 0 {
			u := rng.Float64()
			w[i] = math.Pow(1-float64(u*0.999), -1.0/cfg.PowerLaw) // Pareto-ish
		} else {
			w[i] = 1
		}
	}
	var edges []Edge
	sampleWithin := func(b int) {
		lo, hi := starts[b], starts[b+1]
		size := hi - lo
		if size < 2 {
			return
		}
		m := int(cfg.AvgDegIn * float64(size) / 2)
		// weighted endpoint sampling within the block
		cum := make([]float64, size+1)
		for i := 0; i < size; i++ {
			cum[i+1] = cum[i] + w[lo+i]
		}
		tot := cum[size]
		pick := func() int32 {
			r := rng.Float64() * tot
			lo2, hi2 := 0, size
			for lo2 < hi2 {
				mid := (lo2 + hi2) / 2
				if cum[mid+1] < r {
					lo2 = mid + 1
				} else {
					hi2 = mid
				}
			}
			return int32(lo + lo2)
		}
		for k := 0; k < m; k++ {
			u, v := pick(), pick()
			if u != v {
				edges = append(edges, Edge{u, v})
			}
		}
	}
	for b := range cfg.BlockSizes {
		sampleWithin(b)
	}
	// cross-block edges: uniform random endpoints in distinct blocks
	mOut := int(cfg.AvgDegOut * float64(n) / 2)
	for k := 0; k < mOut; k++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u != v && block[u] != block[v] {
			edges = append(edges, Edge{u, v})
		}
	}
	return FromEdges(n, edges, true), block
}

// MoleculeLike samples a small connected molecule-ish graph: a random
// spanning tree with maximum valence plus a few ring-closing edges. Used for
// ZINC-like and molpcba-like graph-level datasets.
func MoleculeLike(n int, extraRings int, rng *rand.Rand) *Graph {
	if n < 1 {
		n = 1
	}
	var edges []Edge
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		edges = append(edges, Edge{int32(u), int32(v)})
	}
	for r := 0; r < extraRings && n > 2; r++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u != v {
			edges = append(edges, Edge{int32(u), int32(v)})
		}
	}
	return FromEdges(n, edges, true)
}

// ShuffledIDs returns a random permutation for relabelling node IDs, used to
// destroy the contiguous-cluster layout of generated SBM graphs so that
// partitioning/reordering has real work to do (real datasets do not arrive
// cluster-sorted).
func ShuffledIDs(n int, rng *rand.Rand) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}
