// Package sparse defines attention sparsity patterns over token sequences:
// the topology-induced pattern of Dual-interleaved Attention, the clustered
// layout produced by Cluster-aware Graph Parallelism, and the cluster-sparse
// reformation (sub-block compaction) of the Elastic Computation Reformation.
package sparse

import (
	"fmt"
	"math/rand"
	"sort"

	"torchgt/internal/graph"
)

// Pattern is a sparse attention pattern in CSR over sequence positions: token
// i may attend token j iff (i, j) is present. Rows are sorted ascending.
type Pattern struct {
	S      int
	RowPtr []int32
	ColIdx []int32

	idx indexes // built on first use; see index.go
}

// NNZ returns the number of attended pairs.
func (p *Pattern) NNZ() int { return len(p.ColIdx) }

// Row returns the attended positions of token i.
func (p *Pattern) Row(i int) []int32 { return p.ColIdx[p.RowPtr[i]:p.RowPtr[i+1]] }

// Sparsity returns NNZ / S² (the paper's β).
func (p *Pattern) Sparsity() float64 {
	if p.S == 0 {
		return 0
	}
	return float64(p.NNZ()) / (float64(p.S) * float64(p.S))
}

// Has reports whether pair (i, j) is in the pattern.
func (p *Pattern) Has(i, j int32) bool {
	row := p.Row(int(i))
	k := sort.Search(len(row), func(x int) bool { return row[x] >= j })
	return k < len(row) && row[k] == j
}

// Validate checks CSR invariants.
func (p *Pattern) Validate() error {
	if len(p.RowPtr) != p.S+1 {
		return fmt.Errorf("sparse: RowPtr len %d != S+1", len(p.RowPtr))
	}
	if p.RowPtr[0] != 0 || int(p.RowPtr[p.S]) != len(p.ColIdx) {
		return fmt.Errorf("sparse: RowPtr endpoints invalid")
	}
	for i := 0; i < p.S; i++ {
		if p.RowPtr[i] > p.RowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr not monotone at %d", i)
		}
		row := p.Row(i)
		for k, v := range row {
			if v < 0 || int(v) >= p.S {
				return fmt.Errorf("sparse: col %d out of range in row %d", v, i)
			}
			if k > 0 && row[k-1] >= v {
				return fmt.Errorf("sparse: row %d not strictly sorted", i)
			}
		}
	}
	return nil
}

// FromGraph builds the local topology-induced pattern over a graph whose
// nodes are the sequence tokens. Self-loops are always added (condition C1).
func FromGraph(g *graph.Graph) *Pattern {
	gl := g.WithSelfLoops()
	return &Pattern{S: gl.N, RowPtr: gl.RowPtr, ColIdx: gl.ColIdx}
}

// LocalEdgeBuckets assigns an SPD bias bucket to every pattern entry: 0 for
// self-attention, 1 for direct edges (the only distances a topology-induced
// pattern contains), with globalBucket for pairs touching token 0 when
// hasGlobal. This is THE bucket convention shared by the training loops and
// the serving engine — change it in one place only.
func (p *Pattern) LocalEdgeBuckets(hasGlobal bool, globalBucket int32) []int32 {
	out := make([]int32, p.NNZ())
	idx := 0
	for i := 0; i < p.S; i++ {
		for _, j := range p.Row(i) {
			switch {
			case int32(i) == j:
				out[idx] = 0
			case hasGlobal && (i == 0 || j == 0):
				out[idx] = globalBucket
			default:
				out[idx] = 1
			}
			idx++
		}
	}
	return out
}

// FromPairs builds a pattern from an explicit pair list (deduplicated).
func FromPairs(s int, pairs []graph.Edge) *Pattern {
	g := graph.FromEdges(s, pairs, false)
	return &Pattern{S: s, RowPtr: g.RowPtr, ColIdx: g.ColIdx}
}

// WithGlobalToken returns a pattern over S+1 tokens where new token 0 is a
// global token attending to and attended by every token, and original token
// i becomes token i+1 (used by graph-level tasks' readout token).
func (p *Pattern) WithGlobalToken() *Pattern {
	s := p.S + 1
	pairs := make([]graph.Edge, 0, p.NNZ()+2*s)
	for i := 0; i < p.S; i++ {
		for _, j := range p.Row(i) {
			pairs = append(pairs, graph.Edge{U: int32(i + 1), V: j + 1})
		}
	}
	for i := 0; i < s; i++ {
		pairs = append(pairs, graph.Edge{U: 0, V: int32(i)})
		pairs = append(pairs, graph.Edge{U: int32(i), V: 0})
	}
	return FromPairs(s, pairs)
}

// Permute relabels pattern positions: new position perm[i] plays old
// position i's role (same convention as graph.Permute).
func (p *Pattern) Permute(perm []int32) *Pattern {
	pairs := make([]graph.Edge, 0, p.NNZ())
	for i := 0; i < p.S; i++ {
		for _, j := range p.Row(i) {
			pairs = append(pairs, graph.Edge{U: perm[i], V: perm[j]})
		}
	}
	return FromPairs(p.S, pairs)
}

// Dense returns the full S×S pattern (every pair attended).
func Dense(s int) *Pattern {
	rowPtr := make([]int32, s+1)
	colIdx := make([]int32, s*s)
	for i := 0; i < s; i++ {
		rowPtr[i+1] = int32((i + 1) * s)
		for j := 0; j < s; j++ {
			colIdx[i*s+j] = int32(j)
		}
	}
	return &Pattern{S: s, RowPtr: rowPtr, ColIdx: colIdx}
}

// BigBird builds an NLP-style structure-agnostic sparse pattern (window +
// global + random attention, after Zaheer et al.) over s tokens. The paper's
// issue I2 argues such patterns "fail to consider the inherent graph
// structure ... resulting in subpar model performance"; the
// ablation-bigbird experiment reproduces that comparison against the
// topology-induced pattern at matched density.
func BigBird(s, window, nGlobal, randPerRow int, rng *rand.Rand) *Pattern {
	var pairs []graph.Edge
	add := func(i, j int) {
		if i >= 0 && i < s && j >= 0 && j < s {
			pairs = append(pairs, graph.Edge{U: int32(i), V: int32(j)})
		}
	}
	for i := 0; i < s; i++ {
		add(i, i)
		for w := 1; w <= window; w++ {
			add(i, i-w)
			add(i, i+w)
		}
		for g := 0; g < nGlobal; g++ {
			add(i, g)
			add(g, i)
		}
		for r := 0; r < randPerRow; r++ {
			add(i, rng.Intn(s))
		}
	}
	return FromPairs(s, pairs)
}
