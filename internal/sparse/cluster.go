package sparse

import (
	"fmt"

	"torchgt/internal/graph"
)

// ClusterLayout describes a pattern partitioned into a k×k grid of clusters
// by row/column boundaries (the paper's Fig. 5(b) clustered attention
// layout). Bounds has length k+1 with Bounds[0]=0 and Bounds[k]=S.
type ClusterLayout struct {
	P      *Pattern
	K      int
	Bounds []int32
	// NNZ[a*K+b] = attended pairs inside cluster (a, b).
	NNZ []int64
}

// NewClusterLayout computes per-cluster statistics of p under bounds.
func NewClusterLayout(p *Pattern, bounds []int32) (*ClusterLayout, error) {
	k := len(bounds) - 1
	if k < 1 || bounds[0] != 0 || int(bounds[k]) != p.S {
		return nil, fmt.Errorf("sparse: invalid bounds (k=%d, S=%d)", k, p.S)
	}
	cl := &ClusterLayout{P: p, K: k, Bounds: bounds, NNZ: make([]int64, k*k)}
	rowOf := makeBucketLookup(bounds, p.S)
	for i := 0; i < p.S; i++ {
		a := rowOf[i]
		for _, j := range p.Row(i) {
			b := rowOf[j]
			cl.NNZ[int(a)*k+int(b)]++
		}
	}
	return cl, nil
}

// makeBucketLookup expands bounds into a per-position bucket index.
func makeBucketLookup(bounds []int32, s int) []int32 {
	out := make([]int32, s)
	for b := 0; b+1 < len(bounds); b++ {
		for i := bounds[b]; i < bounds[b+1]; i++ {
			out[i] = int32(b)
		}
	}
	return out
}

// ClusterSparsity returns β_C of cluster (a, b): NNZ / (rows × cols).
func (cl *ClusterLayout) ClusterSparsity(a, b int) float64 {
	rows := float64(cl.Bounds[a+1] - cl.Bounds[a])
	cols := float64(cl.Bounds[b+1] - cl.Bounds[b])
	if rows == 0 || cols == 0 {
		return 0
	}
	return float64(cl.NNZ[a*cl.K+b]) / (rows * cols)
}

// DiagonalNNZFraction returns the fraction of pairs lying in diagonal
// clusters — the locality the cluster reordering is supposed to create.
func (cl *ClusterLayout) DiagonalNNZFraction() float64 {
	if cl.P.NNZ() == 0 {
		return 0
	}
	var diag int64
	for a := 0; a < cl.K; a++ {
		diag += cl.NNZ[a*cl.K+a]
	}
	return float64(diag) / float64(cl.P.NNZ())
}

// SubBlock is a db×db dense block anchored at (Row0, Col0): all pairs
// (Row0+i, Col0+j) for i, j < Db are attended. Sub-blocks are the unit of the
// cluster-sparse format: dense in memory, cheap to compute.
type SubBlock struct {
	Row0, Col0 int32
}

// Reformed is a pattern in cluster-sparse form: untransferred clusters stay
// in CSR (Keep), transferred clusters are replaced by compact dense
// sub-blocks (Blocks). This is the output of the Elastic Computation
// Reformation and the input to the cluster-sparse attention kernel.
type Reformed struct {
	S           int
	Db          int
	Keep        *Pattern
	Blocks      []SubBlock
	Transferred int // clusters transferred
	Clusters    int // total non-empty clusters

	idx indexes // built on first use; see index.go
}

// EffectivePattern materialises the union pattern actually attended after
// reformation (Keep ∪ Blocks), for reference kernels and convergence
// semantics.
func (r *Reformed) EffectivePattern() *Pattern {
	pairs := make([]graph.Edge, 0, r.Keep.NNZ()+len(r.Blocks)*r.Db*r.Db)
	for i := 0; i < r.Keep.S; i++ {
		for _, j := range r.Keep.Row(i) {
			pairs = append(pairs, graph.Edge{U: int32(i), V: j})
		}
	}
	for _, b := range r.Blocks {
		for i := int32(0); i < int32(r.Db); i++ {
			if b.Row0+i >= int32(r.S) {
				break
			}
			for j := int32(0); j < int32(r.Db); j++ {
				if b.Col0+j >= int32(r.S) {
					break
				}
				pairs = append(pairs, graph.Edge{U: b.Row0 + i, V: b.Col0 + j})
			}
		}
	}
	return FromPairs(r.S, pairs)
}

// Reform applies the cluster-sparse transfer: every cluster (a, b) whose
// sparsity β_C is below betaThre has its scattered entries compacted into
// db×db sub-blocks anchored near the entries' centroid rows/cols (grid-
// snapped, clamped inside the cluster). Entries of kept clusters are
// preserved exactly. betaThre=0 transfers nothing; betaThre=1 transfers all
// clusters that are not fully dense.
func Reform(cl *ClusterLayout, db int, betaThre float64) *Reformed {
	p := cl.P
	k := cl.K
	r := &Reformed{S: p.S, Db: db}
	transfer := make([]bool, k*k)
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			if cl.NNZ[a*k+b] == 0 {
				continue
			}
			r.Clusters++
			bc := cl.ClusterSparsity(a, b)
			if bc < betaThre && bc < 1.0 {
				transfer[a*k+b] = true
				r.Transferred++
			}
		}
	}
	rowOf := makeBucketLookup(cl.Bounds, p.S)
	// collect entries per transferred cluster; keep the rest
	var keepPairs []graph.Edge
	clusterEntries := make(map[int][]graph.Edge)
	for i := 0; i < p.S; i++ {
		a := rowOf[i]
		for _, j := range p.Row(i) {
			b := rowOf[j]
			key := int(a)*k + int(b)
			if transfer[key] {
				clusterEntries[key] = append(clusterEntries[key], graph.Edge{U: int32(i), V: j})
			} else {
				keepPairs = append(keepPairs, graph.Edge{U: int32(i), V: j})
			}
		}
	}
	// compact each transferred cluster's entries into sub-blocks: entries are
	// taken in (row, col) order, grouped into runs of db² and each run
	// becomes one block anchored at its centroid, snapped to the db grid and
	// clamped inside the cluster.
	for key := 0; key < k*k; key++ {
		entries := clusterEntries[key]
		if len(entries) == 0 {
			continue
		}
		a, b := key/k, key%k
		rLo, rHi := cl.Bounds[a], cl.Bounds[a+1]
		cLo, cHi := cl.Bounds[b], cl.Bounds[b+1]
		per := db * db
		for off := 0; off < len(entries); off += per {
			end := off + per
			if end > len(entries) {
				end = len(entries)
			}
			run := entries[off:end]
			var sr, sc int64
			for _, e := range run {
				sr += int64(e.U)
				sc += int64(e.V)
			}
			anchorR := snapAnchor(int32(sr/int64(len(run))), rLo, rHi, int32(db))
			anchorC := snapAnchor(int32(sc/int64(len(run))), cLo, cHi, int32(db))
			r.Blocks = append(r.Blocks, SubBlock{Row0: anchorR, Col0: anchorC})
		}
	}
	r.Keep = FromPairs(p.S, keepPairs)
	return r
}

// snapAnchor snaps v to the db grid relative to lo and clamps so the block
// [anchor, anchor+db) fits inside [lo, hi) when the range allows.
func snapAnchor(v, lo, hi, db int32) int32 {
	a := lo + (v-lo)/db*db
	if a+db > hi {
		a = hi - db
	}
	if a < lo {
		a = lo
	}
	return a
}

// ReformIndolent applies the paper's Indolent Transferring strategy: only
// clusters sparser than the whole-graph sparsity β_G are transferred.
func ReformIndolent(cl *ClusterLayout, db int) *Reformed {
	return Reform(cl, db, cl.P.Sparsity())
}

// BetaSet returns the Auto Tuner's candidate threshold ladder
// {0, βG, 1.5βG, 5βG, 7βG, 10βG, 1} for the given graph sparsity.
func BetaSet(betaG float64) []float64 {
	return []float64{0, betaG, 1.5 * betaG, 5 * betaG, 7 * betaG, 10 * betaG, 1}
}
