package attention

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"torchgt/internal/graph"
	"torchgt/internal/partition"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// Packed-mask isolation tests: the serving and training packers coalesce
// several graphs into one block-diagonal pattern and run ONE kernel call.
// These tests pin the mask semantics end to end through the real sparse
// kernel — a segment's outputs and gradients are bitwise those of a solo
// run, and NaNs planted in a neighbouring segment never propagate (a NaN
// poisons anything it is summed into, so surviving the probe proves the
// kernel never touches cross-segment pairs, which a tolerance-based check
// could miss).

// packTwo packs the two patterns and returns the packed pattern plus the
// row offset of the second segment.
func packTwo(a, b *sparse.Pattern) (*sparse.Pattern, int) {
	p := sparse.NewPacker()
	p.Append(a, nil)
	p.Append(b, nil)
	return p.Pattern(), a.S
}

// sliceRows copies rows [lo, hi) of m into a fresh matrix.
func sliceRows(m *tensor.Mat, lo, hi int) *tensor.Mat {
	out := tensor.New(hi-lo, m.Cols)
	for i := lo; i < hi; i++ {
		copy(out.Row(i-lo), m.Row(i))
	}
	return out
}

// TestPackedSparseMatchesSoloBitwise pins that a packed forward+backward
// equals per-segment solo runs bitwise, for every segment.
func TestPackedSparseMatchesSoloBitwise(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	rng := rand.New(rand.NewSource(21))
	pa := sparse.FromGraph(graph.BarabasiAlbert(37, 3, rng))
	pb := sparse.FromGraph(graph.BarabasiAlbert(58, 4, rng))
	packed, off := packTwo(pa, pb)

	const d = 16
	s := packed.S
	q, k, v := tensor.New(s, d), tensor.New(s, d), tensor.New(s, d)
	tensor.RandN(q, rng, 0.7)
	tensor.RandN(k, rng, 0.7)
	tensor.RandN(v, rng, 0.7)
	dO := tensor.New(s, d)
	tensor.RandN(dO, rng, 1)

	kr := NewSparse(packed)
	o := kr.Forward(q, k, v)
	dq, dk, dv := kr.Backward(dO)

	for seg, sp := range []*sparse.Pattern{pa, pb} {
		lo := seg * off // 0 for the first segment, off for the second
		hi := lo + sp.S
		solo := NewSparse(sp)
		so := solo.Forward(sliceRows(q, lo, hi), sliceRows(k, lo, hi), sliceRows(v, lo, hi))
		sdq, sdk, sdv := solo.Backward(sliceRows(dO, lo, hi))
		for name, pair := range map[string][2]*tensor.Mat{
			"output": {o, so}, "dq": {dq, sdq}, "dk": {dk, sdk}, "dv": {dv, sdv},
		} {
			got, want := pair[0], pair[1]
			for i := 0; i < sp.S; i++ {
				gr, wr := got.Row(lo+i), want.Row(i)
				for c := range wr {
					if gr[c] != wr[c] {
						t.Fatalf("segment %d %s row %d col %d: packed %v != solo %v (not bitwise)",
							seg, name, i, c, gr[c], wr[c])
					}
				}
			}
		}
	}
}

// TestPackedSparseNaNIsolation plants NaN in every feature and upstream-
// gradient row of segment 0 and asserts segment 1 comes out bitwise clean:
// the block-diagonal mask admits no cross-segment pair in either direction
// of the computation.
func TestPackedSparseNaNIsolation(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	rng := rand.New(rand.NewSource(23))
	pa := sparse.FromGraph(graph.BarabasiAlbert(41, 3, rng)).WithGlobalToken()
	pb := sparse.FromGraph(graph.BarabasiAlbert(29, 3, rng)).WithGlobalToken()
	packed, off := packTwo(pa, pb)

	const d = 8
	s := packed.S
	q, k, v := tensor.New(s, d), tensor.New(s, d), tensor.New(s, d)
	tensor.RandN(q, rng, 0.7)
	tensor.RandN(k, rng, 0.7)
	tensor.RandN(v, rng, 0.7)
	dO := tensor.New(s, d)
	tensor.RandN(dO, rng, 1)

	// Clean solo reference for segment 1, computed before poisoning.
	solo := NewSparse(pb)
	so := solo.Forward(sliceRows(q, off, s), sliceRows(k, off, s), sliceRows(v, off, s))
	sdq, sdk, sdv := solo.Backward(sliceRows(dO, off, s))

	nan := float32(math.NaN())
	for i := 0; i < off; i++ {
		for c := 0; c < d; c++ {
			q.Row(i)[c], k.Row(i)[c], v.Row(i)[c], dO.Row(i)[c] = nan, nan, nan, nan
		}
	}

	kr := NewSparse(packed)
	o := kr.Forward(q, k, v)
	dq, dk, dv := kr.Backward(dO)

	for name, pair := range map[string][2]*tensor.Mat{
		"output": {o, so}, "dq": {dq, sdq}, "dk": {dk, sdk}, "dv": {dv, sdv},
	} {
		got, want := pair[0], pair[1]
		for i := 0; i < pb.S; i++ {
			gr, wr := got.Row(off+i), want.Row(i)
			for c := range wr {
				if math.IsNaN(float64(gr[c])) {
					t.Fatalf("%s row %d col %d: NaN leaked across the segment boundary", name, i, c)
				}
				if gr[c] != wr[c] {
					t.Fatalf("%s row %d col %d: %v != solo %v despite NaN-poisoned neighbour",
						name, i, c, gr[c], wr[c])
				}
			}
		}
	}
}

// localityGraph builds the benchmark topology: an SBM with strong community
// structure whose node IDs are then adversarially shuffled — the worst-case
// input the cluster reordering is designed to undo.
func localityGraph(s int, rng *rand.Rand) *graph.Graph {
	nb := s / 128
	sizes := make([]int, nb)
	for i := range sizes {
		sizes[i] = s / nb
	}
	g, _ := graph.SBM(graph.SBMConfig{BlockSizes: sizes, AvgDegIn: 24, AvgDegOut: 1}, rng)
	return g.Permute(graph.ShuffledIDs(g.N, rng))
}

// BenchmarkClusterSparseReorder times one cluster-sparse forward+backward
// step over the same graph under two k-way blockings — the even split of
// the raw (shuffled) layout, and the partition-derived cluster-contiguous
// layout — alternating which goes first per iteration, and reports
// reordered/unordered. β=0 disables sub-block transfer, so both sides
// compute the exact same entry set in CSR form and the ratio isolates what
// the reordering buys: gather locality of the K/V rows (contiguous cluster
// windows vs the whole sequence). The ceiling in ci/bench-baseline.json
// holds the reordered step ≥1.15× faster than the unordered one; a spell of
// load on the box longer than one iteration slows both sides.
func BenchmarkClusterSparseReorder(b *testing.B) {
	const s, d, k = 16384, 64, 8
	rng := rand.New(rand.NewSource(31))
	g := localityGraph(s, rng)
	even := make([]int32, k+1)
	for i := range even {
		even[i] = int32(i * s / k)
	}
	perm, bounds := partition.ClusterOrder(partition.Partition(g, k, 33), k)

	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	q, kk, v := tensor.New(s, d), tensor.New(s, d), tensor.New(s, d)
	tensor.RandN(q, rng, 0.5)
	tensor.RandN(kk, rng, 0.5)
	tensor.RandN(v, rng, 0.5)
	dO := tensor.New(s, d)
	tensor.RandN(dO, rng, 1)
	// step returns a timed forward+backward over g blocked at bounds, its
	// workspace warmed by one untimed step.
	step := func(g *graph.Graph, bounds []int32) func() time.Duration {
		cl, err := sparse.NewClusterLayout(sparse.FromGraph(g), bounds)
		if err != nil {
			b.Fatal(err)
		}
		ws := tensor.NewWorkspace()
		kr := WithWorkspace(NewClusterSparse(sparse.Reform(cl, 16, 0)), ws)
		run := func() {
			kr.Forward(q, kk, v)
			kr.Backward(dO)
			ws.Reset()
		}
		run()
		return func() time.Duration {
			t0 := time.Now()
			run()
			return time.Since(t0)
		}
	}
	reordered, unordered := step(g.Permute(perm), bounds), step(g, even)

	var tr, tu time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			tr += reordered()
			tu += unordered()
		} else {
			tu += unordered()
			tr += reordered()
		}
	}
	b.ReportMetric(float64(tr)/float64(tu), "reordered/unordered")
}
