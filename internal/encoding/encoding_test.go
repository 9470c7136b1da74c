package encoding

import (
	"math"
	"math/rand"
	"testing"

	"torchgt/internal/graph"
	"torchgt/internal/tensor"
)

func TestDegreeBuckets(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}}, false)
	in, out := DegreeBuckets(g, 63)
	if out[0] != 2 || out[1] != 0 {
		t.Fatalf("out=%v", out)
	}
	if in[1] != 1 || in[0] != 0 {
		t.Fatalf("in=%v", in)
	}
}

func TestDegreeBucketsClipped(t *testing.T) {
	var edges []graph.Edge
	for i := 1; i < 20; i++ {
		edges = append(edges, graph.Edge{U: 0, V: int32(i)})
	}
	g := graph.FromEdges(20, edges, false)
	_, out := DegreeBuckets(g, 10)
	if out[0] != 10 {
		t.Fatalf("expected clip to 10, got %d", out[0])
	}
}

func TestComputeSPDBuckets(t *testing.T) {
	// path 0-1-2-3
	var edges []graph.Edge
	for i := 0; i < 3; i++ {
		edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 1)})
	}
	g := graph.FromEdges(4, edges, true)
	spd := ComputeSPD(g, 2)
	if spd.NumBuckets() != 4 {
		t.Fatalf("buckets=%d", spd.NumBuckets())
	}
	if spd.Dist[0][0] != 0 || spd.Dist[0][1] != 1 || spd.Dist[0][2] != 2 {
		t.Fatal("distances wrong")
	}
	if spd.Dist[0][3] != 3 { // capped to MaxDist+1
		t.Fatalf("cap wrong: %d", spd.Dist[0][3])
	}
}

func TestLaplacianPEShapeAndOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.ErdosRenyi(60, 0.15, rng)
	pe := LaplacianPE(g, 4, 50, rng)
	if pe.Rows != 60 || pe.Cols != 4 {
		t.Fatalf("shape %v", pe)
	}
	// columns should be near-orthonormal
	for a := 0; a < 4; a++ {
		col := make([]float32, 60)
		for i := 0; i < 60; i++ {
			col[i] = pe.At(i, a)
		}
		norm := tensor.Dot(col, col)
		if math.Abs(float64(norm)-1) > 1e-3 {
			t.Fatalf("col %d norm %v", a, norm)
		}
		for b := a + 1; b < 4; b++ {
			col2 := make([]float32, 60)
			for i := 0; i < 60; i++ {
				col2[i] = pe.At(i, b)
			}
			if d := tensor.Dot(col, col2); math.Abs(float64(d)) > 1e-2 {
				t.Fatalf("cols %d,%d not orthogonal: %v", a, b, d)
			}
		}
	}
}

func TestLaplacianPESecondVectorSeparatesComponentsish(t *testing.T) {
	// two dense clusters joined by one edge: the Fiedler-like vector should
	// assign (mostly) opposite signs to the two clusters.
	rng := rand.New(rand.NewSource(2))
	var edges []graph.Edge
	for i := 0; i < 15; i++ {
		for j := i + 1; j < 15; j++ {
			edges = append(edges, graph.Edge{U: int32(i), V: int32(j)})
			edges = append(edges, graph.Edge{U: int32(15 + i), V: int32(15 + j)})
		}
	}
	edges = append(edges, graph.Edge{U: 0, V: 15})
	g := graph.FromEdges(30, edges, true)
	pe := LaplacianPE(g, 1, 200, rng)
	agreeA, agreeB := 0, 0
	for i := 0; i < 15; i++ {
		if (pe.At(i, 0) > 0) == (pe.At(0, 0) > 0) {
			agreeA++
		}
		if (pe.At(15+i, 0) > 0) == (pe.At(15, 0) > 0) {
			agreeB++
		}
	}
	if agreeA < 13 || agreeB < 13 {
		t.Fatalf("fiedler separation weak: %d %d", agreeA, agreeB)
	}
	if (pe.At(0, 0) > 0) == (pe.At(15, 0) > 0) {
		t.Fatal("clusters should take opposite signs")
	}
}

func TestLaplacianPEEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	empty := graph.FromEdges(0, nil, false)
	pe := LaplacianPE(empty, 4, 10, rng)
	if pe.Rows != 0 {
		t.Fatal("empty graph PE should be empty")
	}
	tiny := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}, true)
	pe = LaplacianPE(tiny, 8, 10, rng) // m > n clamps
	if pe.Cols != 2 {
		t.Fatalf("m should clamp to n: cols=%d", pe.Cols)
	}
}
