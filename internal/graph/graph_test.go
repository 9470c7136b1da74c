package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func pathGraph(n int) *Graph {
	var edges []Edge
	for i := 0; i < n-1; i++ {
		edges = append(edges, Edge{int32(i), int32(i + 1)})
	}
	return FromEdges(n, edges, true)
}

func TestFromEdgesBasic(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 2}}, true)
	if g.N != 3 || g.NumEdges() != 4 {
		t.Fatalf("N=%d E=%d", g.N, g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("edge set wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesDedup(t *testing.T) {
	g := FromEdges(2, []Edge{{0, 1}, {0, 1}, {0, 1}}, false)
	if g.NumEdges() != 1 {
		t.Fatalf("dedup failed: %d", g.NumEdges())
	}
}

func TestFromEdgesOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromEdges(2, []Edge{{0, 5}}, false)
}

func TestDegreesAndSparsity(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}}, true)
	if g.Degree(0) != 3 || g.Degree(1) != 1 {
		t.Fatal("degree wrong")
	}
	if g.MaxDegree() != 3 || g.MinDegree() != 1 {
		t.Fatal("max/min degree wrong")
	}
	if g.AvgDegree() != 1.5 {
		t.Fatalf("avg=%v", g.AvgDegree())
	}
	want := 6.0 / 16.0
	if g.Sparsity() != want {
		t.Fatalf("sparsity=%v want %v", g.Sparsity(), want)
	}
}

func TestWithSelfLoops(t *testing.T) {
	g := pathGraph(4)
	gl := g.WithSelfLoops()
	for i := 0; i < 4; i++ {
		if !gl.HasEdge(int32(i), int32(i)) {
			t.Fatalf("missing self loop at %d", i)
		}
	}
	if gl.NumEdges() != g.NumEdges()+4 {
		t.Fatal("self loop count wrong")
	}
	// idempotent
	if gl.WithSelfLoops().NumEdges() != gl.NumEdges() {
		t.Fatal("WithSelfLoops not idempotent")
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := ErdosRenyi(30, 0.2, rng)
	perm := ShuffledIDs(30, rng)
	inv := make([]int32, 30)
	for old, nw := range perm {
		inv[nw] = int32(old)
	}
	g2 := g.Permute(perm).Permute(inv)
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("edge count changed under permutation round trip")
	}
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if !g2.HasEdge(int32(u), v) {
				t.Fatalf("edge (%d,%d) lost", u, v)
			}
		}
	}
}

func TestPermuteRejectsNonPermutation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pathGraph(3).Permute([]int32{0, 0, 1})
}

func TestInducedSubgraph(t *testing.T) {
	g := pathGraph(5) // 0-1-2-3-4
	sub := g.InducedSubgraph([]int32{1, 2, 4})
	if sub.N != 3 {
		t.Fatal("wrong node count")
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 0) {
		t.Fatal("edge 1-2 should survive")
	}
	if sub.HasEdge(1, 2) || sub.HasEdge(2, 1) {
		t.Fatal("no edge between 2 and 4")
	}
}

func TestInDegrees(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {2, 1}}, false)
	in := g.InDegrees()
	if in[1] != 2 || in[0] != 0 || in[2] != 0 {
		t.Fatalf("in=%v", in)
	}
}

func TestBFSDistances(t *testing.T) {
	g := pathGraph(5)
	d := g.BFS(0, -1)
	for i := 0; i < 5; i++ {
		if d[i] != int32(i) {
			t.Fatalf("d[%d]=%d", i, d[i])
		}
	}
	d = g.BFS(0, 2)
	if d[3] != -1 || d[4] != -1 || d[2] != 2 {
		t.Fatalf("capped BFS wrong: %v", d)
	}
}

func TestConnectivityAndComponents(t *testing.T) {
	g := pathGraph(4)
	if !g.IsConnected() {
		t.Fatal("path should be connected")
	}
	g2 := FromEdges(4, []Edge{{0, 1}, {2, 3}}, true)
	if g2.IsConnected() {
		t.Fatal("two components")
	}
}

func TestAllPairsSPD(t *testing.T) {
	g := pathGraph(4)
	spd := g.AllPairsSPD(2)
	if spd[0][1] != 1 || spd[0][2] != 2 {
		t.Fatal("spd wrong")
	}
	if spd[0][3] != 3 { // beyond cap → cap+1
		t.Fatalf("capped spd wrong: %d", spd[0][3])
	}
	if spd[2][2] != 0 {
		t.Fatal("diag must be 0")
	}
}

func TestEccentricity(t *testing.T) {
	if pathGraph(5).EccentricityFrom(0) != 4 {
		t.Fatal("eccentricity wrong")
	}
}

func TestSatisfiesDirac(t *testing.T) {
	// complete graph K4 satisfies Dirac
	var edges []Edge
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, Edge{int32(i), int32(j)})
		}
	}
	k4 := FromEdges(4, edges, true)
	if !k4.SatisfiesDirac() {
		t.Fatal("K4 must satisfy Dirac")
	}
	if pathGraph(6).SatisfiesDirac() {
		t.Fatal("path must not satisfy Dirac")
	}
	if pathGraph(2).SatisfiesDirac() {
		t.Fatal("N<3 excluded")
	}
	// self-loops must not count toward Dirac degree
	if pathGraph(6).WithSelfLoops().SatisfiesDirac() {
		t.Fatal("self loops must not make a path Dirac")
	}
}

func TestGreedyHamiltonianPathOnPath(t *testing.T) {
	g := pathGraph(8)
	path, ok := g.GreedyHamiltonianPath()
	if !ok || len(path) != 8 {
		t.Fatalf("greedy should find the path: ok=%v len=%d", ok, len(path))
	}
	// verify consecutive adjacency
	for i := 0; i+1 < len(path); i++ {
		if !g.HasEdge(path[i], path[i+1]) {
			t.Fatal("returned path not valid")
		}
	}
}

func TestGreedyHamiltonianPathStar(t *testing.T) {
	// star graph has no Hamiltonian path for n>3
	var edges []Edge
	for i := 1; i < 6; i++ {
		edges = append(edges, Edge{0, int32(i)})
	}
	g := FromEdges(6, edges, true)
	if _, ok := g.GreedyHamiltonianPath(); ok {
		t.Fatal("star K1,5 has no Hamiltonian path")
	}
}

func TestCountTriangles(t *testing.T) {
	// triangle plus a tail: exactly one triangle
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {0, 2}, {2, 3}}, true)
	if got := g.CountTriangles(); got != 1 {
		t.Fatalf("triangles=%d", got)
	}
	if pathGraph(5).CountTriangles() != 0 {
		t.Fatal("path has no triangles")
	}
	// K4 has 4 triangles
	var edges []Edge
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, Edge{int32(i), int32(j)})
		}
	}
	if FromEdges(4, edges, true).CountTriangles() != 4 {
		t.Fatal("K4 must have 4 triangles")
	}
}

// Property: generated graphs always satisfy CSR invariants and are symmetric
// when generated undirected.
func TestGeneratorsValidAndSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gs := []*Graph{
			ErdosRenyi(40, 0.15, rng),
			BarabasiAlbert(50, 3, rng),
			MoleculeLike(20, 3, rng),
		}
		for _, g := range gs {
			if g.Validate() != nil {
				return false
			}
			for u := 0; u < g.N; u++ {
				for _, v := range g.Neighbors(u) {
					if !g.HasEdge(v, int32(u)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestErdosRenyiDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n, p := 300, 0.1
	g := ErdosRenyi(n, p, rng)
	want := p * float64(n) * float64(n-1) // directed-count expectation
	got := float64(g.NumEdges())
	if got < want*0.8 || got > want*1.2 {
		t.Fatalf("ER edge count %v far from expectation %v", got, want)
	}
}

func TestBarabasiAlbertSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := BarabasiAlbert(500, 2, rng)
	if !g.IsConnected() {
		t.Fatal("BA graph must be connected")
	}
	if g.MaxDegree() < 5*g.MinDegree() {
		t.Fatalf("BA should be skewed: max=%d min=%d", g.MaxDegree(), g.MinDegree())
	}
}

func TestSBMCommunityStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, blocks := SBM(SBMConfig{
		BlockSizes: []int{100, 100, 100},
		AvgDegIn:   12, AvgDegOut: 1,
	}, rng)
	if g.N != 300 || len(blocks) != 300 {
		t.Fatal("size wrong")
	}
	within, cross := 0, 0
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if blocks[u] == blocks[v] {
				within++
			} else {
				cross++
			}
		}
	}
	if within < 5*cross {
		t.Fatalf("expected strong community structure: within=%d cross=%d", within, cross)
	}
}

func TestMoleculeLikeConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10; i++ {
		g := MoleculeLike(15+i, 2, rng)
		if !g.IsConnected() {
			t.Fatal("molecule graphs must be connected (built on a spanning tree)")
		}
	}
}

func TestShuffledIDsIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := ShuffledIDs(100, rng)
	seen := make([]bool, 100)
	for _, v := range p {
		if seen[v] {
			t.Fatal("duplicate in permutation")
		}
		seen[v] = true
	}
}
