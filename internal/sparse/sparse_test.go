package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"

	"torchgt/internal/graph"
)

func ringPattern(s int) *Pattern {
	var pairs []graph.Edge
	for i := 0; i < s; i++ {
		pairs = append(pairs, graph.Edge{U: int32(i), V: int32((i + 1) % s)})
		pairs = append(pairs, graph.Edge{U: int32((i + 1) % s), V: int32(i)})
		pairs = append(pairs, graph.Edge{U: int32(i), V: int32(i)})
	}
	return FromPairs(s, pairs)
}

func TestFromGraphAddsSelfLoops(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}}, true)
	p := FromGraph(g)
	for i := int32(0); i < 3; i++ {
		if !p.Has(i, i) {
			t.Fatalf("missing self loop %d (C1 violated)", i)
		}
	}
	if !p.Has(0, 1) || !p.Has(1, 0) {
		t.Fatal("graph edges must be attended")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDensePattern(t *testing.T) {
	p := Dense(4)
	if p.NNZ() != 16 || p.Sparsity() != 1.0 {
		t.Fatalf("NNZ=%d sparsity=%v", p.NNZ(), p.Sparsity())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWithGlobalToken(t *testing.T) {
	p := ringPattern(5)
	pg := p.WithGlobalToken()
	if pg.S != 6 {
		t.Fatal("S must grow by 1")
	}
	for i := int32(0); i < 6; i++ {
		if !pg.Has(0, i) || !pg.Has(i, 0) {
			t.Fatalf("global token must attend/be attended by %d", i)
		}
	}
	// original pairs shifted by 1
	if !pg.Has(1, 2) || !pg.Has(2, 1) {
		t.Fatal("shifted pairs missing")
	}
	if err := pg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPatternPermuteRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := FromGraph(graph.ErdosRenyi(20, 0.2, rng))
		perm := graph.ShuffledIDs(20, rng)
		inv := make([]int32, 20)
		for o, n := range perm {
			inv[n] = int32(o)
		}
		q := p.Permute(perm).Permute(inv)
		if q.NNZ() != p.NNZ() {
			return false
		}
		for i := 0; i < p.S; i++ {
			for _, j := range p.Row(i) {
				if !q.Has(int32(i), j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterLayoutCounts(t *testing.T) {
	p := ringPattern(8)
	bounds := []int32{0, 4, 8}
	cl, err := NewClusterLayout(p, bounds)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range cl.NNZ {
		total += n
	}
	if int(total) != p.NNZ() {
		t.Fatalf("cluster NNZ %d != pattern NNZ %d", total, p.NNZ())
	}
	// ring 0..7 with halves: cross-cluster pairs are (3,4),(4,3),(7,0),(0,7)
	if cl.NNZ[0*2+1] != 2 || cl.NNZ[1*2+0] != 2 {
		t.Fatalf("off-diagonal counts wrong: %v", cl.NNZ)
	}
	if cl.DiagonalNNZFraction() <= 0.8 {
		t.Fatalf("diag fraction=%v", cl.DiagonalNNZFraction())
	}
}

func TestNewClusterLayoutRejectsBadBounds(t *testing.T) {
	p := ringPattern(8)
	if _, err := NewClusterLayout(p, []int32{0, 4}); err == nil {
		t.Fatal("expected error for bounds not covering S")
	}
}

func TestClusterSparsity(t *testing.T) {
	p := Dense(4)
	cl, _ := NewClusterLayout(p, []int32{0, 2, 4})
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			if cl.ClusterSparsity(a, b) != 1.0 {
				t.Fatal("dense pattern clusters must have β_C = 1")
			}
		}
	}
}

func TestReformZeroThresholdKeepsEverything(t *testing.T) {
	p := ringPattern(16)
	cl, _ := NewClusterLayout(p, []int32{0, 4, 8, 12, 16})
	r := Reform(cl, 4, 0)
	if r.Transferred != 0 || len(r.Blocks) != 0 {
		t.Fatalf("βthre=0 must transfer nothing: %d blocks", len(r.Blocks))
	}
	eff := r.EffectivePattern()
	if eff.NNZ() != p.NNZ() {
		t.Fatal("effective pattern must equal original")
	}
	for i := 0; i < p.S; i++ {
		for _, j := range p.Row(i) {
			if !eff.Has(int32(i), j) {
				t.Fatal("entry lost")
			}
		}
	}
}

func TestReformTransfersSparseClusters(t *testing.T) {
	// dense diagonal clusters + a few scattered cross entries
	var pairs []graph.Edge
	for c := 0; c < 2; c++ {
		base := int32(c * 8)
		for i := int32(0); i < 8; i++ {
			for j := int32(0); j < 8; j++ {
				pairs = append(pairs, graph.Edge{U: base + i, V: base + j})
			}
		}
	}
	pairs = append(pairs, graph.Edge{U: 1, V: 9}, graph.Edge{U: 3, V: 14}, graph.Edge{U: 6, V: 12})
	p := FromPairs(16, pairs)
	cl, _ := NewClusterLayout(p, []int32{0, 8, 16})
	r := Reform(cl, 2, 0.5)
	if r.Transferred != 1 {
		t.Fatalf("expected exactly the (0,1) cluster transferred, got %d", r.Transferred)
	}
	if len(r.Blocks) == 0 {
		t.Fatal("expected sub-blocks")
	}
	// diagonal clusters preserved exactly
	for i := int32(0); i < 8; i++ {
		for j := int32(0); j < 8; j++ {
			if !r.Keep.Has(i, j) {
				t.Fatal("dense diagonal entry lost")
			}
		}
	}
	// sub-blocks stay inside the transferred cluster's bounds
	for _, b := range r.Blocks {
		if b.Row0 < 0 || b.Row0+2 > 8 || b.Col0 < 8 || b.Col0+2 > 16 {
			t.Fatalf("block (%d,%d) escapes cluster (0,1)", b.Row0, b.Col0)
		}
	}
}

func TestReformIndolent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, _ := graph.SBM(graph.SBMConfig{BlockSizes: []int{32, 32, 32, 32}, AvgDegIn: 10, AvgDegOut: 1}, rng)
	p := FromGraph(g)
	cl, _ := NewClusterLayout(p, []int32{0, 32, 64, 96, 128})
	r := ReformIndolent(cl, 4)
	// diagonal clusters are denser than βG, so they must not be transferred
	if r.Transferred == 0 {
		t.Fatal("expected some sparse off-diagonal clusters transferred")
	}
	if r.Transferred >= r.Clusters {
		t.Fatal("indolent mode must keep the dense diagonal clusters")
	}
	if err := r.Keep.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: reformation never grows the attended-pair count above
// keep + blocks*db² and the effective pattern is always valid CSR.
func TestReformEffectiveBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, _ := graph.SBM(graph.SBMConfig{BlockSizes: []int{16, 16, 16, 16}, AvgDegIn: 6, AvgDegOut: 2}, rng)
		p := FromGraph(g)
		cl, err := NewClusterLayout(p, []int32{0, 16, 32, 48, 64})
		if err != nil {
			return false
		}
		db := 2 + rng.Intn(4)
		r := Reform(cl, db, rng.Float64()*0.2)
		eff := r.EffectivePattern()
		if eff.Validate() != nil {
			return false
		}
		return eff.NNZ() <= r.Keep.NNZ()+len(r.Blocks)*db*db
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestBetaSet(t *testing.T) {
	s := BetaSet(0.01)
	if len(s) != 7 || s[0] != 0 || s[6] != 1 {
		t.Fatalf("beta set wrong: %v", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Fatal("beta set must be non-decreasing for βG < 0.1")
		}
	}
}

func TestSnapAnchor(t *testing.T) {
	if snapAnchor(5, 0, 16, 4) != 4 {
		t.Fatal("snap down to grid")
	}
	if snapAnchor(15, 0, 16, 4) != 12 {
		t.Fatal("clamp so block fits")
	}
	if snapAnchor(1, 0, 3, 4) != 0 {
		t.Fatal("clamp to lo when range smaller than db")
	}
}

func TestBigBirdPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := BigBird(32, 2, 2, 1, rng)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 32; i++ {
		if !p.Has(i, i) {
			t.Fatal("bigbird must include self attention")
		}
		if !p.Has(i, 0) || !p.Has(0, i) {
			t.Fatal("bigbird global tokens must attend everything")
		}
	}
	if !p.Has(10, 11) || !p.Has(10, 8) {
		t.Fatal("window pairs missing")
	}
	// sparse relative to dense
	if p.Sparsity() > 0.5 {
		t.Fatalf("bigbird too dense: %v", p.Sparsity())
	}
}
