package gpusim

import (
	"math/rand"
	"testing"

	"torchgt/internal/graph"
	"torchgt/internal/sparse"
)

func TestCacheBasicHitMiss(t *testing.T) {
	c := NewCache(1024, 64, 2, nil)
	c.Access(0)
	if c.Hits != 0 || c.Misses != 1 {
		t.Fatal("first access must miss")
	}
	c.Access(32) // same line
	if c.Hits != 1 {
		t.Fatal("same-line access must hit")
	}
	c.Access(64) // next line
	if c.Misses != 2 {
		t.Fatal("new line must miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2 ways, 1 set configuration: size = 2 lines
	c := NewCache(128, 64, 2, nil)
	c.Access(0)      // miss
	c.Access(64 * 2) // miss (same set)
	c.Access(0)      // hit (still resident)
	c.Access(64 * 4) // miss, evicts LRU (line 2)
	c.Access(64 * 2) // miss (was evicted)
	if c.Hits != 1 || c.Misses != 4 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestCacheHierarchy(t *testing.T) {
	l2 := NewCache(4096, 64, 4, nil)
	l1 := NewCache(128, 64, 2, l2)
	// stream 8 lines: all L1 misses feed L2
	for i := 0; i < 8; i++ {
		l1.Access(int64(i * 64))
	}
	if l2.Misses != 8 {
		t.Fatalf("l2 misses=%d", l2.Misses)
	}
	// re-stream: L1 too small (2 lines) → misses again, but L2 holds them
	for i := 0; i < 8; i++ {
		l1.Access(int64(i * 64))
	}
	if l2.Hits != 8 {
		t.Fatalf("l2 hits=%d", l2.Hits)
	}
}

func buildLayout(t *testing.T, seed int64) *sparse.ClusterLayout {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sizes := make([]int, 8)
	for i := range sizes {
		sizes[i] = 128
	}
	g, _ := graph.SBM(graph.SBMConfig{BlockSizes: sizes, AvgDegIn: 10, AvgDegOut: 2}, rng)
	p := sparse.FromGraph(g)
	bounds := make([]int32, 9)
	for i := range bounds {
		bounds[i] = int32(i * 128)
	}
	cl, err := sparse.NewClusterLayout(p, bounds)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestSweepDbReproducesFig6Tradeoff(t *testing.T) {
	cl := buildLayout(t, 1)
	stats := SweepDb(cl, 1.0, []int{4, 8, 16, 32}, 64, RTX3090Spec)
	if len(stats) != 4 {
		t.Fatal("wrong sweep size")
	}
	// Fig 6a: L1 hit rates increase with db; occupancy falls; padding waste
	// grows (useful fraction shrinks).
	for i := 1; i < len(stats); i++ {
		if stats[i].L1HitRate < stats[i-1].L1HitRate-0.02 {
			t.Fatalf("L1 hit rate should rise with db: %v", stats)
		}
		if stats[i].WarpOccupancy > stats[i-1].WarpOccupancy+1e-9 {
			t.Fatalf("occupancy should fall with db: %+v", stats)
		}
		if stats[i].UsefulFraction > stats[i-1].UsefulFraction+1e-9 {
			t.Fatalf("useful fraction should fall with db: %+v", stats)
		}
	}
	if stats[len(stats)-1].WarpOccupancy >= stats[0].WarpOccupancy {
		t.Fatal("occupancy must strictly decrease over the sweep range")
	}
}

func TestThroughputPeaksMidRange(t *testing.T) {
	// Fig 6b: the best db should not be an extreme of the sweep for a
	// workload with enough blocks.
	cl := buildLayout(t, 2)
	stats := SweepDb(cl, 1.0, []int{2, 4, 8, 16, 32, 64}, 64, RTX3090Spec)
	best := 0
	for i, st := range stats {
		if st.Throughput > stats[best].Throughput {
			best = i
		}
	}
	if best == 0 || best == len(stats)-1 {
		t.Fatalf("throughput should peak mid-range, peaked at db=%d: %+v", stats[best].Db, stats)
	}
}

func TestChooseDbAgreesWithSweep(t *testing.T) {
	cl := buildLayout(t, 3)
	db := ChooseDb(cl, 1.0, 64, RTX3090Spec)
	found := false
	for _, cand := range []int{4, 8, 16, 32} {
		if db == cand {
			found = true
		}
	}
	if !found {
		t.Fatalf("ChooseDb returned out-of-set value %d", db)
	}
}

func TestChooseK(t *testing.T) {
	// paper example: RTX 3090 (6MB L2), d=64 → k=8 at S=64K... our rule:
	// panel = 2·(S/k)·d·4 ≤ 6MB. S=64K, d=64: S/k·512 ≤ 6MB → k ≥ 5.6 → 8.
	k := ChooseK(64<<10, 64, RTX3090Spec)
	if k != 8 {
		t.Fatalf("ChooseK(64K, 64, 3090) = %d, want 8", k)
	}
	// bigger L2 (A100) allows smaller k
	ka := ChooseK(64<<10, 64, A100Spec)
	if ka > k {
		t.Fatalf("A100's larger L2 must not need more clusters: %d vs %d", ka, k)
	}
	// k never exceeds S
	if ChooseK(4, 64, RTX3090Spec) > 4 {
		t.Fatal("k must be clamped to S")
	}
}

func TestA100ReachesMemoryLessOften(t *testing.T) {
	// A100's larger caches must reduce the fraction of accesses that fall
	// through to DRAM. (Raw L2 hit rate is not comparable: a larger L1
	// filters locality before L2 sees the stream.)
	cl := buildLayout(t, 4)
	r := sparse.Reform(cl, 16, 1.0)
	s3090 := SimulateIndexingWithWork(r, 0, 64, RTX3090Spec)
	sa100 := SimulateIndexingWithWork(r, 0, 64, A100Spec)
	mem3090 := (1 - s3090.L1HitRate) * (1 - s3090.L2HitRate)
	memA100 := (1 - sa100.L1HitRate) * (1 - sa100.L2HitRate)
	if memA100 > mem3090+0.01 {
		t.Fatalf("A100 should reach memory less often: %v vs %v", memA100, mem3090)
	}
}
