package sparse

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"torchgt/internal/graph"
	"torchgt/internal/tensor"
)

// TestIndexesSharedAcrossGoroutines: heads, layers and ranks ask for a
// pattern's indexes at once; every caller gets the one index, built once,
// and it is the transpose and the block coverage of the layout.
func TestIndexesSharedAcrossGoroutines(t *testing.T) {
	const s = 40
	rng := rand.New(rand.NewSource(3))
	var pairs []graph.Edge
	for i := 0; i < s; i++ {
		for _, j := range rng.Perm(s)[:rng.Intn(9)] {
			pairs = append(pairs, graph.Edge{U: int32(i), V: int32(j)})
		}
	}
	r := &Reformed{S: s, Db: 4, Keep: FromPairs(s, pairs), Blocks: []SubBlock{{Row0: 0, Col0: 8}, {Row0: 2, Col0: 8}, {Row0: 38, Col0: 36}}}
	const n = 8
	cscs, covs, csrs := make([]*CSC, n), make([]*Coverage, n), make([]*tensor.CSR, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cscs[g], covs[g], csrs[g] = r.Keep.Transpose(), r.Coverage(), r.Keep.Index()
		}()
	}
	wg.Wait()
	for g := 1; g < n; g++ {
		if cscs[g] != cscs[0] || covs[g] != covs[0] || csrs[g] != csrs[0] {
			t.Fatal("callers got different indexes: built more than once")
		}
	}

	p, c := r.Keep, cscs[0]
	seen := 0
	for j := 0; j < s; j++ {
		prev := int32(-1)
		for x := c.ColPtr[j]; x < c.ColPtr[j+1]; x++ {
			i := c.RowIdx[x]
			if i <= prev || !p.Has(i, int32(j)) {
				t.Fatalf("column %d: row %d out of order or not in the pattern", j, i)
			}
			prev = i
			seen++
		}
	}
	if seen != p.NNZ() {
		t.Fatalf("transpose holds %d entries, pattern %d", seen, p.NNZ())
	}
	for i := 0; i < s; i++ {
		for e := p.RowPtr[i]; e < p.RowPtr[i+1]; e++ {
			if x := c.Pos[e]; c.RowIdx[x] != int32(i) || x < c.ColPtr[p.ColIdx[e]] || x >= c.ColPtr[p.ColIdx[e]+1] {
				t.Fatalf("Pos[%d] = %d does not locate entry (%d, %d)", e, x, i, p.ColIdx[e])
			}
		}
	}

	cov := covs[0]
	for i := 0; i < s; i++ {
		var want []BlockRef
		for b, blk := range r.Blocks {
			if off := int32(i) - blk.Row0; off >= 0 && off < 4 {
				want = append(want, BlockRef{int32(b), off})
			}
		}
		if !slices.Equal(cov.Rows[i], want) {
			t.Fatalf("position %d: coverage rows %v, want %v", i, cov.Rows[i], want)
		}
	}
	if tile := cov.Tile; tile.Rows() != r.Db || tile.NNZ() != r.Db*r.Db {
		t.Fatalf("tile index %d rows, %d entries; want %d, %d", tile.Rows(), tile.NNZ(), r.Db, r.Db*r.Db)
	}
	if ix := c.Index; ix.Rows() != s || ix.NNZ() != p.NNZ() {
		t.Fatalf("transpose index %d rows, %d entries; want %d, %d", ix.Rows(), ix.NNZ(), s, p.NNZ())
	}
}
