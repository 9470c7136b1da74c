package sparse

import (
	"sync"

	"torchgt/internal/tensor"
)

// The kernel indexes of a pattern: what the sparse attention kernels look
// up on every step but that depends only on the pattern. Each is built on
// first use, once per Pattern or Reformed, and shared read-only by every
// head, layer and rank that attends over it — so a pattern must not change
// after its first Index, Transpose or Coverage call. The tensor.CSR forms
// are validated when they are built and hold their own copies: the kernels
// check a matrix against their recorded largest index in O(1) per call, and
// the assembly under them never sees an index that was not checked.

// CSC is the transpose of a square pattern: the entries of column j, in
// ascending row order, are positions [ColPtr[j], ColPtr[j+1]); RowIdx holds
// their rows, and Pos[e] is the position of the pattern's CSR entry e.
// Index is the same index validated, columns as its rows.
type CSC struct {
	ColPtr []int32
	RowIdx []int32
	Pos    []int32
	Index  *tensor.CSR
}

// indexes holds a Pattern's or Reformed's lazily built kernel indexes.
type indexes struct {
	csrOnce sync.Once
	csr     *tensor.CSR
	once    sync.Once
	csc     *CSC
	cov     *Coverage
}

// Index returns the pattern's rows as a validated tensor.CSR, building it
// on first use.
func (p *Pattern) Index() *tensor.CSR {
	p.idx.csrOnce.Do(func() { p.idx.csr = tensor.NewCSR(p.RowPtr, p.ColIdx) })
	return p.idx.csr
}

// Transpose returns the pattern's CSC index, building it on first use.
func (p *Pattern) Transpose() *CSC {
	p.idx.once.Do(func() { p.idx.csc = buildCSC(p) })
	return p.idx.csc
}

func buildCSC(p *Pattern) *CSC {
	c := &CSC{
		ColPtr: make([]int32, p.S+1),
		RowIdx: make([]int32, p.NNZ()),
		Pos:    make([]int32, p.NNZ()),
	}
	for _, j := range p.ColIdx {
		c.ColPtr[j+1]++
	}
	for i := 0; i < p.S; i++ {
		c.ColPtr[i+1] += c.ColPtr[i]
	}
	next := append([]int32(nil), c.ColPtr[:p.S]...)
	for i := 0; i < p.S; i++ {
		for e := p.RowPtr[i]; e < p.RowPtr[i+1]; e++ {
			j := p.ColIdx[e]
			c.RowIdx[next[j]] = int32(i)
			c.Pos[e] = next[j]
			next[j]++
		}
	}
	c.Index = tensor.NewCSR(c.ColPtr, c.RowIdx)
	return c
}

// BlockRef locates one row of one sub-block: Blocks[Block], at offset Off
// from its Row0.
type BlockRef struct {
	Block int32
	Off   int32
}

// Coverage indexes a Reformed layout's sub-blocks by the sequence positions
// they cover: Rows[i] lists the blocks with a row at position i, in block
// order. Tile is the Db×Db rectangle of one sub-block's cells, row-major, as
// a validated CSR.
type Coverage struct {
	Rows [][]BlockRef
	Tile *tensor.CSR
}

// Coverage returns the layout's block coverage index, building it on first
// use.
func (r *Reformed) Coverage() *Coverage {
	r.idx.once.Do(func() { r.idx.cov = buildCoverage(r) })
	return r.idx.cov
}

func buildCoverage(r *Reformed) *Coverage {
	c := &Coverage{Rows: make([][]BlockRef, r.S), Tile: tensor.DenseCSR(r.Db, r.Db)}
	db := int32(r.Db)
	for b, blk := range r.Blocks {
		for off := int32(0); off < db; off++ {
			if ri := blk.Row0 + off; ri < int32(r.S) {
				c.Rows[ri] = append(c.Rows[ri], BlockRef{int32(b), off})
			}
		}
	}
	return c
}
