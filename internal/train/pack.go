package train

import (
	"torchgt/internal/model"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// packRows is the row budget of one packed forward/backward, for both
// trainers: a pack is flushed before a segment that would take it past this
// many feature rows, and a longer segment runs alone. Longer packs run a
// little faster, but activations grow with the pack — a whole batch of
// graphs with hundreds of nodes in one forward multiplies peak RSS. The
// budget changes wall-clock and memory only: every pack size yields the same
// bits. The sizing tables are in DESIGN.md "Locality: reordering and packing".
const packRows = 256

// pack is a block-diagonal packed batch under construction, shared by the
// graph-level trainer (a run of small graphs) and the ego trainer (a run of
// sampled contexts): the segments' features, degree buckets and PEs
// concatenated in the order added, each segment's pattern shifted onto its
// diagonal block with its edge buckets verbatim (sparse.Packer), and the
// feature-row bounds by which the model segments its row reductions — so one
// forward/backward over the pack accumulates exactly what one per segment, in
// that order, would. The pack owns its buffers and reuses them across reset
// cycles; in and spec alias them and are valid until the next reset. The zero
// value is ready for reset.
type pack struct {
	packer sparse.Packer
	x, lap tensor.Mat
	in     model.Inputs
}

// reset empties the pack, keeping capacity.
func (p *pack) reset() {
	p.packer.Reset()
	p.x = tensor.Mat{Data: p.x.Data[:0]}
	p.lap = tensor.Mat{Data: p.lap.Data[:0]}
	p.in = model.Inputs{
		X: &p.x, DegInIdx: p.in.DegInIdx[:0], DegOutIdx: p.in.DegOutIdx[:0],
		SegRows: append(p.in.SegRows[:0], 0),
	}
}

// add appends one segment: its inputs (copied; in is not retained), its
// pattern over its own token sequence — global token included, for models
// that have one — and that pattern's per-entry bias buckets.
func (p *pack) add(in *model.Inputs, pat *sparse.Pattern, buckets []int32) {
	appendRows(&p.x, in.X)
	p.in.DegInIdx = append(p.in.DegInIdx, in.DegInIdx...)
	p.in.DegOutIdx = append(p.in.DegOutIdx, in.DegOutIdx...)
	if in.LapPE != nil {
		appendRows(&p.lap, in.LapPE)
		p.in.LapPE = &p.lap
	}
	p.in.SegRows = append(p.in.SegRows, int32(p.x.Rows))
	p.packer.Append(pat, buckets)
}

// rows reports how many feature rows the pack holds.
func (p *pack) rows() int { return p.x.Rows }

// spec is the sparse attention spec over the packed pattern.
func (p *pack) spec(bf16 bool) *model.AttentionSpec {
	return &model.AttentionSpec{
		Mode: model.ModeSparse, Pattern: p.packer.Pattern(), EdgeBuckets: p.packer.Buckets(), BF16: bf16,
	}
}

// appendRows appends src's rows to dst.
func appendRows(dst, src *tensor.Mat) {
	dst.Data = append(dst.Data, src.Data...)
	dst.Rows, dst.Cols = dst.Rows+src.Rows, src.Cols
}
