package model

import (
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// rowSchedule is the receptive field of a Targets forward under a sparse
// spec: the rows each block must compute for the target rows to come out
// right. Under a topology pattern a row's layer-ℓ output reads its own
// layer-(ℓ−1) row (the residual) and the rows of its pattern row (the keys
// and values), so walking the pattern backward from the targets gives
//
//	O_L = the sorted distinct targets,
//	I_ℓ = O_ℓ ∪ the pattern columns of the rows in O_ℓ,   O_ℓ−1 = I_ℓ,
//
// where block ℓ reads rows I_ℓ and computes rows O_ℓ. Block 1 reads I_1
// gathered from the embedding, which covers every row. Every row-wise layer
// computes a row from that row alone with arithmetic that does not depend on
// how many rows are present, and a sparse attention row reads only its
// pattern row's keys and values, in CSR order, so each computed row has the
// bits the full forward gives it (DESIGN.md "Serving").
//
// A schedule belongs to one model (one serving replica) and keeps its
// buffers across calls: steady-state builds allocate nothing.
type rowSchedule struct {
	mark []bool  // per sequence row: in the set being built
	pos  []int32 // per sequence row: its position within the last set built
	// sets[ℓ] is O_ℓ as ascending sequence rows, ℓ = 0…L; sets[ℓ−1] = I_ℓ.
	sets   [][]int32
	blocks []blockRows
	final  []int32 // position within O_L of each target, in Targets order
}

// blockRows is one block's share of a schedule.
type blockRows struct {
	rows []int32        // positions of O_ℓ within I_ℓ; nil when O_ℓ = I_ℓ
	spec *AttentionSpec // the pattern restricted to rows O_ℓ, columns renumbered into I_ℓ

	own                             AttentionSpec
	pat                             sparse.Pattern
	rowBuf, rowPtr, colIdx, buckets []int32
}

// build schedules a forward of layers blocks under spec (ModeSparse) whose
// logits are read at targets only (sequence rows in range; duplicates and
// any order allowed).
func (s *rowSchedule) build(spec *AttentionSpec, targets []int32, layers int) {
	p := spec.Pattern
	s.mark = grow(s.mark, p.S)
	clear(s.mark)
	s.pos = grow(s.pos, p.S)
	for len(s.sets) <= layers {
		s.sets = append(s.sets, nil)
	}
	for len(s.blocks) < layers {
		s.blocks = append(s.blocks, blockRows{})
	}

	for _, t := range targets {
		s.mark[t] = true
	}
	s.collect(layers)
	s.final = s.final[:0]
	for _, t := range targets {
		s.final = append(s.final, s.pos[t])
	}
	for l := layers; l >= 1; l-- {
		out := s.sets[l]
		for _, r := range out {
			s.mark[r] = true // the residual: a row reads itself even without a self-loop
			for _, c := range p.Row(int(r)) {
				s.mark[c] = true
			}
		}
		in := s.collect(l - 1)
		b := &s.blocks[l-1]
		b.rows = nil
		if len(out) < len(in) {
			b.rowBuf = b.rowBuf[:0]
			for _, r := range out {
				b.rowBuf = append(b.rowBuf, s.pos[r])
			}
			b.rows = b.rowBuf
		}
		if len(out) == p.S {
			b.spec = spec
			continue
		}
		b.rowPtr = append(b.rowPtr[:0], 0)
		b.colIdx, b.buckets = b.colIdx[:0], b.buckets[:0]
		for _, r := range out {
			e0, e1 := p.RowPtr[r], p.RowPtr[r+1]
			for _, c := range p.ColIdx[e0:e1] {
				b.colIdx = append(b.colIdx, s.pos[c])
			}
			if spec.EdgeBuckets != nil {
				b.buckets = append(b.buckets, spec.EdgeBuckets[e0:e1]...)
			}
			b.rowPtr = append(b.rowPtr, int32(len(b.colIdx)))
		}
		b.pat = sparse.Pattern{S: len(out), RowPtr: b.rowPtr, ColIdx: b.colIdx}
		b.own = AttentionSpec{Mode: ModeSparse, BF16: spec.BF16, Pattern: &b.pat}
		if spec.EdgeBuckets != nil {
			b.own.EdgeBuckets = b.buckets
		}
		b.spec = &b.own
	}
}

// collect turns the marked rows into sets[l], ascending, clearing the marks
// and recording each row's position in pos.
func (s *rowSchedule) collect(l int) []int32 {
	set := s.sets[l][:0]
	for r, in := range s.mark {
		if in {
			s.pos[r] = int32(len(set))
			set = append(set, int32(r))
			s.mark[r] = false
		}
	}
	s.sets[l] = set
	return set
}

// first is what block 1 reads of the embedding: the rows of I_1, or nil when
// that is all of them.
func (s *rowSchedule) first() []int32 {
	if len(s.sets[0]) == len(s.mark) {
		return nil
	}
	return s.sets[0]
}

// grow returns buf resized to n elements, reusing its storage when it can.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// pickRows gathers rows of m, in order, into a workspace matrix; nil rows
// means all of m, returned as is.
func pickRows(ws *tensor.Workspace, m *tensor.Mat, rows []int32) *tensor.Mat {
	if rows == nil {
		return m
	}
	out := ws.GetUninit(len(rows), m.Cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(int(r)))
	}
	return out
}
