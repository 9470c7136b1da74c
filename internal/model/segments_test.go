package model

import (
	"math"
	"math/rand"
	"testing"

	"torchgt/internal/graph"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// TestNodeFormSegRowsMatchesPerSegmentCalls pins the packed node form (no
// global token): one forward/backward over a block-diagonal pack of ragged
// segments — a one-node segment among them — returns, row for row, the logits
// of separate per-segment calls and leaves every parameter gradient and every
// dropout stream where those calls, made in order, leave them. Dropout,
// degree encodings and the SPD bias table are on.
func TestNodeFormSegRowsMatchesPerSegmentCalls(t *testing.T) {
	cfg := GraphormerSlim(6, 3, 17)
	cfg.Layers, cfg.Heads = 2, 2
	loop, packed := NewGraphTransformer(cfg), NewGraphTransformer(cfg)
	rng := rand.New(rand.NewSource(18))
	sizes := []int{5, 1, 9, 2, 32, 7}
	var (
		packer  = sparse.NewPacker()
		in      = &Inputs{X: tensor.New(0, 6), SegRows: []int32{0}}
		want    []*tensor.Mat
		dLogits []*tensor.Mat
	)
	for s, n := range sizes {
		g := graph.ErdosRenyi(n, 0.3, rng)
		seg := tinyInputs(g, 6, int64(19+s))
		spec := sparseSpec(g)
		logits := loop.Forward(seg, spec, true)
		want = append(want, logits)
		dl := tensor.New(n, 3)
		tensor.RandN(dl, rng, 1)
		for i := range dl.Data[3:] { // as in ego training, mostly the first row carries loss
			if s%2 == 0 {
				dl.Data[3+i] = 0
			}
		}
		dLogits = append(dLogits, dl)
		loop.Backward(dl)

		in.X.Data = append(in.X.Data, seg.X.Data...)
		in.X.Rows += n
		in.DegInIdx = append(in.DegInIdx, seg.DegInIdx...)
		in.DegOutIdx = append(in.DegOutIdx, seg.DegOutIdx...)
		in.SegRows = append(in.SegRows, int32(in.X.Rows))
		packer.Append(spec.Pattern, spec.EdgeBuckets)
	}
	spec := &AttentionSpec{Mode: ModeSparse, Pattern: packer.Pattern(), EdgeBuckets: packer.Buckets()}
	got := packed.Forward(in, spec, true)
	if got.Rows != in.X.Rows {
		t.Fatalf("packed node form returned %d rows for %d", got.Rows, in.X.Rows)
	}
	dl := tensor.New(got.Rows, got.Cols)
	for s := range sizes {
		lo, hi := int(in.SegRows[s]), int(in.SegRows[s+1])
		if i, ok := bitsEqual(got.Data[lo*3:hi*3], want[s].Data); !ok {
			t.Fatalf("segment %d logit %d: %v packed, %v alone", s, i, got.Data[lo*3+i], want[s].Data[i])
		}
		copy(dl.Data[lo*3:hi*3], dLogits[s].Data)
	}
	packed.Backward(dl)
	pl, pp := loop.Params(), packed.Params()
	for x := range pl {
		if pl[x].Grad.MaxAbs() == 0 {
			t.Fatalf("param %s got no gradient", pl[x].Name)
		}
		if i, ok := bitsEqual(pp[x].Grad.Data, pl[x].Grad.Data); !ok {
			t.Fatalf("param %s grad[%d]: %v packed, %v per-segment (not bitwise)",
				pl[x].Name, i, pp[x].Grad.Data[i], pl[x].Grad.Data[i])
		}
	}
	dLoop, dPacked := loop.Dropouts(), packed.Dropouts()
	for i := range dLoop {
		if dLoop[i].RNGDraws() != dPacked[i].RNGDraws() || dLoop[i].RNGDraws() == 0 {
			t.Fatalf("dropout %d drew %d packed, %d per-segment", i, dPacked[i].RNGDraws(), dLoop[i].RNGDraws())
		}
	}

	// An unpacked call afterwards clears the bounds again.
	g := graph.ErdosRenyi(8, 0.3, rng)
	a, b := loop.Forward(tinyInputs(g, 6, 40), sparseSpec(g), false), packed.Forward(tinyInputs(g, 6, 40), sparseSpec(g), false)
	if i, ok := bitsEqual(a.Data, b.Data); !ok {
		t.Fatalf("unpacked forward after a packed one: logit %d differs", i)
	}
	packed.Backward(tensor.New(8, 3)) // whole-input reduction: would panic under stale 56-row bounds
}

func bitsEqual(a, b []float32) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestSegRowsMalformedBoundsPanic: bounds that do not ascend from 0 to the
// feature rows panic in Forward — for the graph-level form as they always
// did (there by reading through them), and for the node form.
func TestSegRowsMalformedBoundsPanic(t *testing.T) {
	for _, global := range []bool{true, false} {
		cfg := GraphormerSlim(4, 2, 7)
		cfg.Layers, cfg.Heads, cfg.GlobalToken = 1, 2, global
		m := NewGraphTransformer(cfg)
		g := tinyGraph(4, 9)
		p := sparse.FromGraph(g)
		if global {
			p = p.WithGlobalToken()
		}
		spec := &AttentionSpec{Mode: ModeSparse, Pattern: p, EdgeBuckets: make([]int32, p.NNZ())}
		for _, bounds := range [][]int32{{}, {0, 12}, {0, 5}, {1, 9}, {0, 6, 3, 9}} {
			in := tinyInputs(g, 4, 8)
			in.SegRows = bounds
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("global=%v bounds %v: no panic", global, bounds)
					}
				}()
				m.Forward(in, spec, false)
			}()
		}
		in := tinyInputs(g, 4, 8)
		in.SegRows = []int32{0, 9}
		want := 9
		if global {
			want = 1
		}
		if got := m.Forward(in, spec, false); got.Rows != want {
			t.Fatalf("global=%v: one-segment pack returned %d rows, want %d", global, got.Rows, want)
		}
	}
}
