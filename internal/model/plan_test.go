package model

import (
	"testing"

	"torchgt/internal/dist"
	"torchgt/internal/nn"
	"torchgt/internal/tensor"
)

// seqparModel builds a model under the given plan with deterministic weights.
func seqparModel(seed int64, heads int, p Plan) (*GraphTransformer, *Inputs, *AttentionSpec) {
	cfg := GraphormerSlim(6, 3, seed)
	cfg.Layers = 2
	cfg.Heads = heads
	cfg.Hidden = 8 * heads
	cfg.Dropout = 0
	m := NewGraphTransformer(cfg)
	if p != nil {
		m.SetPlan(p)
	}
	g := tinyGraph(11, 19) // 19 rows: not divisible by 2 or 4 → uneven shards
	in := tinyInputs(g, 6, 12)
	return m, in, sparseSpec(g)
}

// TestSeqParallelMatchesSerial pins the tentpole invariant: the sequence-
// parallel plan is bitwise identical to serial execution — logits and every
// parameter gradient — at P ∈ {1, 2, 4}, including when P does not divide S
// (uneven and short shards) and across repeated steps (workspace recycling).
func TestSeqParallelMatchesSerial(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		serial, in, spec := seqparModel(3, 4, NewRuntime(ExecOptions{Workers: 1}))
		sp := NewSeqParallel(p, ExecOptions{PoolEnabled: true})
		par, _, _ := seqparModel(3, 4, sp)

		for step := 0; step < 3; step++ {
			ls := serial.Forward(in, spec, true)
			lp := par.Forward(in, spec, true)
			if !ls.Equal(lp, 0) {
				t.Fatalf("P=%d step %d: sequence-parallel logits differ", p, step)
			}
			dl := tensor.New(ls.Rows, ls.Cols)
			dl.Fill(0.25)
			serial.Backward(dl)
			par.Backward(dl)
			ps, pp := serial.Params(), par.Params()
			for i := range ps {
				if !ps[i].Grad.Equal(pp[i].Grad, 0) {
					t.Fatalf("P=%d step %d: grad %s differs under sequence parallelism", p, step, ps[i].Name)
				}
			}
			sp.SyncGradients(pp)
			nn.ZeroGrads(ps)
			nn.ZeroGrads(pp)
			serial.Plan().StepReset()
			sp.StepReset()
		}
		if p > 1 && sp.Comm().TotalBytes() == 0 {
			t.Fatalf("P=%d: no communication recorded", p)
		}
		if p > 1 {
			st := sp.AllocStats()
			if st.Gets == 0 || st.PoolHits == 0 {
				t.Fatalf("P=%d: per-rank workspaces not exercised: %+v", p, st)
			}
		}
	}
}

// TestSeqParallelShortSequence covers S < P: some ranks own empty shards but
// still compute their heads over the gathered full sequence.
func TestSeqParallelShortSequence(t *testing.T) {
	serial, _, _ := seqparModel(5, 4, nil)
	sp := NewSeqParallel(4, ExecOptions{PoolEnabled: true})
	par, _, _ := seqparModel(5, 4, sp)

	g := tinyGraph(7, 3) // S=3 < P=4 → rank 3's shard is empty
	in := tinyInputs(g, 6, 9)
	spec := sparseSpec(g)

	ls := serial.Forward(in, spec, true)
	lp := par.Forward(in, spec, true)
	if !ls.Equal(lp, 0) {
		t.Fatal("short-sequence logits differ")
	}
	dl := tensor.New(ls.Rows, ls.Cols)
	dl.Fill(-0.5)
	serial.Backward(dl)
	par.Backward(dl)
	ps, pp := serial.Params(), par.Params()
	for i := range ps {
		if !ps[i].Grad.Equal(pp[i].Grad, 0) {
			t.Fatalf("short-sequence grad %s differs", ps[i].Name)
		}
	}
}

// TestSeqParallelShardBounds checks the ceil-based sharding contract,
// including the empty tail shard.
func TestSeqParallelShardBounds(t *testing.T) {
	cases := []struct {
		p, s  int
		spans [][2]int
	}{
		{p: 2, s: 8, spans: [][2]int{{0, 4}, {4, 8}}},
		{p: 4, s: 10, spans: [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 10}}},
		{p: 4, s: 9, spans: [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 9}}}, // empty tail
		{p: 4, s: 3, spans: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 3}}},
		{p: 1, s: 5, spans: [][2]int{{0, 5}}},
	}
	for _, tc := range cases {
		sp := NewSeqParallel(tc.p, ExecOptions{})
		prev := 0
		for r := 0; r < tc.p; r++ {
			lo, hi := sp.Shard(r, tc.s)
			if lo != tc.spans[r][0] || hi != tc.spans[r][1] {
				t.Fatalf("P=%d S=%d rank %d: [%d,%d), want %v", tc.p, tc.s, r, lo, hi, tc.spans[r])
			}
			if lo != prev {
				t.Fatalf("P=%d S=%d rank %d: gap at %d", tc.p, tc.s, r, lo)
			}
			prev = hi
		}
		if prev != tc.s {
			t.Fatalf("P=%d S=%d: shards cover %d rows", tc.p, tc.s, prev)
		}
	}
}

// TestSeqParallelRejectsIndivisibleHeads: the head distribution requires
// Heads % P == 0 (each rank owns whole heads).
func TestSeqParallelRejectsIndivisibleHeads(t *testing.T) {
	sp := NewSeqParallel(3, ExecOptions{PoolEnabled: true})
	m, in, spec := seqparModel(2, 4, sp) // 4 heads, 3 ranks
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on heads not divisible by ranks")
		}
	}()
	m.Forward(in, spec, true)
}

// TestSeqParallelStepMovesReshardTerm ties measurement to model in one
// assertion: when P divides S, one in-process optimiser step (forward,
// backward, SyncGradients) moves, summed over the ranks, exactly P times the
// per-rank reshard term of dist.ModelShape.SeqParCommBytes — the eight
// all-to-alls per layer and nothing else. The ranks share one gradient, so
// the chain and gather terms of the cross-process plan have no counterpart.
func TestSeqParallelStepMovesReshardTerm(t *testing.T) {
	const s = 24
	for _, p := range []int{1, 2, 4} {
		sp := NewSeqParallel(p, ExecOptions{PoolEnabled: true})
		m, _, _ := seqparModel(7, 4, sp)
		g := tinyGraph(13, s)
		in, spec := tinyInputs(g, 6, 14), sparseSpec(g)
		shape := dist.ModelShape{Layers: m.Cfg.Layers, Hidden: m.Cfg.Hidden, Heads: m.Cfg.Heads, OutDim: m.Cfg.OutDim}
		reshard, _, _ := shape.SeqParCommBytes(s, p)
		for step := 1; step <= 2; step++ {
			logits := m.Forward(in, spec, true)
			dl := tensor.New(logits.Rows, logits.Cols)
			dl.Fill(0.25)
			m.Backward(dl)
			sp.SyncGradients(m.Params())
			nn.ZeroGrads(m.Params())
			sp.StepReset()
			if got, want := sp.Comm().TotalBytes(), int64(step*p)*int64(reshard); got != want {
				t.Fatalf("P=%d: %d steps moved %d bytes, the model's reshard term gives %d", p, step, got, want)
			}
		}
	}
}
