package model

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"torchgt/internal/dist/transport"
	"torchgt/internal/graph"
	"torchgt/internal/nn"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// oneRank builds a sequence-parallel group of one, the serial engine. Pooled
// it is the plan NewGraphTransformer installs; unpooled under
// tensor.SetWorkers(1) it is the sequential reference: heads in order, every
// buffer from the heap.
func oneRank(pooled bool) *DistSeqParallel {
	plan, err := NewDistSeqParallel(transport.NewMem(1)[0], 1, ExecOptions{PoolEnabled: pooled})
	if err != nil {
		panic(err)
	}
	return plan
}

// engine is one way to execute a model: plans builds one plan per rank (one
// model replica each), and workers is the tensor.Workers() count the engine
// runs under (0 leaves it as it is).
type engine struct {
	name    string
	workers int
	plans   func() []Plan
}

// engines lists the sequential reference first, then every engine that must
// reproduce it bit for bit: one-rank pooled plans whose heads fan out over 2
// and 3 goroutines, the in-process SeqParallel at P = 2, and two
// DistSeqParallel ranks over the in-process transport.
func engines() []engine {
	return []engine{
		{"sequential", 1, func() []Plan { return []Plan{oneRank(false)} }},
		{"one-rank/workers=2", 2, func() []Plan { return []Plan{oneRank(true)} }},
		{"one-rank/workers=3", 3, func() []Plan { return []Plan{oneRank(true)} }},
		{"seqpar/P=2", 0, func() []Plan { return []Plan{NewSeqParallel(2, ExecOptions{PoolEnabled: true})} }},
		{"dist-mem/P=2", 0, func() []Plan {
			ts := transport.NewMem(2)
			plans := make([]Plan, len(ts))
			for r, tr := range ts {
				p, err := NewDistSeqParallel(tr, 1, ExecOptions{PoolEnabled: true})
				if err != nil {
					panic(err)
				}
				plans[r] = p
			}
			return plans
		}},
	}
}

// each runs body(r) for every rank concurrently — the ranks of a group meet
// in collectives — under the engine's worker count.
func (e engine) each(ranks int, body func(r int)) {
	if e.workers > 0 {
		defer tensor.SetWorkers(tensor.SetWorkers(e.workers))
	}
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(r)
		}()
	}
	wg.Wait()
}

// allModeSpecs is one spec per attention kernel family over g (split into
// two clusters at row cut for the cluster-sparse kernel), each carrying
// bias buckets where the kernel takes them.
func allModeSpecs(tb testing.TB, g *graph.Graph, cut int32) []*AttentionSpec {
	tb.Helper()
	cl, err := sparse.NewClusterLayout(sparse.FromGraph(g), []int32{0, cut, int32(g.N)})
	if err != nil {
		tb.Fatal(err)
	}
	r := sparse.Reform(cl, 2, 1.0)
	keepBuckets := make([]int32, r.Keep.NNZ())
	for i := range keepBuckets {
		keepBuckets[i] = 1
	}
	return []*AttentionSpec{
		{Mode: ModeDense, DenseBuckets: g.AllPairsSPD(6)},
		{Mode: ModeFlash},
		{Mode: ModeFlash, BF16: true},
		sparseSpec(g),
		{Mode: ModeClusterSparse, Reformed: r, KeepBuckets: keepBuckets},
		{Mode: ModeKernelized},
	}
}

func specName(s *AttentionSpec) string {
	if s.BF16 {
		return s.Mode.String() + "-bf16"
	}
	return s.Mode.String()
}

// mustBits fails unless got and want carry the same bits.
func mustBits(t *testing.T, what string, want, got []float32) {
	t.Helper()
	if i, ok := sameBits(want, got); !ok {
		t.Fatalf("%s differs at element %d", what, i)
	}
}

// TestHeadParallelMatchesSequential trains the same weights under every
// engine and attention mode (19 rows, which neither P = 2 nor the head
// goroutines divide evenly; the SPD bias table on): for three steps each
// rank's logits and synchronised parameter gradients must be the sequential
// reference's, bit for bit.
func TestHeadParallelMatchesSequential(t *testing.T) {
	g := tinyGraph(11, 19)
	in := tinyInputs(g, 6, 12)
	for _, spec := range allModeSpecs(t, g, 10) {
		var wantLogits, wantGrads [][]float32
		for _, e := range engines() {
			plans := e.plans()
			models := make([]*GraphTransformer, len(plans))
			for r, p := range plans {
				models[r], _, _ = seqparModel(3, 4, p)
			}
			for step := 0; step < 3; step++ {
				logits := make([][]float32, len(models))
				grads := make([][]float32, len(models))
				e.each(len(models), func(r int) {
					m := models[r]
					l := m.Forward(in, spec, true)
					logits[r] = append([]float32(nil), l.Data...)
					dl := tensor.New(l.Rows, l.Cols)
					tensor.RandN(dl, rand.New(rand.NewSource(int64(step))), 1)
					m.Backward(dl)
					if dp := AsDistSeqParallel(m.Plan()); dp != nil {
						dp.SyncGradients(m.Params())
					}
					for _, p := range m.Params() {
						grads[r] = append(grads[r], p.Grad.Data...)
					}
					nn.ZeroGrads(m.Params())
					m.Plan().StepReset()
				})
				if len(wantLogits) == step {
					wantLogits, wantGrads = append(wantLogits, logits[0]), append(wantGrads, grads[0])
				}
				for r := range models {
					tag := fmt.Sprintf("%s/%s rank %d step %d", specName(spec), e.name, r, step)
					mustBits(t, tag+": logits", wantLogits[step], logits[r])
					mustBits(t, tag+": gradients", wantGrads[step], grads[r])
				}
			}
		}
	}
}

// TestHeadParallelAllModes runs one model through every kernel family in
// turn — the kernels of one mode left on the heads when the next starts —
// with its heads fanned out over four goroutines (run with -race in CI:
// heads share Q/K/V read-only and write disjoint output columns and
// bias-grad entries), and checks every step against a sequential model
// taking the same turns.
func TestHeadParallelAllModes(t *testing.T) {
	g := tinyGraph(2, 12)
	in := tinyInputs(g, 6, 4)
	cfg := GraphormerSlim(6, 3, 3)
	cfg.Layers, cfg.Dropout = 1, 0
	seq, par := NewGraphTransformer(cfg), NewGraphTransformer(cfg)
	seq.SetPlan(oneRank(false))
	dl := tensor.New(12, 3)
	dl.Fill(0.1)
	run := func(m *GraphTransformer, workers int, spec *AttentionSpec) (logits, grads []float32) {
		defer tensor.SetWorkers(tensor.SetWorkers(workers))
		l := m.Forward(in, spec, true)
		if l.Rows != 12 || l.Cols != 3 {
			t.Fatalf("mode %s: bad shape %v", specName(spec), l)
		}
		m.Backward(dl)
		for _, p := range m.Params() {
			grads = append(grads, p.Grad.Data...)
		}
		nn.ZeroGrads(m.Params())
		return append([]float32(nil), l.Data...), grads
	}
	for _, spec := range allModeSpecs(t, g, 6) {
		for step := 0; step < 2; step++ {
			wantL, wantG := run(seq, 1, spec)
			gotL, gotG := run(par, 4, spec)
			tag := fmt.Sprintf("mode %s step %d", specName(spec), step)
			mustBits(t, tag+": logits", wantL, gotL)
			mustBits(t, tag+": gradients", wantG, gotG)
		}
	}
}

// TestPooledModelMatchesUnpooled pins down that workspace pooling changes no
// numbers across repeated steps (buffer recycling must not leak state).
func TestPooledModelMatchesUnpooled(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	plain, in, spec := seqparModel(9, 4, oneRank(false))
	pooled, _, _ := seqparModel(9, 4, oneRank(true))
	for step := 0; step < 4; step++ {
		a := plain.Forward(in, spec, true)
		b := pooled.Forward(in, spec, true)
		if !a.Equal(b, 0) {
			t.Fatalf("step %d: pooled forward differs", step)
		}
		dl := tensor.New(a.Rows, a.Cols)
		dl.Fill(0.3)
		plain.Backward(dl)
		pooled.Backward(dl)
		pa, pb := plain.Params(), pooled.Params()
		for i := range pa {
			if !pa[i].Grad.Equal(pb[i].Grad, 0) {
				t.Fatalf("step %d: pooled grad %s differs", step, pa[i].Name)
			}
		}
		nn.ZeroGrads(pa)
		nn.ZeroGrads(pb)
		pooled.Plan().StepReset()
	}
	st := pooled.Plan().AllocStats()
	if st.Gets == 0 || st.PoolHits == 0 {
		t.Fatalf("pooled engine not exercised: %+v", st)
	}
}

// TestSerialPlanDefaults: a fresh model runs on a pooled sequence-parallel
// group of one — one rank, one replica, nothing to reshard or chain — while
// zero ExecOptions leave pooling off.
func TestSerialPlanDefaults(t *testing.T) {
	m := NewGraphTransformer(GraphormerSlim(6, 3, 1))
	dp := AsDistSeqParallel(m.Plan())
	if dp == nil {
		t.Fatalf("a fresh model's plan is %T, want *DistSeqParallel", m.Plan())
	}
	if dp.Ranks() != 1 || dp.P != 1 || dp.R != 1 || dp.Transport().World() != 1 {
		t.Fatalf("a fresh model's plan is P=%d R=%d over a world of %d, want one rank", dp.P, dp.R, dp.Transport().World())
	}
	if dp.gradChain() != nil {
		t.Fatal("a group of one chains no gradients")
	}
	if dp.workspace() == nil || dp.u.ws == nil {
		t.Fatal("the default plan is pooled")
	}
	plain := oneRank(false)
	plain.StepReset() // no-op on the heap
	if plain.workspace() != nil || plain.u.ws != nil {
		t.Fatal("zero options leave pooling off")
	}
	if st := plain.AllocStats(); st != (tensor.WorkspaceStats{}) {
		t.Fatalf("an unpooled plan counts no workspace traffic: %+v", st)
	}
}

// TestFlashMHAPlansBitwise pins the flash kernel's place in the plans: its
// backward is serial within a head, so all its parallelism is the plans'
// head fan-out or head distribution. Every engine must produce the
// sequential reference's bits, forward and backward, over a sequence that
// crosses a tile and splits unevenly, and across repeated steps (workspace
// recycling).
func TestFlashMHAPlansBitwise(t *testing.T) {
	const s, hidden, heads = 71, 16, 4
	spec := &AttentionSpec{Mode: ModeFlash}
	type result struct{ out, dx, grads []float32 }
	var want []result
	for _, e := range engines() {
		plans := e.plans()
		mhas := make([]*MHA, len(plans))
		for r, p := range plans {
			mhas[r] = NewMHA("attn", hidden, heads, 0, rand.New(rand.NewSource(5)))
			mhas[r].SetPlan(p)
		}
		rng := rand.New(rand.NewSource(6))
		for step := 0; step < 3; step++ {
			x, dout := tensor.New(s, hidden), tensor.New(s, hidden)
			tensor.RandN(x, rng, 1)
			tensor.RandN(dout, rng, 1)
			got := make([]result, len(plans))
			e.each(len(plans), func(r int) {
				// An MHA on its own runs the rows a model would give it:
				// this rank's, over the whole sequence's head section.
				lo, hi := plans[r].rows(s)
				m := mhas[r]
				out := m.Forward(x.SliceRows(lo, hi), spec, nil)
				dx := m.Backward(dout.SliceRows(lo, hi))
				plans[r].finishBackward(m)
				res := result{out: append([]float32(nil), plans[r].gatherRows(out).Data...),
					dx: append([]float32(nil), plans[r].gatherRows(dx).Data...)}
				for _, p := range m.Params() {
					res.grads = append(res.grads, p.Grad.Data...)
				}
				nn.ZeroGrads(m.Params())
				plans[r].StepReset()
				got[r] = res
			})
			if len(want) == step {
				want = append(want, got[0])
			}
			for r, res := range got {
				tag := fmt.Sprintf("%s rank %d step %d", e.name, r, step)
				mustBits(t, tag+": output", want[step].out, res.out)
				mustBits(t, tag+": dx", want[step].dx, res.dx)
				mustBits(t, tag+": gradients", want[step].grads, res.grads)
			}
		}
	}
}
