package model

import (
	"math"
	"math/rand"
	"testing"

	"torchgt/internal/nn"
	"torchgt/internal/tensor"
)

func execModel(seed int64, rt *Runtime) (*GraphTransformer, *Inputs, *AttentionSpec) {
	cfg := GraphormerSlim(6, 3, seed)
	cfg.Layers = 2
	cfg.Dropout = 0 // deterministic across runtimes
	m := NewGraphTransformer(cfg)
	if rt != nil {
		m.SetRuntime(rt)
	}
	g := tinyGraph(11, 16)
	in := tinyInputs(g, 6, 12)
	return m, in, sparseSpec(g)
}

// TestHeadParallelMatchesSequential runs the same model weights under a
// sequential unpooled engine and a head-parallel pooled one: logits and every
// parameter gradient must be bitwise identical (heads are independent and
// write disjoint state).
func TestHeadParallelMatchesSequential(t *testing.T) {
	seq, in, spec := execModel(3, NewRuntime(ExecOptions{Workers: 1}))
	par, _, _ := execModel(3, NewRuntime(ExecOptions{Workers: 4, PoolEnabled: true}))

	for step := 0; step < 3; step++ {
		lseq := seq.Forward(in, spec, true)
		lpar := par.Forward(in, spec, true)
		if !lseq.Equal(lpar, 0) {
			t.Fatalf("step %d: head-parallel logits differ", step)
		}
		dl := tensor.New(lseq.Rows, lseq.Cols)
		rng := rand.New(rand.NewSource(int64(step)))
		tensor.RandN(dl, rng, 1)
		seq.Backward(dl)
		par.Backward(dl)
		ps, pp := seq.Params(), par.Params()
		for i := range ps {
			if !ps[i].Grad.Equal(pp[i].Grad, 0) {
				t.Fatalf("step %d: grad %s differs under head parallelism", step, ps[i].Name)
			}
		}
		nn.ZeroGrads(ps)
		nn.ZeroGrads(pp)
	}
}

// TestHeadParallelAllModes exercises the fan-out with every kernel family
// (run with -race in CI: heads share Q/K/V read-only and write disjoint
// output columns and bias-grad entries).
func TestHeadParallelAllModes(t *testing.T) {
	g := tinyGraph(2, 12)
	cfg := GraphormerSlim(6, 3, 3)
	cfg.Layers = 1
	m := NewGraphTransformer(cfg)
	m.SetRuntime(NewRuntime(ExecOptions{Workers: 4, PoolEnabled: true}))
	in := tinyInputs(g, 6, 4)

	spd := g.AllPairsSPD(6)
	specs := []*AttentionSpec{
		{Mode: ModeDense, DenseBuckets: spd},
		{Mode: ModeFlash},
		{Mode: ModeFlash, BF16: true},
		sparseSpec(g),
		{Mode: ModeKernelized},
	}
	dl := tensor.New(12, 3)
	dl.Fill(0.1)
	for _, spec := range specs {
		for step := 0; step < 2; step++ {
			logits := m.Forward(in, spec, true)
			if logits.Rows != 12 || logits.Cols != 3 {
				t.Fatalf("mode %v: bad shape %v", spec.Mode, logits)
			}
			m.Backward(dl)
			nn.ZeroGrads(m.Params())
		}
	}
}

// TestPooledModelMatchesUnpooled pins down that workspace pooling changes no
// numbers across repeated steps (buffer recycling must not leak state).
func TestPooledModelMatchesUnpooled(t *testing.T) {
	plain, in, spec := execModel(9, NewRuntime(ExecOptions{Workers: 1}))
	pooled, _, _ := execModel(9, NewRuntime(ExecOptions{Workers: 1, PoolEnabled: true}))
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
		pooled.Runtime().StepReset()
	}
	st := pooled.Runtime().AllocStats()
	if st.Gets == 0 || st.PoolHits == 0 {
		t.Fatalf("pooled engine not exercised: %+v", st)
	}
}

// TestRuntimeDefaults checks option resolution and the nil-runtime fallback.
func TestRuntimeDefaults(t *testing.T) {
	var nilRT *Runtime
	if nilRT.Options().Workers != 1 {
		t.Fatal("nil runtime must report sequential execution")
	}
	nilRT.StepReset() // no-op
	if nilRT.workspace(0) != nil {
		t.Fatal("nil runtime has no workspaces")
	}
	rt := NewRuntime(ExecOptions{})
	if rt.Options().Workers < 1 {
		t.Fatal("defaults must resolve workers")
	}
	if rt.Options().PoolEnabled {
		t.Fatal("zero options leave pooling off")
	}
	if DefaultRuntime().Options().PoolEnabled != true {
		t.Fatal("default engine pools")
	}
}

// TestFlashMHAPlansBitwise pins the flash kernel's place in the plans: its
// backward is serial within a head, so all its parallelism is the plans'
// head fan-out — and sequential heads (nil plan), two head workers and a
// two-rank sequence-parallel plan must produce the same bits, forward and
// backward, over a sequence that crosses a tile and splits unevenly, and
// across repeated steps (workspace recycling).
func TestFlashMHAPlansBitwise(t *testing.T) {
	const s, hidden, heads = 71, 16, 4
	plans := []struct {
		name string
		plan Plan
	}{
		{"nil", nil},
		{"runtime-2", NewRuntime(ExecOptions{Workers: 2, PoolEnabled: true})},
		{"seqpar-2", NewSeqParallel(2, ExecOptions{PoolEnabled: true})},
	}
	mhas := make([]*MHA, len(plans))
	for i, p := range plans {
		mhas[i] = NewMHA("attn", hidden, heads, 0, rand.New(rand.NewSource(5)))
		mhas[i].SetPlan(p.plan)
	}
	bits := func(what, plan string, step int, want, got *tensor.Mat) {
		t.Helper()
		for i := range want.Data {
			if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
				t.Fatalf("step %d: %s under %s differs from the nil plan at element %d", step, what, plan, i)
			}
		}
	}
	spec := &AttentionSpec{Mode: ModeFlash}
	rng := rand.New(rand.NewSource(6))
	for step := 0; step < 3; step++ {
		x, dout := tensor.New(s, hidden), tensor.New(s, hidden)
		tensor.RandN(x, rng, 1)
		tensor.RandN(dout, rng, 1)
		var out0, dx0 *tensor.Mat
		for i, m := range mhas {
			out := m.Forward(x, spec, nil)
			dx := m.Backward(dout)
			if i == 0 {
				out0, dx0 = out, dx
				continue
			}
			bits("output", plans[i].name, step, out0, out)
			bits("dx", plans[i].name, step, dx0, dx)
			for j, p := range m.Params() {
				bits("grad "+p.Name, plans[i].name, step, mhas[0].Params()[j].Grad, p.Grad)
			}
		}
		for i, m := range mhas {
			nn.ZeroGrads(m.Params())
			if plans[i].plan != nil {
				plans[i].plan.StepReset()
			}
		}
	}
}
