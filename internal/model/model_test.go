package model

import (
	"math"
	"math/rand"
	"testing"

	"torchgt/internal/encoding"
	"torchgt/internal/graph"
	"torchgt/internal/nn"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

func tinyGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return graph.ErdosRenyi(n, 0.3, rng)
}

func tinyInputs(g *graph.Graph, inDim int, seed int64) *Inputs {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(g.N, inDim)
	tensor.RandN(x, rng, 1)
	in, out := encoding.DegreeBuckets(g, 63)
	return &Inputs{X: x, DegInIdx: in, DegOutIdx: out}
}

func sparseSpec(g *graph.Graph) *AttentionSpec {
	p := sparse.FromGraph(g)
	buckets := make([]int32, p.NNZ())
	idx := 0
	for i := 0; i < p.S; i++ {
		for _, j := range p.Row(i) {
			if int32(i) == j {
				buckets[idx] = 0
			} else {
				buckets[idx] = 1
			}
			idx++
		}
	}
	return &AttentionSpec{Mode: ModeSparse, Pattern: p, EdgeBuckets: buckets}
}

func TestGraphTransformerForwardShapes(t *testing.T) {
	g := tinyGraph(1, 12)
	cfg := GraphormerSlim(8, 5, 1)
	cfg.Layers = 2
	m := NewGraphTransformer(cfg)
	in := tinyInputs(g, 8, 2)
	logits := m.Forward(in, sparseSpec(g), false)
	if logits.Rows != 12 || logits.Cols != 5 {
		t.Fatalf("logits shape %v", logits)
	}
}

func TestGraphTransformerAllModesRun(t *testing.T) {
	g := tinyGraph(2, 10)
	cfg := GraphormerSlim(6, 3, 3)
	cfg.Layers = 1
	m := NewGraphTransformer(cfg)
	in := tinyInputs(g, 6, 4)

	p := sparse.FromGraph(g)
	cl, err := sparse.NewClusterLayout(p, []int32{0, 5, 10})
	if err != nil {
		t.Fatal(err)
	}
	r := sparse.Reform(cl, 2, 1.0)
	keepBuckets := make([]int32, r.Keep.NNZ())
	for i := range keepBuckets {
		keepBuckets[i] = 1
	}
	spd := g.AllPairsSPD(6)
	specs := []*AttentionSpec{
		{Mode: ModeDense, DenseBuckets: spd},
		{Mode: ModeFlash},
		{Mode: ModeFlash, BF16: true},
		sparseSpec(g),
		{Mode: ModeClusterSparse, Reformed: r, KeepBuckets: keepBuckets},
		{Mode: ModeKernelized},
	}
	for _, spec := range specs {
		logits := m.Forward(in, spec, true)
		if logits.Rows != 10 || logits.Cols != 3 {
			t.Fatalf("mode %v: shape %v", spec.Mode, logits)
		}
		dl := tensor.New(10, 3)
		dl.Fill(0.1)
		m.Backward(dl) // must not panic
		nn.ZeroGrads(m.Params())
	}
}

func TestGraphTransformerGradCheckSparse(t *testing.T) {
	// finite-difference check of dLoss/dParam on a selection of parameters
	// through the full model (sparse mode with SPD bias).
	g := tinyGraph(3, 8)
	cfg := GraphormerSlim(4, 3, 5)
	cfg.Layers = 1
	cfg.Heads = 2
	cfg.Hidden = 8
	cfg.Dropout = 0 // deterministic
	m := NewGraphTransformer(cfg)
	in := tinyInputs(g, 4, 6)
	spec := sparseSpec(g)
	labels := []int32{0, 1, 2, 0, 1, 2, 0, 1}

	loss := func() float64 {
		logits := m.Forward(in, spec, true)
		l, _ := nn.SoftmaxCrossEntropy(logits, labels, nil)
		return l
	}
	loss()
	logits := m.Forward(in, spec, true)
	_, dl := nn.SoftmaxCrossEntropy(logits, labels, nil)
	nn.ZeroGrads(m.Params())
	m.Backward(dl)

	// spot check several parameters, including bias table and degree enc
	params := m.Params()
	checked := 0
	for _, p := range params {
		for _, i := range []int{0, p.NumElems() / 2} {
			if i >= p.NumElems() {
				continue
			}
			const eps = 1e-2
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := loss()
			p.W.Data[i] = orig - eps
			lm := loss()
			p.W.Data[i] = orig
			fd := (lp - lm) / (2 * eps)
			got := float64(p.Grad.Data[i])
			if math.Abs(fd-got) > 3e-2*math.Max(1, math.Abs(fd)) {
				t.Fatalf("%s grad[%d]: fd=%v analytic=%v", p.Name, i, fd, got)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("too few parameters checked: %d", checked)
	}
}

func TestGlobalTokenGraphLevel(t *testing.T) {
	g := tinyGraph(4, 9)
	cfg := GraphormerSlim(4, 2, 7)
	cfg.Layers = 1
	cfg.GlobalToken = true
	m := NewGraphTransformer(cfg)
	in := tinyInputs(g, 4, 8)

	p := sparse.FromGraph(g).WithGlobalToken()
	buckets := make([]int32, p.NNZ())
	for i := range buckets {
		buckets[i] = 1
	}
	spec := &AttentionSpec{Mode: ModeSparse, Pattern: p, EdgeBuckets: buckets}
	logits := m.Forward(in, spec, false)
	if logits.Rows != 1 || logits.Cols != 2 {
		t.Fatalf("graph-level logits shape %v", logits)
	}
	dl := tensor.New(1, 2)
	dl.Fill(1)
	nn.ZeroGrads(m.Params())
	m.Backward(dl)
	// global token must receive gradient
	if m.Global.Grad.MaxAbs() == 0 {
		t.Fatal("global token got no gradient")
	}
}

func TestGraphTransformerDeterministicForward(t *testing.T) {
	g := tinyGraph(5, 10)
	cfg := GTConfig(6, 4, 9)
	cfg.Layers = 2
	mk := func() *tensor.Mat {
		m := NewGraphTransformer(cfg)
		rng := rand.New(rand.NewSource(11))
		in := tinyInputs(g, 6, 10)
		in.LapPE = encoding.LaplacianPE(g, 8, 20, rng)
		return m.Forward(in, sparseSpec(g), false)
	}
	a, b := mk(), mk()
	if !a.Equal(b, 0) {
		t.Fatal("same seed must give identical forward")
	}
}

func TestPresetsMatchTableIV(t *testing.T) {
	slim := GraphormerSlim(16, 4, 1)
	if slim.Layers != 4 || slim.Hidden != 64 || slim.Heads != 8 {
		t.Fatal("GPH-Slim preset wrong")
	}
	large := GraphormerLarge(16, 4, 1)
	if large.Layers != 12 || large.Hidden != 768 || large.Heads != 32 {
		t.Fatal("GPH-Large preset wrong")
	}
	gt := GTConfig(16, 4, 1)
	if gt.Layers != 4 || gt.Hidden != 128 || gt.Heads != 8 || !gt.UseLapPE {
		t.Fatal("GT preset wrong")
	}
	scaled := GraphormerLargeScaled(16, 4, 4, 1)
	if scaled.Hidden != 192 || scaled.Layers != 3 || scaled.Heads != 8 {
		t.Fatalf("scaled preset wrong: %+v", scaled)
	}
}

func TestGCNForwardBackwardLearns(t *testing.T) {
	// tiny planted dataset: GCN should beat random guessing quickly
	d := graph.MakeNodeDataset(graph.NodeDatasetConfig{
		Name: "t", NumNodes: 128, NumBlocks: 4, NumClasses: 4, FeatDim: 8,
		AvgDegIn: 10, AvgDegOut: 1, NoiseStd: 0.5, Seed: 1,
	})
	m := NewGCN(d.G, 8, 16, 4, 0, 2)
	opt := nn.NewAdam(0.01)
	var acc float64
	for ep := 0; ep < 60; ep++ {
		logits := m.Forward(d.X, true)
		_, dl := nn.SoftmaxCrossEntropy(logits, d.Y, d.TrainMask)
		m.Backward(dl)
		opt.Step(m.Params())
		if ep == 59 {
			acc = nn.Accuracy(m.Forward(d.X, false), d.Y, d.TestMask)
		}
	}
	if acc < 0.6 {
		t.Fatalf("GCN failed to learn planted labels: acc=%v", acc)
	}
}

func TestGATForwardBackwardLearns(t *testing.T) {
	d := graph.MakeNodeDataset(graph.NodeDatasetConfig{
		Name: "t", NumNodes: 128, NumBlocks: 4, NumClasses: 4, FeatDim: 8,
		AvgDegIn: 10, AvgDegOut: 1, NoiseStd: 0.5, Seed: 3,
	})
	m := NewGAT(d.G, 8, 16, 4, 4)
	opt := nn.NewAdam(0.01)
	var acc float64
	for ep := 0; ep < 60; ep++ {
		logits := m.Forward(d.X, true)
		_, dl := nn.SoftmaxCrossEntropy(logits, d.Y, d.TrainMask)
		m.Backward(dl)
		opt.Step(m.Params())
		if ep == 59 {
			acc = nn.Accuracy(m.Forward(d.X, false), d.Y, d.TestMask)
		}
	}
	if acc < 0.5 {
		t.Fatalf("GAT failed to learn planted labels: acc=%v", acc)
	}
}

func TestSpecValidation(t *testing.T) {
	spec := &AttentionSpec{Mode: ModeSparse}
	if spec.Validate(5) == nil {
		t.Fatal("sparse without pattern must fail")
	}
	g := tinyGraph(6, 5)
	spec = sparseSpec(g)
	if spec.Validate(7) == nil {
		t.Fatal("S mismatch must fail")
	}
	if spec.Validate(5) != nil {
		t.Fatal("valid spec rejected")
	}
}

func TestPairsAccounting(t *testing.T) {
	g := tinyGraph(7, 10)
	cfg := GraphormerSlim(4, 2, 13)
	cfg.Layers = 2
	m := NewGraphTransformer(cfg)
	in := tinyInputs(g, 4, 14)
	spec := sparseSpec(g)
	m.Forward(in, spec, false)
	wantPerHead := int64(spec.Pattern.NNZ())
	want := wantPerHead * int64(cfg.Heads) * int64(cfg.Layers)
	if m.Pairs() != want {
		t.Fatalf("pairs=%d want %d", m.Pairs(), want)
	}
}

func TestNumParamsPositive(t *testing.T) {
	cfg := GraphormerSlim(8, 3, 15)
	m := NewGraphTransformer(cfg)
	n := nn.NumParams(m)
	if n < 10000 {
		t.Fatalf("gph-slim should have >10k params, got %d", n)
	}
}

func TestGCNGraphLevelLearns(t *testing.T) {
	// tiny regression: y = avg degree of the graph; GCN-pool should fit it
	rng := rand.New(rand.NewSource(50))
	var graphs []*graph.Graph
	var feats []*tensor.Mat
	var targets []float32
	for i := 0; i < 40; i++ {
		g := graph.MoleculeLike(10+rng.Intn(10), rng.Intn(4), rng)
		graphs = append(graphs, g)
		x := tensor.New(g.N, 4)
		tensor.RandN(x, rng, 1)
		feats = append(feats, x)
		targets = append(targets, float32(g.AvgDegree()))
	}
	m := NewGCNGraph(4, 16, 1, 51)
	opt := nn.NewAdam(5e-3)
	var first, last float64
	for ep := 0; ep < 40; ep++ {
		var epLoss float64
		for i, g := range graphs {
			out := m.Forward(g, feats[i])
			l, d := nn.MSE(out, []float32{targets[i]})
			m.Backward(d)
			opt.Step(m.Params())
			epLoss += l
		}
		if ep == 0 {
			first = epLoss
		}
		last = epLoss
	}
	if last >= first*0.5 {
		t.Fatalf("GCNGraph did not learn: %v -> %v", first, last)
	}
}
