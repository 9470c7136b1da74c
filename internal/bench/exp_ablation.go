package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"torchgt/internal/attention"
	"torchgt/internal/encoding"
	"torchgt/internal/graph"
	"torchgt/internal/model"
	"torchgt/internal/nn"
	"torchgt/internal/partition"
	"torchgt/internal/sparse"
	"torchgt/internal/train"
)

func init() {
	register(&Experiment{ID: "ablation-interleave", Title: "Ablation: dual-interleave period (accuracy vs compute)", Run: runAblationInterleave})
	register(&Experiment{ID: "ablation-reorder", Title: "Ablation: cluster reordering on/off (locality and kernel time)", Run: runAblationReorder})
	register(&Experiment{ID: "ablation-db", Title: "Ablation: sub-block size db, measured CPU kernel time", Run: runAblationDb})
	register(&Experiment{ID: "ablation-sampling", Title: "Ablation: ego-graph sampling vs long-sequence training (issue I2)", Run: runAblationSampling})
	register(&Experiment{ID: "ablation-bigbird", Title: "Ablation: topology pattern vs NLP-style BigBird pattern (issue I2)", Run: runAblationBigBird})
}

// runAblationInterleave sweeps the dense-overlay period of Dual-interleaved
// Attention: interval 1 = dense every step (full attention), large interval
// ≈ pure sparse. The paper's design point (periodic overlay) should match
// full-attention accuracy at a fraction of the pairs.
func runAblationInterleave(ctx context.Context, w io.Writer, scale Scale) error {
	nodes, epochs := 2048, 16
	if scale == ScaleSmoke {
		nodes, epochs = 512, 6
	}
	ds, err := loadNode("arxiv-sim", nodes, 63)
	if err != nil {
		return err
	}
	cfg := model.GraphormerSlim(ds.X.Cols, ds.NumClasses, 64)
	tb := &table{header: []string{"interval", "dense steps", "test acc", "pairs/epoch", "tepoch(s)"}}
	for _, interval := range []int{1, 4, 8, 16, 1 << 30} {
		tr := train.NewNodeTrainer(train.Config{
			Method: train.TorchGT, Epochs: epochs, LR: 2e-3,
			Interval: interval, FixedBeta: -1, Seed: 65,
		}, cfg, ds)
		res, err := tr.RunCtx(ctx)
		if err != nil {
			return err
		}
		dense := 0
		for ep := 0; ep < epochs; ep++ {
			if interval <= 1 || ep%interval == 0 {
				dense++
			}
		}
		if interval == 1<<30 {
			dense = 1 // only epoch 0
		}
		label := fmt.Sprint(interval)
		if interval == 1<<30 {
			label = "∞ (pure sparse)"
		}
		tb.addRow(label, fmt.Sprint(dense), pct(res.FinalTestAcc),
			fmt.Sprint(res.TotalPairs/int64(epochs)), f3(res.AvgEpochTime.Seconds()))
	}
	tb.write(w)
	fmt.Fprintln(w, "expected shape: larger intervals cut attended pairs sharply at comparable accuracy;")
	fmt.Fprintln(w, "on planted-label data the sparse pattern is already sufficient (labels are locally")
	fmt.Fprintln(w, "decodable), so unlike the paper's real graphs the dense overlays are not needed for")
	fmt.Fprintln(w, "accuracy here — see EXPERIMENTS.md deviation #1")
	return nil
}

// runAblationReorder measures what the METIS cluster reordering buys: the
// diagonal concentration of the pattern and the cluster-sparse kernel time,
// with and without the reorder.
func runAblationReorder(ctx context.Context, w io.Writer, scale Scale) error {
	s := 4096
	if scale == ScaleSmoke {
		s = 1024
	}
	rng := rand.New(rand.NewSource(67))
	nb := s / 128
	sizes := make([]int, nb)
	for i := range sizes {
		sizes[i] = s / nb
	}
	g, _ := graph.SBM(graph.SBMConfig{BlockSizes: sizes, AvgDegIn: 12, AvgDegOut: 2}, rng)
	g = g.Permute(graph.ShuffledIDs(g.N, rng))
	k := 8
	evenBounds := make([]int32, k+1)
	for i := range evenBounds {
		evenBounds[i] = int32(i * s / k)
	}
	time3 := func(gr *graph.Graph, bounds []int32) (float64, float64, error) {
		p := sparse.FromGraph(gr)
		cl, err := sparse.NewClusterLayout(p, bounds)
		if err != nil {
			return 0, 0, err
		}
		r := sparse.ReformIndolent(cl, 16)
		q, kk, v := kernelQKV(s, 32, 68)
		kr := attention.NewClusterSparse(r)
		t0 := time.Now()
		o := kr.Forward(q, kk, v)
		kr.Backward(o)
		return cl.DiagonalNNZFraction(), time.Since(t0).Seconds(), nil
	}
	diag0, t0, err := time3(g, evenBounds)
	if err != nil {
		return err
	}
	part := partition.Partition(g, k, 69)
	perm, bounds := partition.ClusterOrder(part, k)
	diag1, t1, err := time3(g.Permute(perm), bounds)
	if err != nil {
		return err
	}
	tb := &table{header: []string{"layout", "diag NNZ frac", "kernel fwd+bwd (s)"}}
	tb.addRow("shuffled (no reorder)", pct(diag0), f3(t0))
	tb.addRow("cluster-reordered", pct(diag1), f3(t1))
	tb.write(w)
	fmt.Fprintln(w, "expected shape: reordering concentrates entries onto the diagonal clusters;")
	fmt.Fprintln(w, "the kernel-time effect is small on CPU (large caches absorb the irregularity) —")
	fmt.Fprintln(w, "the GPU-side locality payoff is what fig6's cache/warp simulation measures")
	return nil
}

// runAblationDb measures real CPU cluster-sparse kernel time across db, the
// wall-clock companion to the simulated Fig. 6.
func runAblationDb(ctx context.Context, w io.Writer, scale Scale) error {
	s := 4096
	if scale == ScaleSmoke {
		s = 1024
	}
	rng := rand.New(rand.NewSource(71))
	nb := s / 128
	sizes := make([]int, nb)
	for i := range sizes {
		sizes[i] = s / nb
	}
	g, _ := graph.SBM(graph.SBMConfig{BlockSizes: sizes, AvgDegIn: 12, AvgDegOut: 2}, rng)
	part := partition.Partition(g, 8, 72)
	perm, bounds := partition.ClusterOrder(part, 8)
	g = g.Permute(perm)
	p := sparse.FromGraph(g)
	cl, err := sparse.NewClusterLayout(p, bounds)
	if err != nil {
		return err
	}
	q, kk, v := kernelQKV(s, 32, 73)
	tb := &table{header: []string{"db", "blocks", "pairs", "kernel fwd+bwd (ms)"}}
	for _, db := range []int{4, 8, 16, 32} {
		r := sparse.Reform(cl, db, 1.0)
		kr := attention.NewClusterSparse(r)
		t0 := time.Now()
		o := kr.Forward(q, kk, v)
		kr.Backward(o)
		dt := time.Since(t0)
		tb.addRow(fmt.Sprint(db), fmt.Sprint(len(r.Blocks)), fmt.Sprint(kr.Pairs()), fmt.Sprintf("%.1f", ms(dt)))
	}
	tb.write(w)
	fmt.Fprintln(w, "expected shape: mid-range db balances block count against padded pairs")
	return nil
}

// runAblationSampling reproduces the paper's issue-I2 claim: ego-graph
// sampled training (Gophormer/NAGphormer family) drops connectivity and
// loses accuracy against long-sequence training at the same epoch budget.
func runAblationSampling(ctx context.Context, w io.Writer, scale Scale) error {
	nodes, egoEpochs := 1024, 3
	if scale == ScaleSmoke {
		nodes, egoEpochs = 512, 2
	}
	// High feature noise so that a ≤16-node ego graph carries too few
	// same-class samples to denoise, while full-graph attention can pool
	// hundreds — the context-width mechanism behind the paper's issue I2.
	// Optimiser updates are matched: the ego trainer takes
	// trainNodes/batch updates per epoch; the full-graph trainer takes one
	// per epoch, so its epoch count is scaled to the same total.
	ds := graph.MakeNodeDataset(graph.NodeDatasetConfig{
		Name: "sampling-hard", NumNodes: nodes, NumBlocks: nodes / 64,
		NumClasses: 4, FeatDim: 24, AvgDegIn: 10, AvgDegOut: 2,
		PowerLaw: 2.4, NoiseStd: 5.0, Shuffle: true, Seed: 75,
	})
	cfg := model.GraphormerSlim(ds.X.Cols, ds.NumClasses, 76)
	batch := 64
	trainNodes := 0
	for _, m := range ds.TrainMask {
		if m {
			trainNodes++
		}
	}
	egoSteps := egoEpochs * (trainNodes + batch - 1) / batch

	ego := train.NewEgoTrainer(train.EgoConfig{
		Epochs: egoEpochs, LR: 2e-3, Hops: 2, MaxSize: 16, Batch: batch, Seed: 77,
	}, cfg, ds)
	egoRes, err := ego.Run()
	if err != nil {
		return err
	}

	long := train.NewNodeTrainer(train.Config{
		Method: train.TorchGT, Epochs: egoSteps, LR: 2e-3, FixedBeta: -1, Seed: 77,
	}, cfg, ds)
	longRes, err := long.RunCtx(ctx)
	if err != nil {
		return err
	}

	tb := &table{header: []string{"training regime", "updates", "test acc"}}
	tb.addRow("ego-graph sampling (≤16 nodes/target)", fmt.Sprint(egoSteps), pct(egoRes.FinalTestAcc))
	tb.addRow("long sequence (full graph, TorchGT)", fmt.Sprint(egoSteps), pct(longRes.FinalTestAcc))
	tb.write(w)
	fmt.Fprintln(w, "paper claim (§II-C issue I2): sampling's truncated context loses accuracy on")
	fmt.Fprintln(w, "real graphs. KNOWN NEGATIVE RESULT here: planted SBM labels are decodable from")
	fmt.Fprintln(w, "any 2-hop ego graph, so sampling cannot lose on this data regardless of update")
	fmt.Fprintln(w, "matching — see EXPERIMENTS.md deviation #1. The experiment records the matched-")
	fmt.Fprintln(w, "update comparison for completeness.")
	return nil
}

// runAblationBigBird compares the topology-induced pattern against an
// NLP-style BigBird pattern at matched density — the paper's issue-I2 claim
// that structure-agnostic sparse attention "fails to consider the inherent
// graph structure ... resulting in subpar model performance".
func runAblationBigBird(ctx context.Context, w io.Writer, scale Scale) error {
	nodes, epochs := 2048, 16
	if scale == ScaleSmoke {
		nodes, epochs = 512, 6
	}
	ds, err := loadNode("arxiv-sim", nodes, 81)
	if err != nil {
		return err
	}
	cfg := model.GraphormerSlim(ds.X.Cols, ds.NumClasses, 82)
	topo := sparse.FromGraph(ds.G)
	// match BigBird density to the topology pattern
	perRow := topo.NNZ() / topo.S
	window := perRow / 4
	if window < 1 {
		window = 1
	}
	rng := rand.New(rand.NewSource(83))
	bigbird := sparse.BigBird(ds.G.N, window, 2, perRow/4+1, rng)

	degIn, degOut := encoding.DegreeBuckets(ds.G, 63)
	in := &model.Inputs{X: ds.X, DegInIdx: degIn, DegOutIdx: degOut}
	runWith := func(p *sparse.Pattern) float64 {
		m := model.NewGraphTransformer(cfg)
		spec := &model.AttentionSpec{Mode: model.ModeSparse, Pattern: p}
		opt := nn.NewAdam(2e-3)
		opt.ClipNorm = 5
		for ep := 0; ep < epochs; ep++ {
			logits := m.Forward(in, spec, true)
			_, dl := nn.SoftmaxCrossEntropy(logits, ds.Y, ds.TrainMask)
			m.Backward(dl)
			opt.Step(m.Params())
		}
		logits := m.Forward(in, spec, false)
		return nn.Accuracy(logits, ds.Y, ds.TestMask)
	}
	tb := &table{header: []string{"pattern", "NNZ", "test acc"}}
	tb.addRow("topology-induced", fmt.Sprint(topo.NNZ()), pct(runWith(topo)))
	tb.addRow("bigbird (window+global+random)", fmt.Sprint(bigbird.NNZ()), pct(runWith(bigbird)))
	tb.write(w)
	fmt.Fprintln(w, "expected shape: topology pattern beats the structure-agnostic pattern at matched density")
	return nil
}
