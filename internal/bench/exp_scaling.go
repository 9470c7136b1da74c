package bench

import (
	"context"
	"fmt"
	"io"

	"torchgt/internal/dist"
	"torchgt/internal/encoding"
	"torchgt/internal/model"
	"torchgt/internal/nn"
	"torchgt/internal/sparse"
)

func init() {
	register(&Experiment{ID: "fig7", Title: "Multi-server scalability, simulated A100 cluster (Fig. 7)", Run: runFig7})
	register(&Experiment{ID: "fig9a", Title: "Max sequence length vs number of GPUs (Fig. 9a)", Run: runFig9a})
	register(&Experiment{ID: "fig9b", Title: "Training throughput vs sequence length (Fig. 9b)", Run: runFig9b})
	register(&Experiment{ID: "dist", Title: "Cluster-aware graph parallelism: real P-worker run + comm volume", Run: runDist})
}

func gphShape() dist.ModelShape {
	return dist.ModelShape{Layers: 4, Hidden: 64, Heads: 8, FFNHidden: 256}
}

// runFig7 uses the A100 cost model: (a) fixed S=1024K with growing GPU
// count; (b) fixed per-GPU load (S² ∝ P). GPH-Large's shape is used (as in
// the paper's large-model scaling runs) so the shardable compute dominates
// the fixed per-step overhead.
func runFig7(ctx context.Context, w io.Writer, scale Scale) error {
	pm := &dist.PerfModel{HW: dist.A100}
	shape := dist.ModelShape{Layers: 12, Hidden: 768, Heads: 32, FFNHidden: 3072}
	avgDeg := 20.0

	fmt.Fprintln(w, "(a) fixed S=1024K, iteration time vs GPUs:")
	tb := &table{header: []string{"GPUs", "sim iter(s)", "speedup vs 8"}}
	s := 1024 << 10
	var base float64
	for _, gpus := range []int{8, 16, 32, 64} {
		c := pm.StepTime(dist.KindClusterSparse, int64(avgDeg*float64(s)), s, shape, gpus)
		if gpus == 8 {
			base = c.Total.Seconds()
		}
		tb.addRow(fmt.Sprint(gpus), f3(c.Total.Seconds()), fmt.Sprintf("%.2fx", base/c.Total.Seconds()))
	}
	tb.write(w)

	fmt.Fprintln(w, "\n(b) fixed per-GPU load (S doubles ⇒ 4× GPUs):")
	tb2 := &table{header: []string{"S", "GPUs", "sim iter(s)"}}
	for _, cse := range []struct{ s, gpus int }{{256 << 10, 16}, {512 << 10, 64}} {
		c := pm.StepTime(dist.KindClusterSparse, int64(avgDeg*float64(cse.s)), cse.s, shape, cse.gpus)
		tb2.addRow(fmt.Sprint(cse.s), fmt.Sprint(cse.gpus), f3(c.Total.Seconds()))
	}
	tb2.write(w)
	fmt.Fprintln(w, "expected shape: (a) near-linear speedup (≈1.7x per GPU doubling); (b) roughly flat iteration time")
	return nil
}

// runFig9a reports the memory-model max sequence length for TorchGT vs
// GP-Raw on 1–8 GPUs.
func runFig9a(ctx context.Context, w io.Writer, scale Scale) error {
	mm := &dist.MemoryModel{HW: dist.RTX3090}
	shape := gphShape()
	tb := &table{header: []string{"GPUs", "gp-raw max S", "torchgt max S", "ratio"}}
	for _, gpus := range []int{1, 2, 4, 8} {
		raw := mm.MaxSeqLen(dist.MemDense, 20, shape, gpus)
		tgt := mm.MaxSeqLen(dist.MemSparse, 20, shape, gpus)
		tb.addRow(fmt.Sprint(gpus), fmt.Sprint(raw), fmt.Sprint(tgt), fmt.Sprintf("%.0fx", float64(tgt)/float64(raw)))
	}
	tb.write(w)
	fmt.Fprintln(w, "expected shape: torchgt scales ~linearly with GPUs into the millions; gp-raw stays pinned at tens of K")
	return nil
}

// runFig9b reports simulated throughput (samples/s) vs S on 8 GPUs.
func runFig9b(ctx context.Context, w io.Writer, scale Scale) error {
	pm := &dist.PerfModel{HW: dist.A100}
	shape := gphShape()
	avgDeg := 20.0
	tb := &table{header: []string{"S", "gp-flash samples/s", "torchgt samples/s", "ratio"}}
	for _, s := range []int{128 << 10, 256 << 10, 512 << 10, 1024 << 10} {
		flash := pm.StepTime(dist.KindDense, int64(s)*int64(s), s, shape, 8).Total.Seconds()
		tgt := pm.StepTime(dist.KindClusterSparse, int64(avgDeg*float64(s)), s, shape, 8).Total.Seconds()
		tb.addRow(fmt.Sprint(s), fmt.Sprintf("%.3g", float64(s)/flash), fmt.Sprintf("%.3g", float64(s)/tgt),
			fmt.Sprintf("%.0fx", flash/tgt))
	}
	tb.write(w)
	fmt.Fprintln(w, "expected shape: gp-flash throughput collapses with S (O(S²)); torchgt stays roughly flat")
	return nil
}

// runDist runs the real channel-based P-rank sequence-parallel plan and
// reports measured communication volume against the paper's 4·S·d/P formula.
func runDist(ctx context.Context, w io.Writer, scale Scale) error {
	nodes, p, steps := 1024, 4, 3
	if scale == ScaleSmoke {
		nodes, steps = 256, 2
	}
	ds, err := loadNode("arxiv-sim", nodes, 49)
	if err != nil {
		return err
	}
	cfg := model.GraphormerSlim(ds.X.Cols, ds.NumClasses, 50)
	cfg.Dropout = 0
	degIn, degOut := encoding.DegreeBuckets(ds.G, 63)
	in := &model.Inputs{X: ds.X, DegInIdx: degIn, DegOutIdx: degOut}
	pat := sparse.FromGraph(ds.G)
	spec := &model.AttentionSpec{Mode: model.ModeSparse, Pattern: pat}

	m := model.NewGraphTransformer(cfg)
	plan := model.NewSeqParallel(p, model.ExecOptions{PoolEnabled: true})
	m.SetPlan(plan)
	params := m.Params()
	opt := nn.NewAdam(1e-3)
	opt.ClipNorm = 5
	var lastLoss float64
	for st := 0; st < steps; st++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		logits := m.Forward(in, spec, true)
		loss, dl := nn.SoftmaxCrossEntropy(logits, ds.Y, ds.TrainMask)
		m.Backward(dl)
		plan.SyncGradients(params)
		opt.Step(params)
		plan.StepReset()
		lastLoss = loss
	}
	seqBytesPerRankStep := int64(nodes/p) * int64(cfg.Hidden) * 4 * int64(p-1) / int64(p) * int64(8*cfg.Layers)
	fmt.Fprintf(w, "P=%d ranks, %d steps, final loss %.4f\n", p, steps, lastLoss)
	fmt.Fprintf(w, "measured comm volume: %d bytes total (%.1f KB/rank/step)\n",
		plan.Comm().TotalBytes(), float64(plan.Comm().TotalBytes())/float64(p*steps)/1024)
	fmt.Fprintf(w, "Ulysses resharding volume per rank per step: %d bytes (= 8L reshards of (S/P)(d)(P-1)/P); O(S/P) per the paper's §III-C\n",
		seqBytesPerRankStep)
	fmt.Fprintln(w, "expected shape: sequence-parallel volume scales as S/P, unlike all-gather's O(S)")
	return nil
}
