package bench

import (
	"context"
	"fmt"
	"io"

	"torchgt/internal/dist"
)

func init() {
	register(&Experiment{ID: "fig7", Title: "Multi-server scalability, simulated A100 cluster (Fig. 7)", Run: runFig7})
	register(&Experiment{ID: "fig9a", Title: "Max sequence length vs number of GPUs (Fig. 9a)", Run: runFig9a})
	register(&Experiment{ID: "fig9b", Title: "Training throughput vs sequence length (Fig. 9b)", Run: runFig9b})
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
