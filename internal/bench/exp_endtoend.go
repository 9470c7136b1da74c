package bench

import (
	"context"
	"fmt"
	"io"

	"torchgt/internal/dist"
	"torchgt/internal/gpusim"
	"torchgt/internal/model"
	"torchgt/internal/partition"
	"torchgt/internal/sparse"
	"torchgt/internal/train"
)

func init() {
	register(&Experiment{ID: "table5", Title: "End-to-end epoch time & accuracy on one 3090 server (Table V)", Run: runTable5})
	register(&Experiment{ID: "table6", Title: "Epoch time on one A100 server, simulated (Table VI)", Run: runTable6})
	register(&Experiment{ID: "table7", Title: "BF16 vs FP32 accuracy & throughput (Table VII)", Run: runTable7})
	register(&Experiment{ID: "table8", Title: "Transfer threshold βthre sensitivity (Table VIII)", Run: runTable8})
	register(&Experiment{ID: "fig6", Title: "Sub-block size db: simulated occupancy / hit rate / throughput (Fig. 6)", Run: runFig6})
	register(&Experiment{ID: "preproc", Title: "Pre-processing cost vs training time (§IV-E)", Run: runPreproc})
}

// paperSeqLen maps our scaled dataset onto the sequence length the paper
// trains it at (for the memory-model OOM column).
var paperSeqLen = map[string]int{
	"arxiv-sim":      64 << 10,
	"products-sim":   256 << 10,
	"amazon-sim":     256 << 10,
	"papers100m-sim": 256 << 10,
	"flickr-sim":     64 << 10,
}

func table5Workloads(scale Scale) (datasets []string, nodes, epochs int) {
	if scale == ScaleSmoke {
		return []string{"arxiv-sim"}, 512, 6
	}
	return []string{"arxiv-sim", "products-sim", "amazon-sim"}, 2048, 15
}

// runTable5 trains GPH-Slim and GT with each method. GP-Raw's row is decided
// by the memory model at the paper's sequence length (it cannot even
// allocate, exactly like Table V's OOM entries); GP-Flash and TorchGT train
// for real and also report simulated 3090 epoch times at paper scale.
func runTable5(ctx context.Context, w io.Writer, scale Scale) error {
	datasets, nodes, epochs := table5Workloads(scale)
	mm := &dist.MemoryModel{HW: dist.RTX3090}
	pm := &dist.PerfModel{HW: dist.RTX3090}
	for _, mname := range []string{"gph-slim", "gt"} {
		tb := &table{header: []string{"dataset", "method", "tepoch(s)", "sim-3090 tepoch(s)", "test acc", "speedup"}}
		for _, dsName := range datasets {
			ds, err := loadNode(dsName, nodes, 31)
			if err != nil {
				return err
			}
			var cfg model.Config
			if mname == "gt" {
				cfg = model.GTConfig(ds.X.Cols, ds.NumClasses, 32)
			} else {
				cfg = model.GraphormerSlim(ds.X.Cols, ds.NumClasses, 32)
			}
			shape := dist.ModelShape{Layers: cfg.Layers, Hidden: cfg.Hidden, Heads: cfg.Heads, FFNHidden: 4 * cfg.Hidden}
			ps := paperSeqLen[dsName]
			avgDeg := ds.G.AvgDegree() + 1

			// GP-Raw: memory model at paper scale
			if mm.WouldOOM(dist.MemDense, ps, int64(avgDeg*float64(ps)), shape, 8) {
				tb.addRow(dsName, "gp-raw", "OOM", "OOM", "-", "-")
			}

			var flashEpoch float64
			for _, method := range []train.Method{train.GPFlash, train.TorchGT} {
				tr := train.NewNodeTrainer(train.Config{
					Method: method, Epochs: epochs, LR: 2e-3, FixedBeta: -1, Seed: 33,
				}, cfg, ds)
				res, err := tr.Loop().Run(ctx)
				if err != nil {
					return err
				}
				measured := res.AvgEpochTime.Seconds()
				kind := dist.KindDense
				pairsPerHead := int64(ps) * int64(ps)
				if method == train.TorchGT {
					kind = dist.KindClusterSparse
					pairsPerHead = int64(avgDeg * float64(ps))
				}
				sim := pm.StepTime(kind, pairsPerHead, ps, shape, 8).Total.Seconds()
				speedup := "-"
				if method == train.GPFlash {
					flashEpoch = measured
				} else if measured > 0 {
					speedup = fmt.Sprintf("%.1fx", flashEpoch/measured)
				}
				tb.addRow(dsName, method.String(), f3(measured), f3(sim), pct(res.FinalTestAcc), speedup)
			}
		}
		fmt.Fprintf(w, "\nmodel %s:\n", mname)
		tb.write(w)
	}
	fmt.Fprintln(w, "expected shape: gp-raw OOMs; torchgt beats gp-flash in epoch time at equal-or-better accuracy")
	return nil
}

// runTable6 reports simulated A100 epoch times for GPH-Slim.
func runTable6(ctx context.Context, w io.Writer, scale Scale) error {
	datasets, _, _ := table5Workloads(scale)
	pm := &dist.PerfModel{HW: dist.A100}
	cfg := model.GraphormerSlim(64, 10, 1)
	shape := dist.ModelShape{Layers: cfg.Layers, Hidden: cfg.Hidden, Heads: cfg.Heads, FFNHidden: 4 * cfg.Hidden}
	tb := &table{header: []string{"dataset", "gp-flash sim tepoch(s)", "torchgt sim tepoch(s)", "speedup"}}
	for _, dsName := range datasets {
		ps := paperSeqLen[dsName]
		flash := pm.StepTime(dist.KindDense, int64(ps)*int64(ps), ps, shape, 8).Total.Seconds()
		tgt := pm.StepTime(dist.KindClusterSparse, int64(20*ps), ps, shape, 8).Total.Seconds()
		tb.addRow(dsName, f3(flash), f3(tgt), fmt.Sprintf("%.1fx", flash/tgt))
	}
	tb.write(w)
	fmt.Fprintln(w, "expected shape: speedups persist on A100 but are smaller than on 3090 (paper: 1.9–4.2x)")
	return nil
}

// runTable7 compares GP-Flash (BF16), TorchGT-BF16 and TorchGT-FP32.
func runTable7(ctx context.Context, w io.Writer, scale Scale) error {
	datasets := []string{"arxiv-sim", "amazon-sim"}
	nodes, epochs := 2048, 15
	if scale == ScaleSmoke {
		datasets = []string{"arxiv-sim"}
		nodes, epochs = 512, 6
	}
	tb := &table{header: []string{"dataset", "method", "tepoch(s)", "test acc"}}
	for _, dsName := range datasets {
		ds, err := loadNode(dsName, nodes, 35)
		if err != nil {
			return err
		}
		cfg := model.GraphormerSlim(ds.X.Cols, ds.NumClasses, 36)
		for _, mc := range []struct {
			label  string
			method train.Method
		}{
			{"gp-flash(bf16)", train.GPFlash},
			{"torchgt-bf16", train.TorchGTBF16},
			{"torchgt-fp32", train.TorchGT},
		} {
			tr := train.NewNodeTrainer(train.Config{
				Method: mc.method, Epochs: epochs, LR: 2e-3, FixedBeta: -1, Seed: 37,
			}, cfg, ds)
			res, err := tr.Loop().Run(ctx)
			if err != nil {
				return err
			}
			tb.addRow(dsName, mc.label, f3(res.AvgEpochTime.Seconds()), pct(res.FinalTestAcc))
		}
	}
	tb.write(w)
	fmt.Fprintln(w, "expected shape: torchgt-bf16 fastest; torchgt-fp32 highest accuracy; bf16 rows trade accuracy for speed")
	return nil
}

// runTable8 sweeps fixed βthre values plus the Auto Tuner.
func runTable8(ctx context.Context, w io.Writer, scale Scale) error {
	nodes, epochs := 2048, 12
	if scale == ScaleSmoke {
		nodes, epochs = 512, 5
	}
	ds, err := loadNode("arxiv-sim", nodes, 39)
	if err != nil {
		return err
	}
	betaG := ds.G.WithSelfLoops().Sparsity()
	for _, mname := range []string{"gph-slim", "gt"} {
		var cfg model.Config
		if mname == "gt" {
			cfg = model.GTConfig(ds.X.Cols, ds.NumClasses, 40)
		} else {
			cfg = model.GraphormerSlim(ds.X.Cols, ds.NumClasses, 40)
		}
		tb := &table{header: []string{"βthre", "tepoch(s)", "test acc", "pairs/epoch"}}
		type row struct {
			label string
			beta  float64
		}
		rows := []row{
			{"βG", betaG}, {"1.5βG", 1.5 * betaG}, {"5βG", 5 * betaG},
			{"7βG", 7 * betaG}, {"10βG", 10 * betaG}, {"auto", -1},
		}
		for _, r := range rows {
			// finer cluster grid (k=16 → 256 clusters) so the βthre ladder
			// meets a spread of cluster densities
			tr := train.NewNodeTrainer(train.Config{
				Method: train.TorchGT, Epochs: epochs, LR: 2e-3,
				FixedBeta: r.beta, UseFixedBeta: r.beta >= 0,
				ClusterK: 16, Db: 8, Seed: 41,
			}, cfg, ds)
			res, err := tr.Loop().Run(ctx)
			if err != nil {
				return err
			}
			tb.addRow(r.label, f3(res.AvgEpochTime.Seconds()), pct(res.FinalTestAcc),
				fmt.Sprint(res.TotalPairs/int64(epochs)))
		}
		fmt.Fprintf(w, "\nmodel %s (βG=%.5f):\n", mname, betaG)
		tb.write(w)
	}
	fmt.Fprintln(w, "expected shape: larger βthre transfers more clusters (different pairs/epoch); auto tuner lands between the extremes")
	return nil
}

// runFig6 sweeps db through the GPU cache/warp simulator.
func runFig6(ctx context.Context, w io.Writer, scale Scale) error {
	s := 4096
	if scale == ScaleSmoke {
		s = 1024
	}
	ds, err := loadNode("products-sim", s, 43)
	if err != nil {
		return err
	}
	k := gpusim.ChooseK(s, 64, gpusim.RTX3090Spec)
	part := partition.Partition(ds.G, k, 44)
	perm, bounds := partition.ClusterOrder(part, k)
	g := ds.G.Permute(perm)
	p := sparse.FromGraph(g)
	cl, err := sparse.NewClusterLayout(p, bounds)
	if err != nil {
		return err
	}
	for _, spec := range []gpusim.GPUSpec{gpusim.RTX3090Spec, gpusim.A100Spec} {
		stats := gpusim.SweepDb(cl, 1.0, []int{4, 8, 16, 32}, 64, spec)
		tb := &table{header: []string{"db", "sim-warp occupancy", "sim-L1 hit", "sim-L2 hit", "sim-useful frac", "sim-norm. throughput"}}
		base := stats[0].Throughput
		for _, st := range stats {
			tb.addRow(fmt.Sprint(st.Db), pct(st.WarpOccupancy), pct(st.L1HitRate), pct(st.L2HitRate),
				pct(st.UsefulFraction), f2(st.Throughput/base))
		}
		fmt.Fprintf(w, "\n%s, simulated by the GPU cache/warp model (chosen k=%d, chosen db=%d):\n", spec.Name, k,
			gpusim.ChooseDb(cl, 1.0, 64, spec))
		tb.write(w)
	}
	fmt.Fprintln(w, "expected shape: hit rates rise and occupancy falls with db; throughput peaks mid-range")
	return nil
}

// runPreproc measures partition+pattern pre-processing against total
// training time.
func runPreproc(ctx context.Context, w io.Writer, scale Scale) error {
	nodes, epochs := 2048, 15
	if scale == ScaleSmoke {
		nodes, epochs = 512, 5
	}
	tb := &table{header: []string{"dataset", "preprocess(s)", "train(s)", "preprocess share"}}
	for _, dsName := range []string{"arxiv-sim", "products-sim"} {
		ds, err := loadNode(dsName, nodes, 45)
		if err != nil {
			return err
		}
		cfg := model.GraphormerSlim(ds.X.Cols, ds.NumClasses, 46)
		tr := train.NewNodeTrainer(train.Config{
			Method: train.TorchGT, Epochs: epochs, LR: 2e-3, FixedBeta: -1, Seed: 47,
		}, cfg, ds)
		res, err := tr.Loop().Run(ctx)
		if err != nil {
			return err
		}
		var total float64
		for _, p := range res.Curve {
			total += p.EpochTime.Seconds()
		}
		pre := res.PreprocessTime.Seconds()
		tb.addRow(dsName, f3(pre), f3(total), pct(pre/(pre+total)))
	}
	tb.write(w)
	fmt.Fprintln(w, "expected shape: pre-processing is a small share of total training (paper: ≤5.4%)")
	return nil
}
