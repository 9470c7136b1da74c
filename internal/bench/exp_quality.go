package bench

import (
	"context"
	"fmt"
	"io"

	"torchgt/internal/graph"
	"torchgt/internal/model"
	"torchgt/internal/nn"
	"torchgt/internal/tensor"
	"torchgt/internal/train"
)

func init() {
	register(&Experiment{ID: "table1", Title: "Graph transformers vs classical GNNs (Table I)", Run: runTable1})
	register(&Experiment{ID: "fig1", Title: "Test accuracy vs sequence length (Fig. 1)", Run: runFig1})
}

// runTable1 trains GCN/GAT/GT/Graphormer on a node task (flickr-sim) and
// GCN-pool/GT/Graphormer on a graph regression task (zinc-sim). Expected
// shape: transformers beat the message-passing baselines on both columns.
func runTable1(ctx context.Context, w io.Writer, scale Scale) error {
	nodes, epochs, graphs, gEpochs := 2048, 40, 240, 15
	if scale == ScaleSmoke {
		nodes, epochs, graphs, gEpochs = 384, 15, 60, 6
	}
	nodeDS, err := loadNode("flickr-sim", nodes, 1)
	if err != nil {
		return err
	}
	fd := nodeDS.X.Cols

	// --- node column ---
	nodeAcc := map[string]float64{}
	{
		m := model.NewGCN(nodeDS.G, fd, 64, nodeDS.NumClasses, 0.1, 2)
		opt := nn.NewAdam(5e-3)
		var logits *tensor.Mat
		for ep := 0; ep < epochs; ep++ {
			logits = m.Forward(nodeDS.X, true)
			_, dl := nn.SoftmaxCrossEntropy(logits, nodeDS.Y, nodeDS.TrainMask)
			m.Backward(dl)
			opt.Step(m.Params())
		}
		nodeAcc["GCN"] = nn.Accuracy(m.Forward(nodeDS.X, false), nodeDS.Y, nodeDS.TestMask)
	}
	{
		m := model.NewGAT(nodeDS.G, fd, 64, nodeDS.NumClasses, 3)
		opt := nn.NewAdam(5e-3)
		for ep := 0; ep < epochs; ep++ {
			logits := m.Forward(nodeDS.X, true)
			_, dl := nn.SoftmaxCrossEntropy(logits, nodeDS.Y, nodeDS.TrainMask)
			m.Backward(dl)
			opt.Step(m.Params())
		}
		nodeAcc["GAT"] = nn.Accuracy(m.Forward(nodeDS.X, false), nodeDS.Y, nodeDS.TestMask)
	}
	for _, mc := range []struct {
		name string
		cfg  model.Config
	}{
		{"GT", model.GTConfig(fd, nodeDS.NumClasses, 4)},
		{"Graphormer", model.GraphormerSlim(fd, nodeDS.NumClasses, 5)},
	} {
		tr := train.NewNodeTrainer(train.Config{
			Method: train.TorchGT, Epochs: epochs, LR: 2e-3, FixedBeta: -1, Seed: 6,
		}, mc.cfg, nodeDS)
		res, err := tr.RunCtx(ctx)
		if err != nil {
			return err
		}
		nodeAcc[mc.name] = res.FinalTestAcc
	}

	// --- graph regression column (ZINC-like MAE) ---
	zinc := graph.MakeGraphDataset(graph.GraphDatasetConfig{
		Name: "zinc-sim", Task: graph.GraphRegression, NumGraphs: graphs,
		MinNodes: 12, MaxNodes: 30, FeatDim: 16, Seed: 7,
	})
	zincMAE := map[string]float64{}
	{
		m := model.NewGCNGraph(16, 64, 1, 8)
		opt := nn.NewAdam(3e-3)
		for ep := 0; ep < gEpochs; ep++ {
			for _, gi := range zinc.TrainIdx {
				out := m.Forward(zinc.Graphs[gi], zinc.Feats[gi])
				_, d := nn.MSE(out, []float32{zinc.Targets[gi]})
				m.Backward(d)
				opt.Step(m.Params())
			}
		}
		preds := tensor.New(len(zinc.TestIdx), 1)
		targets := make([]float32, len(zinc.TestIdx))
		for x, gi := range zinc.TestIdx {
			preds.Set(x, 0, m.Forward(zinc.Graphs[gi], zinc.Feats[gi]).At(0, 0))
			targets[x] = zinc.Targets[gi]
		}
		zincMAE["GCN"] = nn.MAE(preds, targets)
	}
	for _, mc := range []struct {
		name string
		cfg  model.Config
	}{
		{"GT", model.GTConfig(16, 1, 9)},
		{"Graphormer", model.GraphormerSlim(16, 1, 10)},
	} {
		tr := train.NewGraphTrainer(train.Config{
			Method: train.TorchGT, Epochs: gEpochs, LR: 2e-3, BatchSize: 8, Seed: 11,
		}, mc.cfg, zinc)
		if _, err := tr.RunCtx(ctx); err != nil {
			return err
		}
		zincMAE[mc.name] = tr.EvalMAE()
	}

	tb := &table{header: []string{"Model", "zinc-sim MAE↓", "flickr-sim Acc↑"}}
	for _, name := range []string{"GCN", "GAT", "GT", "Graphormer"} {
		mae := "-"
		if v, ok := zincMAE[name]; ok {
			mae = f3(v)
		}
		acc := "-"
		if v, ok := nodeAcc[name]; ok {
			acc = pct(v)
		}
		tb.addRow(name, mae, acc)
	}
	tb.write(w)
	fmt.Fprintln(w, "expected shape: transformer rows beat GNN rows on both columns")
	return nil
}

// runFig1 sweeps sequence length for Graphormer (aminer-sim) and
// NodeFormer-lite (pokec-sim). Expected shape: accuracy increases with S.
func runFig1(ctx context.Context, w io.Writer, scale Scale) error {
	nodes, epochs := 2048, 10
	sweepA := []int{64, 128, 256, 512}
	sweepB := []int{128, 256, 512, 1024}
	if scale == ScaleSmoke {
		nodes, epochs = 512, 5
		sweepA = []int{32, 64, 128}
		sweepB = []int{64, 128, 256}
	}
	// Fig. 1 needs feature noise high enough that short sequences carry too
	// little same-class context; the presets are tuned for full-graph
	// training, so regenerate at higher noise here.
	mk := func(name string, classes int, noise float64, seed int64) *graph.NodeDataset {
		return graph.MakeNodeDataset(graph.NodeDatasetConfig{
			Name: name, NumNodes: nodes, NumBlocks: nodes / 64, NumClasses: classes,
			FeatDim: 32, AvgDegIn: 12, AvgDegOut: 3, PowerLaw: 2.4,
			NoiseStd: noise, Shuffle: true, Seed: seed,
		})
	}
	run := func(ds *graph.NodeDataset, method train.Method, sweep []int, seed int64) error {
		tb := &table{header: []string{"S", "epochs", "test acc"}}
		// equalise the number of optimiser steps across sequence lengths
		// (steps/epoch = N/S, so epochs scale with S); otherwise short
		// sequences get many more updates and the context effect is masked.
		baseSteps := epochs * (ds.G.N / sweep[len(sweep)-1])
		for _, s := range sweep {
			var cfg model.Config
			if method == train.NodeFormerKernel {
				cfg = model.NodeFormerLite(ds.X.Cols, ds.NumClasses, seed+1)
			} else {
				cfg = model.GraphormerSlim(ds.X.Cols, ds.NumClasses, seed+1)
			}
			eps := baseSteps * s / ds.G.N
			if eps < 1 {
				eps = 1
			}
			tr := train.NewSeqTrainer(train.Config{
				Method: method, Epochs: eps, SeqLen: s, Seed: seed + 2,
			}, cfg, ds)
			res, err := tr.RunCtx(ctx)
			if err != nil {
				return err
			}
			tb.addRow(fmt.Sprint(s), fmt.Sprint(eps), pct(res.FinalTestAcc))
		}
		fmt.Fprintf(w, "\n%s / %s (equal optimiser steps):\n", ds.Name, method)
		tb.write(w)
		return nil
	}
	if err := run(mk("aminer-sim-hard", 8, 4.0, 21), train.GPFlash, sweepA, 21); err != nil {
		return err
	}
	if err := run(mk("pokec-sim-hard", 2, 5.0, 23), train.NodeFormerKernel, sweepB, 23); err != nil {
		return err
	}
	fmt.Fprintln(w, "expected shape: accuracy rises with sequence length on both datasets")
	return nil
}
