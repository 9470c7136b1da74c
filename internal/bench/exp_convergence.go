package bench

import (
	"context"
	"fmt"
	"io"

	"torchgt/internal/graph"
	"torchgt/internal/model"
	"torchgt/internal/train"
)

func init() {
	register(&Experiment{ID: "fig8", Title: "Convergence: TorchGT vs GP-Flash (Fig. 8)", Run: runFig8})
	register(&Experiment{ID: "fig10", Title: "Convergence of attention variants on large graphs (Fig. 10)", Run: runFig10})
	register(&Experiment{ID: "fig11", Title: "Convergence of attention variants on small graphs (Fig. 11)", Run: runFig11})
}

// curveTable prints accuracy vs cumulative wall-clock for several runs.
func curveTable(w io.Writer, labels []string, results []*train.Result, every int) {
	tb := &table{header: append([]string{"epoch"}, twoCols(labels)...)}
	n := 0
	for _, r := range results {
		if len(r.Curve) > n {
			n = len(r.Curve)
		}
	}
	for ep := 0; ep < n; ep += every {
		row := []string{fmt.Sprint(ep)}
		for _, r := range results {
			if ep < len(r.Curve) {
				var cum float64
				for _, p := range r.Curve[:ep+1] {
					cum += p.EpochTime.Seconds()
				}
				row = append(row, f2(cum), pct(r.Curve[ep].TestAcc))
			} else {
				row = append(row, "-", "-")
			}
		}
		tb.addRow(row...)
	}
	tb.write(w)
}

func twoCols(labels []string) []string {
	var out []string
	for _, l := range labels {
		out = append(out, l+" t(s)", l+" acc")
	}
	return out
}

func runFig8(ctx context.Context, w io.Writer, scale Scale) error {
	nodes, epochs := 2048, 20
	if scale == ScaleSmoke {
		nodes, epochs = 512, 6
	}
	cases := []struct {
		ds    string
		model string
	}{
		{"arxiv-sim", "gph-slim"},
		{"products-sim", "gt"},
	}
	if scale == ScaleSmoke {
		cases = cases[:1]
	}
	for _, cse := range cases {
		ds, err := loadNode(cse.ds, nodes, 51)
		if err != nil {
			return err
		}
		var cfg model.Config
		if cse.model == "gt" {
			cfg = model.GTConfig(ds.X.Cols, ds.NumClasses, 52)
		} else {
			cfg = model.GraphormerSlim(ds.X.Cols, ds.NumClasses, 52)
		}
		var results []*train.Result
		for _, m := range []train.Method{train.TorchGT, train.GPFlash} {
			tr := train.NewNodeTrainer(train.Config{
				Method: m, Epochs: epochs, LR: 2e-3, FixedBeta: -1, Seed: 53,
			}, cfg, ds)
			res, err := tr.Loop().Run(ctx)
			if err != nil {
				return err
			}
			results = append(results, res)
		}
		fmt.Fprintf(w, "\n%s / %s (accuracy vs cumulative time):\n", cse.model, cse.ds)
		curveTable(w, []string{"torchgt", "gp-flash"}, results, 2)
	}
	fmt.Fprintln(w, "expected shape: torchgt reaches the same-or-better accuracy in much less wall-clock time")
	return nil
}

func runFig10(ctx context.Context, w io.Writer, scale Scale) error {
	nodes, epochs := 2048, 20
	if scale == ScaleSmoke {
		nodes, epochs = 512, 6
	}
	ds, err := loadNode("arxiv-sim", nodes, 55)
	if err != nil {
		return err
	}
	for _, mname := range []string{"gph-slim", "gt"} {
		var cfg model.Config
		if mname == "gt" {
			cfg = model.GTConfig(ds.X.Cols, ds.NumClasses, 56)
		} else {
			cfg = model.GraphormerSlim(ds.X.Cols, ds.NumClasses, 56)
		}
		var results []*train.Result
		for _, m := range []train.Method{train.TorchGT, train.GPFlash, train.GPSparse} {
			tr := train.NewNodeTrainer(train.Config{
				Method: m, Epochs: epochs, LR: 2e-3, FixedBeta: -1, Seed: 57,
			}, cfg, ds)
			res, err := tr.Loop().Run(ctx)
			if err != nil {
				return err
			}
			results = append(results, res)
		}
		fmt.Fprintf(w, "\n%s / arxiv-sim:\n", mname)
		curveTable(w, []string{"interleaved", "flash", "sparse"}, results, 2)
		fmt.Fprintf(w, "final acc: interleaved=%s flash=%s sparse=%s\n",
			pct(results[0].FinalTestAcc), pct(results[1].FinalTestAcc), pct(results[2].FinalTestAcc))
	}
	fmt.Fprintln(w, "expected shape: interleaved attention converges to ≥ sparse accuracy and reaches it faster than flash in wall-clock")
	return nil
}

func runFig11(ctx context.Context, w io.Writer, scale Scale) error {
	graphs, epochs := 200, 12
	if scale == ScaleSmoke {
		graphs, epochs = 60, 5
	}
	zinc := graph.MakeGraphDataset(graph.GraphDatasetConfig{
		Name: "zinc-sim", Task: graph.GraphRegression, NumGraphs: graphs,
		MinNodes: 12, MaxNodes: 30, FeatDim: 16, Seed: 59,
	})
	tb := &table{header: []string{"attention", "final test MAE↓", "train loss (last)"}}
	for _, mc := range []struct {
		label  string
		method train.Method
	}{
		{"interleaved", train.TorchGT},
		{"full", train.GPRaw},
		{"sparse", train.GPSparse},
	} {
		cfg := model.GraphormerSlim(16, 1, 60)
		tr := train.NewGraphTrainer(train.Config{
			Method: mc.method, Epochs: epochs, LR: 2e-3, BatchSize: 8, Seed: 61,
		}, cfg, zinc)
		res, err := tr.Loop().Run(ctx)
		if err != nil {
			return err
		}
		tb.addRow(mc.label, f3(tr.EvalMAE()), f3(res.Curve[len(res.Curve)-1].Loss))
	}
	tb.write(w)
	fmt.Fprintln(w, "expected shape: interleaved ≈ full attention quality; pure sparse trails both")
	return nil
}
