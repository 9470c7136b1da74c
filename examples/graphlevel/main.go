// Graph-level example: ZINC-style molecular property regression with the GT
// model (Laplacian positional encodings + SPD bias) and malnet-sim
// classification with Graphormer — the two graph-level task families of the
// paper's Table III.
package main

import (
	"context"
	"fmt"
	"log"

	"torchgt"
)

func main() {
	// --- regression: zinc-sim ---
	zinc := open("synth://zinc-sim?seed=1")
	fmt.Printf("zinc-sim: %d molecule-like graphs (regression)\n", len(zinc.Graphs))
	cfg := torchgt.GT(zinc.FeatDim, 1, 2)
	s, _ := train(cfg, zinc, 8, 3)
	fmt.Printf("GT on zinc-sim: test MAE %.4f\n\n", s.EvalMAE())

	// --- classification: molpcba-sim ---
	mol := open("synth://molpcba-sim?seed=4")
	fmt.Printf("molpcba-sim: %d graphs, %d classes\n", len(mol.Graphs), mol.NumClasses)
	cfg2 := torchgt.GraphormerSlim(mol.FeatDim, mol.NumClasses, 5)
	_, res := train(cfg2, mol, 6, 6)
	fmt.Printf("Graphormer on molpcba-sim: test accuracy %.2f%% (preprocess %.2fs)\n",
		res.FinalTestAcc*100, res.PreprocessTime.Seconds())
}

func open(spec string) *torchgt.GraphDataset {
	d, err := torchgt.OpenDataset(spec)
	if err != nil {
		log.Fatal(err)
	}
	return d.Graph
}

func train(cfg torchgt.ModelConfig, ds *torchgt.GraphDataset, epochs int, seed int64) (*torchgt.Session, *torchgt.Result) {
	s, err := torchgt.NewSession(torchgt.MethodTorchGT, cfg, torchgt.GraphLevelTask(ds),
		torchgt.WithEpochs(epochs), torchgt.WithBatchSize(8), torchgt.WithSeed(seed))
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	return s, res
}
