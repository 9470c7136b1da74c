// Quickstart: train Graphormer-Slim on the arxiv-sim dataset with the full
// TorchGT pipeline (cluster reorder → dual-interleaved attention → elastic
// reformation with Auto Tuner) and compare it against the GP-Flash baseline.
package main

import (
	"context"
	"fmt"
	"log"

	"torchgt"
)

func main() {
	d, err := torchgt.OpenDataset("synth://arxiv-sim?nodes=1024&seed=1")
	if err != nil {
		log.Fatal(err)
	}
	ds := d.Node
	fmt.Printf("dataset %s: %d nodes, %d edges, %d classes\n",
		ds.Name, ds.G.N, ds.G.NumEdges(), ds.NumClasses)

	cfg := torchgt.GraphormerSlim(ds.X.Cols, ds.NumClasses, 1)
	train := func(method torchgt.Method) *torchgt.Result {
		s, err := torchgt.NewSession(method, cfg, torchgt.NodeTask(ds),
			torchgt.WithEpochs(15), torchgt.WithSeed(2))
		if err != nil {
			log.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	tgt := train(torchgt.MethodTorchGT)
	flash := train(torchgt.MethodGPFlash)

	fmt.Printf("\n%-10s %-12s %-12s %-14s\n", "method", "test acc", "avg epoch", "attended pairs")
	for _, r := range []*torchgt.Result{tgt, flash} {
		fmt.Printf("%-10s %-12.4f %-12s %-14d\n", r.Method, r.FinalTestAcc, r.AvgEpochTime, r.TotalPairs)
	}
	fmt.Printf("\nTorchGT attended %.1fx fewer pairs than GP-Flash at comparable accuracy.\n",
		float64(flash.TotalPairs)/float64(tgt.TotalPairs))
}
