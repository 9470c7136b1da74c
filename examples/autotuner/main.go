// Auto Tuner example: watch the Elastic Computation Reformation adapt the
// transfer threshold βthre along the ladder {0, βG, …, 1} as training
// progresses, trading reformation aggressiveness against loss descent rate.
package main

import (
	"context"
	"fmt"
	"log"

	"torchgt"
)

func main() {
	d, err := torchgt.OpenDataset("synth://products-sim?nodes=2048&seed=1")
	if err != nil {
		log.Fatal(err)
	}
	ds := d.Node
	cfg := torchgt.GraphormerSlim(ds.X.Cols, ds.NumClasses, 8)

	s, err := torchgt.NewSession(torchgt.MethodTorchGT, cfg, torchgt.NodeTask(ds),
		torchgt.WithEpochs(25), torchgt.WithSeed(9))
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("β_G (graph sparsity) = %.6f\n\n", ds.G.Sparsity())
	fmt.Println("epoch  βthre      loss     test-acc  pairs")
	for _, p := range res.Curve {
		fmt.Printf("%5d  %-9.6f  %-7.4f  %-8.4f  %d\n", p.Epoch, p.Beta, p.Loss, p.TestAcc, p.Pairs)
	}
	fmt.Printf("\nfinal accuracy %.2f%%; the tuner moves βthre up when the loss descent\n", res.FinalTestAcc*100)
	fmt.Println("rate holds (more clusters compacted into sub-blocks = faster epochs) and")
	fmt.Println("steps back down when descent stalls.")
}
