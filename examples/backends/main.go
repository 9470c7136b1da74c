// Compute-backend example: time every op that differs between the two
// backends (exp, softmax and bias+GELU — the matrix kernels are shared) and
// print the measured ratio whichever way it falls, then train the same
// session on both backends and compare wall-clock and accuracy.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"torchgt"
)

func main() {
	fmt.Printf("shared matrix kernels run on: %s\n\n", torchgt.KernelISA())
	fmt.Println("ops that differ between the backends (fixed synthetic operand, best of 3):")
	for _, s := range torchgt.BackendTuningReport() {
		fmt.Printf("  %-12s  ref %8.0f ns  opt %8.0f ns  ref/opt %.2f\n", s.Kernel, s.RefNs, s.OptNs, s.Speedup)
	}

	// Same dataset, same seed, both backends. The reference trajectory is the
	// bitwise-pinned one; the optimized run lands within a small tolerance of
	// it (see DESIGN.md "Compute backends and quantized serving"). Which one
	// steps faster depends on the CPU: see the ratios above.
	d, err := torchgt.OpenDataset("synth://arxiv-sim?nodes=2048&seed=1")
	if err != nil {
		log.Fatal(err)
	}
	ds := d.Node
	fmt.Println("\ntraining gph-slim on arxiv-sim, 10 epochs, both backends:")
	for _, name := range torchgt.BackendNames() {
		if _, err := torchgt.SetBackend(name); err != nil {
			log.Fatal(err)
		}
		cfg := torchgt.GraphormerSlim(ds.X.Cols, ds.NumClasses, 1)
		start := time.Now()
		s, err := torchgt.NewSession(torchgt.MethodTorchGT, cfg, torchgt.NodeTask(ds),
			torchgt.WithEpochs(10), torchgt.WithSeed(7))
		if err != nil {
			log.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-4s %8.2fs wall  final loss %.4f  test acc %.2f%%\n",
			name, time.Since(start).Seconds(), res.Curve[len(res.Curve)-1].Loss, res.FinalTestAcc*100)
	}
	if _, err := torchgt.SetBackend("ref"); err != nil {
		log.Fatal(err)
	}
}
