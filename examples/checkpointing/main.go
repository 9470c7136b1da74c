// Checkpointing: the Session lifecycle end to end — train with an event
// stream, cancel mid-run, checkpoint, resume in a "new process", and verify
// the resumed run lands exactly where an uninterrupted run would have.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"torchgt"
)

func main() {
	d, err := torchgt.OpenDataset("synth://arxiv-sim?nodes=1024&seed=1")
	if err != nil {
		log.Fatal(err)
	}
	ds := d.Node
	cfg := torchgt.GraphormerSlim(ds.X.Cols, ds.NumClasses, 1)
	const epochs = 10

	dir, err := os.MkdirTemp("", "torchgt-ckpt")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Reference: one uninterrupted session.
	ref, err := torchgt.NewSession(torchgt.MethodTorchGT, cfg, torchgt.NodeTask(ds),
		torchgt.WithEpochs(epochs), torchgt.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	refRes, err := ref.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uninterrupted: %d epochs, final accuracy %.2f%%\n",
		len(refRes.Curve), refRes.FinalTestAcc*100)

	// Same run, but cancelled from its own event stream after epoch 4...
	ctx, cancel := context.WithCancel(context.Background())
	sess, err := torchgt.NewSession(torchgt.MethodTorchGT, cfg, torchgt.NodeTask(ds),
		torchgt.WithEpochs(epochs), torchgt.WithSeed(7),
		torchgt.WithEventSink(func(e torchgt.Event) {
			switch ev := e.(type) {
			case torchgt.EpochEvent:
				fmt.Printf("  epoch %d: loss %.4f acc %.2f%%\n",
					ev.Epoch, ev.Point.Loss, ev.Point.TestAcc*100)
				if ev.Epoch == 4 {
					cancel() // deploy rolled, spot instance reclaimed, ^C ...
				}
			case torchgt.BetaEvent:
				fmt.Printf("  auto-tuner: βthre → %.5f\n", ev.Beta)
			}
		}))
	if err != nil {
		log.Fatal(err)
	}
	partial, err := sess.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		log.Fatalf("expected cancellation, got %v", err)
	}
	fmt.Printf("cancelled after %d epochs; checkpointing\n", len(partial.Curve))

	// ...checkpointed, and resumed as if in a fresh process.
	path := filepath.Join(dir, "run.ckpt")
	if err := sess.Checkpoint(path); err != nil {
		log.Fatal(err)
	}
	resumed, err := torchgt.ResumeSession(path, torchgt.NodeTask(ds))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed %s at epoch %d\n", filepath.Base(path), resumed.Epoch())
	resRes, err := resumed.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	// The resumed run must be indistinguishable from the uninterrupted one —
	// bitwise, not approximately.
	same := refRes.FinalTestAcc == resRes.FinalTestAcc
	for i, p := range refRes.Curve {
		if p.Loss != resRes.Curve[i].Loss {
			same = false
		}
	}
	ra, rb := ref.Model().Params(), resumed.Model().Params()
	for i := range ra {
		for j := range ra[i].W.Data {
			if math.Float32bits(ra[i].W.Data[j]) != math.Float32bits(rb[i].W.Data[j]) {
				same = false
			}
		}
	}
	fmt.Printf("resume ≡ uninterrupted (weights, losses, accuracy): %v\n", same)
	if !same {
		os.Exit(1)
	}
}
