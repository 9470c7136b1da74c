package torchgt_test

import (
	"context"
	"fmt"

	"torchgt"
)

// ExampleNewSession trains through the Session API: functional options, an
// event stream, and a context-driven run.
func ExampleNewSession() {
	d, err := torchgt.OpenDataset("synth://arxiv-sim?nodes=256&seed=1")
	if err != nil {
		panic(err)
	}
	ds := d.Node
	cfg := torchgt.GraphormerSlim(ds.X.Cols, ds.NumClasses, 1)
	epochs := 0
	s, err := torchgt.NewSession(torchgt.MethodTorchGT, cfg, torchgt.NodeTask(ds),
		torchgt.WithEpochs(6), torchgt.WithSeed(2),
		torchgt.WithEventSink(func(e torchgt.Event) {
			if _, ok := e.(torchgt.EpochEvent); ok {
				epochs++
			}
		}))
	if err != nil {
		panic(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("epoch events:", epochs)
	fmt.Println("loss decreased:", res.Curve[len(res.Curve)-1].Loss < res.Curve[0].Loss)
	// Output:
	// epoch events: 6
	// loss decreased: true
}

// ExampleWithSeqParallel trains one epoch across two simulated
// sequence-parallel ranks and shows that real tensors were exchanged.
func ExampleWithSeqParallel() {
	d, err := torchgt.OpenDataset("synth://arxiv-sim?nodes=128&seed=3")
	if err != nil {
		panic(err)
	}
	ds := d.Node
	cfg := torchgt.GraphormerSlim(ds.X.Cols, ds.NumClasses, 4)
	s, err := torchgt.NewSession(torchgt.MethodGPSparse, cfg, torchgt.NodeTask(ds),
		torchgt.WithEpochs(1), torchgt.WithSeqParallel(2))
	if err != nil {
		panic(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		panic(err)
	}
	fmt.Println("communicated:", s.CommBytes() > 0)
	// Output:
	// communicated: true
}
