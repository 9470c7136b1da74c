package main

import (
	"fmt"
	"time"
)

// sizes fixes the amount of work at one scale. Training is a fixed number
// of epochs, so that losses are comparable from run to run; the serving
// phases are timed and take their lengths from --seconds.
type sizes struct {
	// full-graph training (node-full, seqpar-mem, seqpar-tcp)
	Nodes  int // sequence length S
	Epochs int // interval 8: epoch 0 and 8 are dense-flash, the rest cluster-sparse
	Warm   int // leading epochs left out of the timed set
	// RefEpochs is how many epochs the sequence-parallel workloads first
	// train on the serial plan, to compare losses with.
	RefEpochs int

	// ego-sampled training over shards (ego-shard)
	EgoNodes   int
	EgoResplit string // train:val fractions: the targets per epoch, and (what is left) the test nodes each epoch evaluates
	EgoEpochs  int
	EgoWarm    int
	Shards     int

	// serving
	HotPool   int     // distinct nodes requested on in-memory workloads (fits the ego cache)
	HotCache  int     // ego-cache entries, hot mix
	ColdPool  int     // distinct nodes requested over shards (far more than the ego cache)
	ColdCache int     // ego-cache entries, cold mix
	Rate      float64 // open-loop arrivals per second, evenly spaced
	Callers   int     // closed-loop callers

	SetupReps int // extra set-ups per run; setup_s is the median over all of them
	ProbeReps int // traced run: repetitions of each serving and collective probe, contexts of the ego probe ÷ 4
}

var scales = map[string]sizes{
	"full": {
		Nodes: 1024, Epochs: 11, Warm: 2, RefEpochs: 4,
		EgoNodes: 8192, EgoResplit: "0.02:0.97", EgoEpochs: 3, EgoWarm: 1, Shards: 8,
		HotPool: 128, HotCache: 4096, ColdPool: 512, ColdCache: 64,
		Rate: 80, Callers: 32, SetupReps: 4, ProbeReps: 20,
	},
	// smoke is the size the package test runs: every code path, seconds in total.
	"smoke": {
		Nodes: 128, Epochs: 10, Warm: 1, RefEpochs: 3,
		EgoNodes: 512, EgoResplit: "0.06:0.9", EgoEpochs: 2, EgoWarm: 1, Shards: 2,
		HotPool: 16, HotCache: 256, ColdPool: 64, ColdCache: 8,
		Rate: 100, Callers: 4, SetupReps: 1, ProbeReps: 3,
	},
}

// Serving engine configuration, the same on every workload.
const (
	serveWorkers  = 2
	serveBatch    = 16
	serveDeadline = 2 * time.Millisecond
	modelName     = "bench"
	// slowRequest is the latency above which an open-loop request is
	// counted in serve.over_50ms.
	slowRequest = 50 * time.Millisecond
	// openShare and closedShare split --seconds between the two serving
	// phases (10 s and 5 s of the 25 s of BENCHMARK.json); what remains is
	// the nominal length of the fixed training work at full scale.
	openShare   = 0.40
	closedShare = 0.20
	// serveSegments is the number of windows each serving phase is cut
	// into; see quietHalf and saturationRate.
	serveSegments = 20
	// warmShare is the untimed stretch of open-loop traffic before the
	// timed one.
	warmShare = 0.06
)

// workload is one named scenario: a training plan over a data backing,
// followed by serving the trained snapshot over the same backing.
type workload struct {
	name  string
	ranks int  // sequence-parallel ranks
	tcp   bool // ranks joined over loopback TCP instead of the in-process mesh
	ego   bool // ego-sampled training and cold serving over shard://
}

var workloads = []workload{
	{name: "node-full", ranks: 1},
	{name: "seqpar-mem", ranks: 2},
	{name: "seqpar-tcp", ranks: 2, tcp: true},
	{name: "ego-shard", ranks: 1, ego: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// trainSeed seeds everything the training phase sees: the dataset spec,
// model initialisation, partitioning and the ego target order. It does not
// follow --seed, because the loss after a dozen epochs moves by ±10 % with
// either the graph or the initialisation, and a loss bound that wide would
// let a real quality regression through. With it fixed, final_loss repeats
// to the last bit unless a change alters the arithmetic. --seed drives the
// serving traffic: which node of the pool each request and each caller asks
// for.
const trainSeed = 1

func (sz sizes) fullSpec() string {
	return fmt.Sprintf("synth://arxiv-sim?nodes=%d&seed=%d", sz.Nodes, trainSeed)
}

func (sz sizes) egoSpec() string {
	return fmt.Sprintf("synth://arxiv-sim?nodes=%d&seed=%d&resplit=%s", sz.EgoNodes, trainSeed, sz.EgoResplit)
}

func shardSpec(dir string) string {
	return "shard://" + dir + "?cache=256KiB&block=16KiB&io=pread"
}
