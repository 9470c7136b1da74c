package train

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"torchgt/internal/graph"
	"torchgt/internal/model"
	"torchgt/internal/nn"
	"torchgt/internal/sample"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// Ego-graph sampled training — the Gophormer/NAGphormer family the paper
// groups under "sampling or pooling methods that select a subset of nodes per
// iteration" (issue I2): each training example is one target node plus a
// capped-size sampled neighbourhood, so connectivity outside the ego-graph is
// dropped. The paper's claim — that this sacrifices accuracy against
// long-sequence training — is reproduced by the ablation-sampling experiment.
const (
	egoWorkers   = 2   // sampling pipeline prefetch workers (bitwise-neutral)
	egoEvalEpoch = 200 // test targets classified after every epoch (at most)
	egoEvalFinal = 400 // test targets of the final evaluation (at most)
)

// EgoConfig configures NewEgoTrainerSource, the adapter that builds the ego
// task from the ego-specific knobs; zero values pick the task's defaults.
type EgoConfig struct {
	Epochs  int
	MaxSize int // max ego-graph size incl. target (default 32)
	Batch   int // targets per optimiser step (default 32)
	Seed    int64
	// Workers sets the sampling pipeline's prefetch concurrency (≤1 =
	// synchronous). Sampling is deterministic per (seed, serial, target), so
	// the worker count changes wall-clock only, never results.
	Workers int
}

// EgoTrainer trains node classification from sampled ego-graphs drawn
// through a graph.NodeSource — the in-memory dataset or a disk-resident
// shard view, interchangeably: the sampled sequences are bitwise-identical
// across backings and worker counts. It is the "ego" Task adapter: one
// optimiser step per Cfg.BatchSize targets, each a context of at most
// Cfg.SeqLen nodes.
type EgoTrainer struct {
	taskBase
	Cfg   Config
	Model *model.GraphTransformer
	Src   graph.NodeSource

	pipe              *sample.Pipeline
	rng               *rand.Rand // epoch shuffles + evaluation targets (source: rngSrc)
	trainIdx, testIdx []int32
	shuffled          int    // epochs whose shuffle trainIdx carries
	epochSerials      uint64 // sample serials one epoch reserves

	pack   pack    // the contexts of the pack being filled
	labels []int32 // their targets' classes
}

// NewEgoTask builds the ego task over src for the Loop engine. cfg.SeqLen is
// the context size and cfg.BatchSize the targets per step (both default 32).
// Attention is always sparse over each sampled ego-graph, so callers pass
// Method GPSparse for the result to record. It reports an error for a nil or
// mismatched source and for a source without training nodes.
func NewEgoTask(cfg Config, modelCfg model.Config, src graph.NodeSource) (*EgoTrainer, error) {
	tr := newEgoTrainer(cfg, egoWorkers, modelCfg, src)
	if err := tr.validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// NewEgoTrainerSource builds the ego task from an EgoConfig (gp-sparse,
// constant learning rate 1e-3); Run validates it.
func NewEgoTrainerSource(cfg EgoConfig, modelCfg model.Config, src graph.NodeSource) *EgoTrainer {
	return newEgoTrainer(Config{
		Method: GPSparse, Epochs: cfg.Epochs, SeqLen: cfg.MaxSize, BatchSize: cfg.Batch, Seed: cfg.Seed,
	}, cfg.Workers, modelCfg, src)
}

func newEgoTrainer(cfg Config, workers int, modelCfg model.Config, src graph.NodeSource) *EgoTrainer {
	// the ego task's own defaults, ahead of the shared ones
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 32
	}
	if cfg.SeqLen <= 0 {
		cfg.SeqLen = 32
	}
	cfg = cfg.withDefaults()
	modelCfg.GlobalToken = false
	tr := &EgoTrainer{Cfg: cfg, Model: model.NewGraphTransformer(modelCfg), Src: src}
	tr.cfg = &tr.Cfg
	tr.rng, tr.rngSrc = nn.NewCountedRand(cfg.Seed)
	NewLoop(tr, tr.Model, tr.Cfg)
	if src == nil {
		return tr
	}
	tr.pipe = sample.NewPipeline(sample.New(src, sample.Config{
		MaxSize: cfg.SeqLen, Seed: cfg.Seed, Workers: workers,
	}))
	for i, n := 0, src.NumNodes(); i < n; i++ {
		s := src.SplitOf(int32(i))
		if s.Train() {
			tr.trainIdx = append(tr.trainIdx, int32(i))
		} else if s.Test() {
			tr.testIdx = append(tr.testIdx, int32(i))
		}
	}
	tr.epochSerials = uint64(len(tr.trainIdx) + min(egoEvalEpoch, len(tr.testIdx)))
	return tr
}

// validate checks the source against the model before training, so a bad
// configuration is a descriptive error instead of a mid-epoch panic.
func (tr *EgoTrainer) validate() error {
	if tr.Src == nil {
		return fmt.Errorf("train: ego trainer has no dataset")
	}
	mcfg := tr.Model.Cfg
	if mcfg.InDim != tr.Src.FeatDim() {
		return fmt.Errorf("train: model expects %d input features, dataset %q has %d",
			mcfg.InDim, tr.Src.DatasetName(), tr.Src.FeatDim())
	}
	if tr.Src.Classes() > 0 && mcfg.OutDim != tr.Src.Classes() {
		return fmt.Errorf("train: model emits %d classes, dataset %q has %d",
			mcfg.OutDim, tr.Src.DatasetName(), tr.Src.Classes())
	}
	if len(tr.trainIdx) == 0 {
		return fmt.Errorf("train: dataset %q has no training nodes", tr.Src.DatasetName())
	}
	return nil
}

// Kind implements Task.
func (tr *EgoTrainer) Kind() string { return TaskEgo }

// BeginEpoch implements Task: shuffle the training targets. Each shuffle
// permutes the previous epoch's order, so a trainer resumed at epoch ep > 0
// first replays the draws of epochs 0..ep−1 — their shuffles and evaluation
// picks — from the start of the stream, landing where the checkpointed
// stream position says it is.
func (tr *EgoTrainer) BeginEpoch(ep int) {
	tr.resetEpoch()
	if tr.shuffled == 0 && ep > 0 {
		tr.rngSrc.Seek(0)
		for ; tr.shuffled < ep; tr.shuffled++ {
			tr.shuffle()
			tr.evalTargets(egoEvalEpoch)
		}
	}
	tr.shuffle()
	tr.shuffled = ep + 1
}

func (tr *EgoTrainer) shuffle() {
	tr.rng.Shuffle(len(tr.trainIdx), func(i, j int) { tr.trainIdx[i], tr.trainIdx[j] = tr.trainIdx[j], tr.trainIdx[i] })
}

// Steps implements Task: one optimiser step per BatchSize targets.
func (tr *EgoTrainer) Steps(int) int {
	return (len(tr.trainIdx) + tr.Cfg.BatchSize - 1) / tr.Cfg.BatchSize
}

// Step implements Task: sample and train the s-th batch of targets. Sample
// serials follow from the loop position — an epoch reserves one per training
// target, then one per evaluated target — so they need no checkpoint state.
// A source failure abandons the step (see sourceError): the samples behind
// it are zero-filled, so no step may be taken on them.
func (tr *EgoTrainer) Step(ep, s, _ int) {
	lo := s * tr.Cfg.BatchSize
	hi := min(lo+tr.Cfg.BatchSize, len(tr.trainIdx))
	loss, err := tr.accumulate(tr.trainIdx[lo:hi], uint64(ep)*tr.epochSerials+uint64(lo))
	if err != nil {
		panic(&sourceError{epoch: ep, err: err})
	}
	tr.epLoss += loss
}

// EpochPoint implements Task: the mean training loss per target and the
// accuracy on up to egoEvalEpoch sampled test targets.
func (tr *EgoTrainer) EpochPoint(ep int, dt time.Duration) Point {
	acc := tr.evaluate(ep, egoEvalEpoch, uint64(ep)*tr.epochSerials+uint64(len(tr.trainIdx)))
	return Point{Epoch: ep, Loss: tr.epLoss / float64(len(tr.trainIdx)), TestAcc: acc, EpochTime: dt}
}

// Finish implements Task: a wider sampled evaluation for the headline
// accuracy, on the serials after the last completed epoch.
func (tr *EgoTrainer) Finish(res *Result) {
	ep := len(res.Curve)
	res.FinalTestAcc = tr.evaluate(ep, egoEvalFinal, uint64(ep)*tr.epochSerials)
	if res.FinalTestAcc > res.BestTestAcc {
		res.BestTestAcc = res.FinalTestAcc
	}
}

// Run validates the trainer and trains it to completion.
func (tr *EgoTrainer) Run() (*Result, error) {
	if err := tr.validate(); err != nil {
		return nil, err
	}
	return tr.Loop().Run(context.Background())
}

// eachPack samples targets in order, from sample serial serial on, and
// coalesces their contexts — features, degree buckets, label, and the
// subgraph's pattern with its edge buckets — into packs of at most packRows
// rows, calling flush on each pack as it fills and on the last partial one.
// The sampler keeps prefetching while a flush computes. On a source I/O
// error (reported once every target has been visited) the remaining pack is
// dropped, not flushed.
func (tr *EgoTrainer) eachPack(targets []int32, serial uint64, flush func()) error {
	reset := func() {
		tr.pack.reset()
		tr.labels = tr.labels[:0]
	}
	reset()
	err := tr.pipe.Each(targets, serial, func(c *sample.Context) {
		if rows := tr.pack.rows(); rows > 0 && rows+c.X.Rows > packRows {
			flush()
			reset()
		}
		p := sparse.FromGraph(c.Sub)
		tr.pack.add(&model.Inputs{X: c.X, DegInIdx: c.DegIn, DegOutIdx: c.DegOut}, p, p.LocalEdgeBuckets(false, 0))
		tr.labels = append(tr.labels, c.Label)
	})
	if err == nil && tr.pack.rows() > 0 {
		flush()
	}
	return err
}

// forwardPack runs the model over the current pack. With targets nil it
// returns the logits of all its rows — context s's target is row SegRows[s],
// the first of its block; otherwise those of the target rows only, in order
// (an inference forward, computing only the rows they depend on).
func (tr *EgoTrainer) forwardPack(train bool, targets []int32) *tensor.Mat {
	tr.pack.in.Targets = targets
	return tr.Model.Forward(&tr.pack.in, tr.pack.spec(false), train)
}

// accumulate runs forward and backward over targets, pack by pack, adding
// their gradients to the model's accumulators, and returns the summed loss.
// The per-context losses are those of a loop over the contexts one at a
// time: each is the cross-entropy of its target row alone, summed in
// sampling order, and the model segments every gradient reduction by context.
func (tr *EgoTrainer) accumulate(targets []int32, serial uint64) (float64, error) {
	var total float64
	err := tr.eachPack(targets, serial, func() {
		logits := tr.forwardPack(true, nil)
		dl := tensor.New(logits.Rows, logits.Cols)
		for s, y := range tr.labels {
			r := int(tr.pack.in.SegRows[s])
			l, d := nn.SoftmaxCrossEntropy(logits.SliceRows(r, r+1), []int32{y}, nil)
			copy(dl.Row(r), d.Row(0))
			total += l
		}
		tr.Model.Backward(dl)
	})
	return total, err
}

// evalTargets draws up to n test targets, with replacement, from the task
// RNG.
func (tr *EgoTrainer) evalTargets(n int) []int32 {
	targets := make([]int32, min(n, len(tr.testIdx)))
	for i := range targets {
		targets[i] = tr.testIdx[tr.rng.Intn(len(tr.testIdx))]
	}
	return targets
}

// evaluate classifies up to n sampled test targets via their ego-graphs,
// sampled from serial on, and returns the accuracy. A source failure
// abandons the evaluation (see sourceError).
func (tr *EgoTrainer) evaluate(ep, n int, serial uint64) float64 {
	targets := tr.evalTargets(n)
	if len(targets) == 0 {
		return 0
	}
	correct := 0
	err := tr.eachPack(targets, serial, func() {
		logits := tr.forwardPack(false, tr.pack.in.SegRows[:len(tr.labels)])
		for s, y := range tr.labels {
			row := logits.Row(s)
			best := 0
			for j := 1; j < len(row); j++ {
				if row[j] > row[best] {
					best = j
				}
			}
			if int32(best) == y {
				correct++
			}
		}
	})
	if err != nil {
		panic(&sourceError{epoch: ep, err: err})
	}
	return float64(correct) / float64(len(targets))
}
