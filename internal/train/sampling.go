package train

import (
	"fmt"
	"time"

	"torchgt/internal/graph"
	"torchgt/internal/model"
	"torchgt/internal/nn"
	"torchgt/internal/sample"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// EgoConfig configures ego-graph sampled training — the Gophormer/NAGphormer
// family the paper groups under "sampling or pooling methods that select a
// subset of nodes per iteration" (issue I2): each training example is one
// target node plus a capped-size sampled neighbourhood, so connectivity
// outside the ego-graph is dropped. The paper's claim — that this sacrifices
// accuracy against long-sequence training — is reproduced by the
// ablation-sampling experiment.
type EgoConfig struct {
	Epochs  int
	LR      float64
	Hops    int // neighbourhood radius (default 2)
	MaxSize int // max ego-graph size incl. target (default 32)
	Batch   int // targets per optimiser step (default 32)
	Seed    int64
	// Workers sets the sampling pipeline's prefetch concurrency (≤1 =
	// synchronous). Sampling is deterministic per (seed, serial, target),
	// so the worker count changes wall-clock only, never results — which
	// is what makes it safe to raise for disk-resident (shard://) sources
	// where the samples hide read latency.
	Workers int
}

func (c EgoConfig) withDefaults() EgoConfig {
	if c.Epochs <= 0 {
		c.Epochs = 20
	}
	if c.Hops == 0 {
		c.Hops = 2
	}
	if c.MaxSize == 0 {
		c.MaxSize = 32
	}
	if c.Batch == 0 {
		c.Batch = 32
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	return c
}

// EgoTrainer trains node classification from sampled ego-graphs drawn
// through a graph.NodeSource — the in-memory dataset or a disk-resident
// shard view, interchangeably: the sampled sequences are bitwise-identical
// across backings and worker counts.
type EgoTrainer struct {
	Cfg      EgoConfig
	Model    *model.GraphTransformer
	Src      graph.NodeSource
	modelCfg model.Config
	serial   uint64

	pack   pack    // the contexts of the pack being filled
	labels []int32 // their targets' classes
}

// NewEgoTrainer builds the trainer over an in-memory dataset; the model is
// the node form (no global token), read out at each context's target row.
func NewEgoTrainer(cfg EgoConfig, modelCfg model.Config, ds *graph.NodeDataset) *EgoTrainer {
	return NewEgoTrainerSource(cfg, modelCfg, graph.SourceOf(ds))
}

// NewEgoTrainerSource builds the trainer over any node source.
func NewEgoTrainerSource(cfg EgoConfig, modelCfg model.Config, src graph.NodeSource) *EgoTrainer {
	cfg = cfg.withDefaults()
	modelCfg.GlobalToken = false
	return &EgoTrainer{Cfg: cfg, Model: model.NewGraphTransformer(modelCfg), modelCfg: modelCfg, Src: src}
}

// validate checks the source against the model before training, so Run
// reports a descriptive error instead of a mid-epoch panic.
func (tr *EgoTrainer) validate() error {
	if tr.Src == nil {
		return fmt.Errorf("train: ego trainer has no dataset")
	}
	if tr.modelCfg.InDim != tr.Src.FeatDim() {
		return fmt.Errorf("train: model expects %d input features, dataset %q has %d",
			tr.modelCfg.InDim, tr.Src.DatasetName(), tr.Src.FeatDim())
	}
	if tr.Src.Classes() > 0 && tr.modelCfg.OutDim != tr.Src.Classes() {
		return fmt.Errorf("train: model emits %d classes, dataset %q has %d",
			tr.modelCfg.OutDim, tr.Src.DatasetName(), tr.Src.Classes())
	}
	hasTrain := false
	for i, n := 0, tr.Src.NumNodes(); i < n; i++ {
		if tr.Src.SplitOf(int32(i)).Train() {
			hasTrain = true
			break
		}
	}
	if !hasTrain {
		return fmt.Errorf("train: dataset %q has no training nodes", tr.Src.DatasetName())
	}
	return nil
}

// pipeline builds the prefetching sampler pipeline for this trainer.
func (tr *EgoTrainer) pipeline() *sample.Pipeline {
	return sample.NewPipeline(sample.New(tr.Src, sample.Config{
		Hops: tr.Cfg.Hops, MaxSize: tr.Cfg.MaxSize, Seed: tr.Cfg.Seed, Workers: tr.Cfg.Workers,
	}))
}

// nextSerial reserves n sample serial numbers. Serials count submissions in
// program order, so they are independent of worker count.
func (tr *EgoTrainer) nextSerial(n int) uint64 {
	s := tr.serial
	tr.serial += uint64(n)
	return s
}

// eachPack samples targets in order and coalesces their contexts — features,
// degree buckets, label, and the subgraph's pattern with its edge buckets —
// into packs of at most packRows rows, calling flush on each pack as it
// fills and on the last partial one. The sampler keeps prefetching while a
// flush computes. On a source I/O error (reported once every target has been
// visited) the remaining pack is dropped, not flushed.
func (tr *EgoTrainer) eachPack(pipe *sample.Pipeline, targets []int32, flush func()) error {
	reset := func() {
		tr.pack.reset()
		tr.labels = tr.labels[:0]
	}
	reset()
	err := pipe.Each(targets, tr.nextSerial(len(targets)), func(c *sample.Context) {
		if rows := tr.pack.rows(); rows > 0 && rows+c.X.Rows > packRows {
			flush()
			reset()
		}
		p := sparse.FromGraph(c.Sub)
		tr.pack.add(&model.Inputs{X: c.X, DegInIdx: c.DegIn, DegOutIdx: c.DegOut}, p, edgeBucketsFor(p, false, 0))
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
func (tr *EgoTrainer) accumulate(pipe *sample.Pipeline, targets []int32) (float64, error) {
	var total float64
	err := tr.eachPack(pipe, targets, func() {
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

// step trains on one batch of targets — one optimiser step — and returns the
// summed loss. The samples behind a failed source are zero-filled: on its
// error no step is taken on them and no partial gradient is left behind.
func (tr *EgoTrainer) step(pipe *sample.Pipeline, targets []int32, opt *nn.Adam) (float64, error) {
	total, err := tr.accumulate(pipe, targets)
	if err != nil {
		nn.ZeroGrads(tr.Model.Params())
		return 0, err
	}
	opt.Step(tr.Model.Params())
	return total, nil
}

// Run trains over all train-mask targets each epoch and evaluates on a
// sample of test nodes. Invalid configurations (nil or mismatched dataset,
// no training nodes) are reported as errors rather than panics. On
// disk-resident sources, I/O failures surface between batches as errors.
func (tr *EgoTrainer) Run() (*Result, error) {
	if err := tr.validate(); err != nil {
		return nil, err
	}
	opt := nn.NewAdam(tr.Cfg.LR)
	opt.ClipNorm = 5
	rng := newRand(tr.Cfg.Seed)
	pipe := tr.pipeline()
	var trainIdx, testIdx []int32
	for i, n := 0, tr.Src.NumNodes(); i < n; i++ {
		s := tr.Src.SplitOf(int32(i))
		if s.Train() {
			trainIdx = append(trainIdx, int32(i))
		} else if s.Test() {
			testIdx = append(testIdx, int32(i))
		}
	}
	var curve []Point
	for ep := 0; ep < tr.Cfg.Epochs; ep++ {
		t0 := time.Now()
		rng.Shuffle(len(trainIdx), func(i, j int) { trainIdx[i], trainIdx[j] = trainIdx[j], trainIdx[i] })
		var epLoss float64
		for lo := 0; lo < len(trainIdx); lo += tr.Cfg.Batch {
			hi := lo + tr.Cfg.Batch
			if hi > len(trainIdx) {
				hi = len(trainIdx)
			}
			l, err := tr.step(pipe, trainIdx[lo:hi], opt)
			if err != nil {
				return nil, fmt.Errorf("train: epoch %d: %w", ep, err)
			}
			epLoss += l
		}
		acc, err := tr.evalSample(pipe, testIdx, 200, rng)
		if err != nil {
			return nil, err
		}
		curve = append(curve, Point{
			Epoch: ep, Loss: epLoss / float64(len(trainIdx)),
			TestAcc: acc, EpochTime: time.Since(t0),
		})
	}
	res := summarise(GPSparse, curve, 0)
	final, err := tr.evalSample(pipe, testIdx, 400, rng)
	if err != nil {
		return nil, err
	}
	res.FinalTestAcc = final
	if res.FinalTestAcc > res.BestTestAcc {
		res.BestTestAcc = res.FinalTestAcc
	}
	return res, nil
}

// evalSample classifies up to n test targets via their ego-graphs. Target
// selection draws from the trainer RNG (as before); the per-target sampling
// randomness comes from the pipeline's serial stream.
func (tr *EgoTrainer) evalSample(pipe *sample.Pipeline, testIdx []int32, n int, rng interface{ Intn(int) int }) (float64, error) {
	if len(testIdx) == 0 {
		return 0, nil
	}
	if n > len(testIdx) {
		n = len(testIdx)
	}
	targets := make([]int32, n)
	for i := range targets {
		targets[i] = testIdx[rng.Intn(len(testIdx))]
	}
	correct := 0
	err := tr.eachPack(pipe, targets, func() {
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
		return 0, err
	}
	return float64(correct) / float64(n), nil
}
