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
}

// NewEgoTrainer builds the trainer over an in-memory dataset; the model is
// used with a global-token head reading out the (position-0) target node.
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

// forward runs the model over one sampled ego context. The context's X is
// handed to the model directly; the model does not retain it past the
// backward pass, which completes before the context is recycled.
func (tr *EgoTrainer) forward(c *sample.Context, train bool) *tensor.Mat {
	p := sparse.FromGraph(c.Sub)
	in := &model.Inputs{X: c.X, DegInIdx: c.DegIn, DegOutIdx: c.DegOut}
	spec := &model.AttentionSpec{Mode: model.ModeSparse, Pattern: p, EdgeBuckets: edgeBucketsFor(p, false, 0)}
	return tr.Model.Forward(in, spec, train)
}

// step trains on one batch of targets and returns the summed loss.
func (tr *EgoTrainer) step(pipe *sample.Pipeline, targets []int32, opt *nn.Adam) (float64, error) {
	var total float64
	err := pipe.Each(targets, tr.nextSerial(len(targets)), func(c *sample.Context) {
		logits := tr.forward(c, true)
		// loss on the target node (row 0) only
		mask := make([]bool, len(c.Nodes))
		mask[0] = true
		labels := make([]int32, len(c.Nodes))
		labels[0] = c.Label
		l, dl := nn.SoftmaxCrossEntropy(logits, labels, mask)
		tr.Model.Backward(dl)
		total += l
	})
	opt.Step(tr.Model.Params())
	return total, err
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
	err := pipe.Each(targets, tr.nextSerial(n), func(c *sample.Context) {
		logits := tr.forward(c, false)
		row := logits.Row(0)
		best := 0
		for j := 1; j < len(row); j++ {
			if row[j] > row[best] {
				best = j
			}
		}
		if int32(best) == c.Label {
			correct++
		}
	})
	if err != nil {
		return 0, err
	}
	return float64(correct) / float64(n), nil
}
