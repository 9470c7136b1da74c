package train

import (
	"time"

	"torchgt/internal/attention"
	"torchgt/internal/encoding"
	"torchgt/internal/graph"
	"torchgt/internal/model"
	"torchgt/internal/nn"
	"torchgt/internal/partition"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// NodeTrainer trains a graph transformer for node classification on one
// large graph (full-graph sequence). It is the "node" Task adapter for the
// shared Loop engine: one optimiser step per epoch over the full sequence.
type NodeTrainer struct {
	taskBase
	Cfg   Config
	Model *model.GraphTransformer
	DS    *graph.NodeDataset // reordered copy when method is TorchGT

	inputs  *model.Inputs
	pattern *sparse.Pattern
	buckets []int32
	layout  *sparse.ClusterLayout
	policy  *attention.InterleavePolicy
	tuner   *AutoTuner

	reformCache map[float64]*reformEntry

	lastLogits *tensor.Mat // training logits of the last step (epoch eval)
	lastSparse bool        // interleave phase of the previous epoch
}

type reformEntry struct {
	r           *sparse.Reformed
	keepBuckets []int32
}

// NewNodeTrainer prepares a trainer: for TorchGT methods this performs the
// paper's pre-processing (partition, cluster reorder, pattern construction,
// condition checks) and records its cost.
func NewNodeTrainer(cfg Config, modelCfg model.Config, ds *graph.NodeDataset) *NodeTrainer {
	cfg = cfg.withDefaults()
	t0 := time.Now()
	tr := &NodeTrainer{Cfg: cfg, DS: ds, reformCache: map[float64]*reformEntry{}}
	tr.cfg = &tr.Cfg

	usesTorchGT := cfg.Method == TorchGT || cfg.Method == TorchGTBF16
	if usesTorchGT {
		part := partition.Partition(ds.G, cfg.ClusterK, cfg.Seed)
		perm, bounds := partition.ClusterOrder(part, cfg.ClusterK)
		tr.DS = ds.Permute(perm)
		tr.pattern = sparse.FromGraph(tr.DS.G)
		tr.buckets = tr.pattern.LocalEdgeBuckets(false, 0)
		var err error
		tr.layout, err = sparse.NewClusterLayout(tr.pattern, bounds)
		if err != nil {
			panic(err)
		}
		tr.policy = attention.NewInterleavePolicy(tr.DS.G, modelCfg.Layers, cfg.Interval)
		if cfg.FixedBeta < 0 {
			tr.tuner = NewAutoTuner(tr.DS.G.Sparsity())
		}
	} else if cfg.Method == GPSparse {
		tr.pattern = sparse.FromGraph(ds.G)
		tr.buckets = tr.pattern.LocalEdgeBuckets(false, 0)
	}
	tr.preprocess = time.Since(t0)

	tr.Model = model.NewGraphTransformer(modelCfg)
	cfg.applyExec(tr.Model)
	degIn, degOut := encoding.DegreeBuckets(tr.DS.G, 63)
	tr.inputs = &model.Inputs{X: tr.DS.X, DegInIdx: degIn, DegOutIdx: degOut}
	if modelCfg.UseLapPE {
		rng := newRand(cfg.Seed)
		tr.inputs.LapPE = encoding.LaplacianPE(tr.DS.G, modelCfg.LapDim, 30, rng)
	}
	NewLoop(tr, tr.Model, tr.Cfg)
	return tr
}

// specFor builds the attention spec for one epoch.
func (tr *NodeTrainer) specFor(epoch int) *model.AttentionSpec {
	beta := tr.Cfg.FixedBeta
	if tr.tuner != nil {
		beta = tr.tuner.Beta()
	}
	switch tr.Cfg.Method {
	case GPRaw:
		return &model.AttentionSpec{Mode: model.ModeDense}
	case GPFlash:
		return &model.AttentionSpec{Mode: model.ModeFlash}
	case GPSparse:
		return &model.AttentionSpec{Mode: model.ModeSparse, Pattern: tr.pattern, EdgeBuckets: tr.buckets}
	case NodeFormerKernel:
		return &model.AttentionSpec{Mode: model.ModeKernelized}
	case TorchGT, TorchGTBF16:
		bf16 := tr.Cfg.Method == TorchGTBF16
		if !tr.policy.UseSparse(epoch) {
			// dense interleave step: full attention via the flash kernel
			return &model.AttentionSpec{Mode: model.ModeFlash, BF16: bf16}
		}
		entry, ok := tr.reformCache[beta]
		if !ok {
			r := sparse.Reform(tr.layout, tr.Cfg.Db, beta)
			entry = &reformEntry{r: r, keepBuckets: r.Keep.LocalEdgeBuckets(false, 0)}
			tr.reformCache[beta] = entry
		}
		return &model.AttentionSpec{
			Mode: model.ModeClusterSparse, Reformed: entry.r,
			KeepBuckets: entry.keepBuckets, BF16: bf16,
		}
	}
	panic("train: unhandled method")
}

// Kind implements Task.
func (tr *NodeTrainer) Kind() string { return TaskNode }

// BeginEpoch implements Task, emitting interleave phase-switch events for
// the TorchGT schedule.
func (tr *NodeTrainer) BeginEpoch(ep int) {
	tr.resetEpoch()
	if tr.policy != nil {
		sparse := tr.policy.UseSparse(ep)
		if ep == 0 || sparse != tr.lastSparse {
			tr.fire(PhaseEvent{Epoch: ep, Sparse: sparse})
		}
		tr.lastSparse = sparse
	}
}

// Steps implements Task: the node regime applies one full-sequence optimiser
// step per epoch.
func (tr *NodeTrainer) Steps(int) int { return 1 }

// Step implements Task: one full-graph forward/backward.
func (tr *NodeTrainer) Step(ep, _, _ int) {
	spec := tr.specFor(ep)
	logits := tr.Model.Forward(tr.inputs, spec, true)
	loss, dl := nn.SoftmaxCrossEntropy(logits, tr.DS.Y, tr.DS.TrainMask)
	tr.Model.Backward(dl)
	tr.epPairs += tr.Model.Pairs()
	tr.epLoss += loss
	tr.epTerms++
	tr.lastLogits = logits
}

// EpochPoint implements Task: accuracy from the training-pass logits plus
// one Auto Tuner observation.
func (tr *NodeTrainer) EpochPoint(ep int, dt time.Duration) Point {
	testAcc := nn.Accuracy(tr.lastLogits, tr.DS.Y, tr.DS.TestMask)
	valAcc := nn.Accuracy(tr.lastLogits, tr.DS.Y, tr.DS.ValMask)
	beta := tr.Cfg.FixedBeta
	if tr.tuner != nil {
		prevIdx := tr.tuner.Index()
		beta = tr.tuner.Observe(tr.epLoss, dt.Seconds())
		if tr.tuner.Index() != prevIdx {
			tr.fire(BetaEvent{Epoch: ep, Beta: beta, Index: tr.tuner.Index()})
		}
	}
	return Point{
		Epoch: ep, Loss: tr.epLoss, TestAcc: testAcc, ValAcc: valAcc,
		EpochTime: dt, Beta: beta, Pairs: tr.epPairs,
	}
}

// Finish implements Task: a clean evaluation pass (no dropout) for the
// headline accuracy.
func (tr *NodeTrainer) Finish(res *Result) {
	spec := tr.specFor(tr.Cfg.Epochs)
	logits := tr.Model.Forward(tr.inputs, spec, false)
	res.FinalTestAcc = nn.Accuracy(logits, tr.DS.Y, tr.DS.TestMask)
	if res.FinalTestAcc > res.BestTestAcc {
		res.BestTestAcc = res.FinalTestAcc
	}
}

// StopMetric implements Task: the node task has a validation split.
func (tr *NodeTrainer) StopMetric(p Point) float64 { return p.ValAcc }
