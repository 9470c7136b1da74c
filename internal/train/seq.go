package train

import (
	"math/rand"
	"time"

	"torchgt/internal/encoding"
	"torchgt/internal/graph"
	"torchgt/internal/model"
	"torchgt/internal/nn"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// SeqTrainer samples node subsets per step and trains on their induced
// subgraphs — the regime of Fig. 1, where each step builds a sequence from
// SeqLen sampled nodes and longer sequences expose more context. It is the
// "seq" Task adapter: one optimiser step per sampled sequence.
type SeqTrainer struct {
	taskBase
	Cfg   Config
	Model *model.GraphTransformer
	DS    *graph.NodeDataset

	rng  *rand.Rand // epoch shuffles + sampled evaluation
	perm []int      // current epoch's node permutation
}

// NewSeqTrainer builds the trainer.
func NewSeqTrainer(cfg Config, modelCfg model.Config, ds *graph.NodeDataset) *SeqTrainer {
	cfg = cfg.withDefaults()
	if cfg.SeqLen <= 0 || cfg.SeqLen > ds.G.N {
		cfg.SeqLen = ds.G.N
	}
	tr := &SeqTrainer{Cfg: cfg, Model: model.NewGraphTransformer(modelCfg), DS: ds}
	tr.cfg = &tr.Cfg
	tr.rng, tr.rngSrc = nn.NewCountedRand(cfg.Seed)
	cfg.applyExec(tr.Model)
	NewLoop(tr, tr.Model, tr.Cfg)
	return tr
}

// batch materialises a sampled node subset as model inputs.
func (tr *SeqTrainer) batch(nodes []int32) (*model.Inputs, *model.AttentionSpec, []int32, []bool, []bool) {
	sub := tr.DS.G.InducedSubgraph(nodes)
	x := tensor.New(len(nodes), tr.DS.X.Cols)
	y := make([]int32, len(nodes))
	trainMask := make([]bool, len(nodes))
	testMask := make([]bool, len(nodes))
	for i, v := range nodes {
		copy(x.Row(i), tr.DS.X.Row(int(v)))
		y[i] = tr.DS.Y[v]
		trainMask[i] = tr.DS.TrainMask[v]
		testMask[i] = tr.DS.TestMask[v]
	}
	degIn, degOut := encoding.DegreeBuckets(sub, 63)
	in := &model.Inputs{X: x, DegInIdx: degIn, DegOutIdx: degOut}

	var spec *model.AttentionSpec
	switch tr.Cfg.Method {
	case NodeFormerKernel:
		spec = &model.AttentionSpec{Mode: model.ModeKernelized}
	case GPSparse, TorchGT, TorchGTBF16:
		p := sparse.FromGraph(sub)
		spec = &model.AttentionSpec{Mode: model.ModeSparse, Pattern: p, EdgeBuckets: p.LocalEdgeBuckets(false, 0)}
	default:
		spec = &model.AttentionSpec{Mode: model.ModeFlash}
	}
	return in, spec, y, trainMask, testMask
}

// Kind implements Task.
func (tr *SeqTrainer) Kind() string { return TaskSeq }

// BeginEpoch implements Task: draw the epoch's node permutation.
func (tr *SeqTrainer) BeginEpoch(int) {
	tr.resetEpoch()
	tr.perm = tr.rng.Perm(tr.DS.G.N)
}

// Steps implements Task: one optimiser step per sampled sequence.
func (tr *SeqTrainer) Steps(int) int {
	return (tr.DS.G.N + tr.Cfg.SeqLen - 1) / tr.Cfg.SeqLen
}

// Step implements Task: build the s-th sampled sequence and run one
// forward/backward over its induced subgraph.
func (tr *SeqTrainer) Step(_, s, _ int) {
	n := tr.DS.G.N
	lo := s * tr.Cfg.SeqLen
	hi := lo + tr.Cfg.SeqLen
	if hi > n {
		hi = n
	}
	nodes := make([]int32, hi-lo)
	for i := lo; i < hi; i++ {
		nodes[i-lo] = int32(tr.perm[i])
	}
	in, spec, y, trainMask, _ := tr.batch(nodes)
	logits := tr.Model.Forward(in, spec, true)
	l, dl := nn.SoftmaxCrossEntropy(logits, y, trainMask)
	tr.Model.Backward(dl)
	tr.epPairs += tr.Model.Pairs()
	tr.epLoss += l
	tr.epTerms++
}

// EpochPoint implements Task: test accuracy is estimated on sampled test
// batches of the same sequence length.
func (tr *SeqTrainer) EpochPoint(ep int, dt time.Duration) Point {
	return Point{
		Epoch: ep, Loss: tr.epLoss / float64(tr.epTerms),
		TestAcc: tr.evalSampled(tr.rng, 3), EpochTime: dt, Pairs: tr.epPairs,
	}
}

// Finish implements Task: a wider sampled evaluation for the headline
// accuracy.
func (tr *SeqTrainer) Finish(res *Result) {
	res.FinalTestAcc = tr.evalSampled(tr.rng, 8)
	if res.FinalTestAcc > res.BestTestAcc {
		res.BestTestAcc = res.FinalTestAcc
	}
}

// evalSampled estimates test accuracy over `batches` sampled sequences.
func (tr *SeqTrainer) evalSampled(rng interface{ Perm(int) []int }, batches int) float64 {
	n := tr.DS.G.N
	correct, total := 0, 0
	for b := 0; b < batches; b++ {
		perm := rng.Perm(n)
		take := tr.Cfg.SeqLen
		if take > n {
			take = n
		}
		nodes := make([]int32, take)
		for i := 0; i < take; i++ {
			nodes[i] = int32(perm[i])
		}
		in, spec, y, _, testMask := tr.batch(nodes)
		logits := tr.Model.Forward(in, spec, false)
		for i := 0; i < logits.Rows; i++ {
			if !testMask[i] {
				continue
			}
			row := logits.Row(i)
			best := 0
			for j := 1; j < len(row); j++ {
				if row[j] > row[best] {
					best = j
				}
			}
			total++
			if int32(best) == y[i] {
				correct++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
