package train

import (
	"math/rand"
	"time"

	"torchgt/internal/attention"
	"torchgt/internal/encoding"
	"torchgt/internal/graph"
	"torchgt/internal/model"
	"torchgt/internal/nn"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// graphEntry caches per-graph precomputation.
type graphEntry struct {
	inputs       *model.Inputs
	pattern      *sparse.Pattern // with global token
	edgeBuckets  []int32
	denseBuckets [][]int32 // SPD buckets incl. global token, nil when too big
	policy       *attention.InterleavePolicy
}

// GraphTrainer trains on a GraphDataset (classification or regression over
// many small graphs with a global readout token). It is the "graph" Task
// adapter: each optimiser step accumulates gradients over BatchSize graphs.
type GraphTrainer struct {
	taskBase
	Cfg     Config
	Model   *model.GraphTransformer
	DS      *graph.GraphDataset
	entries []*graphEntry

	rng   *rand.Rand // epoch shuffles (source: rngSrc)
	order []int      // current epoch's order over TrainIdx

	pack     pack  // reused across packed steps
	forwards int64 // model forwards issued by Step (packing telemetry)
}

// NewGraphTrainer precomputes patterns, SPD tables and interleave policies
// for every graph (the paper's pre-processing stage).
func NewGraphTrainer(cfg Config, modelCfg model.Config, ds *graph.GraphDataset) *GraphTrainer {
	cfg = cfg.withDefaults()
	modelCfg.GlobalToken = true
	t0 := time.Now()
	tr := &GraphTrainer{Cfg: cfg, DS: ds}
	tr.cfg = &tr.Cfg
	tr.rng, tr.rngSrc = nn.NewCountedRand(cfg.Seed + 17)
	rng := newRand(cfg.Seed)
	for gi, g := range ds.Graphs {
		e := &graphEntry{}
		degIn, degOut := encoding.DegreeBuckets(g, 63)
		e.inputs = &model.Inputs{X: ds.Feats[gi], DegInIdx: degIn, DegOutIdx: degOut}
		if modelCfg.UseLapPE {
			e.inputs.LapPE = encoding.LaplacianPE(g, modelCfg.LapDim, 20, rng)
		}
		e.pattern = sparse.FromGraph(g).WithGlobalToken()
		e.edgeBuckets = edgeBucketsFor(e.pattern, true, 2)
		if g.N <= cfg.DenseBiasMaxN {
			spd := encoding.ComputeSPD(g, 5) // buckets 0..6
			s := g.N + 1
			db := make([][]int32, s)
			for i := 0; i < s; i++ {
				db[i] = make([]int32, s)
				for j := 0; j < s; j++ {
					switch {
					case i == 0 || j == 0:
						db[i][j] = 7 // global-token bucket
					default:
						db[i][j] = spd.Dist[i-1][j-1]
					}
				}
			}
			e.denseBuckets = db
		}
		e.policy = attention.NewInterleavePolicy(g, modelCfg.Layers, cfg.Interval)
		tr.entries = append(tr.entries, e)
	}
	tr.preprocess = time.Since(t0)
	tr.Model = model.NewGraphTransformer(modelCfg)
	cfg.applyExec(tr.Model)
	NewLoop(tr, tr.Model, tr.Cfg)
	return tr
}

// specFor builds a per-graph attention spec for one step.
func (tr *GraphTrainer) specFor(gi, step int) *model.AttentionSpec {
	e := tr.entries[gi]
	switch tr.Cfg.Method {
	case GPRaw:
		return &model.AttentionSpec{Mode: model.ModeDense, DenseBuckets: e.denseBuckets}
	case GPFlash:
		return &model.AttentionSpec{Mode: model.ModeFlash}
	case GPSparse:
		return &model.AttentionSpec{Mode: model.ModeSparse, Pattern: e.pattern, EdgeBuckets: e.edgeBuckets}
	case NodeFormerKernel:
		return &model.AttentionSpec{Mode: model.ModeKernelized}
	case TorchGT, TorchGTBF16:
		bf16 := tr.Cfg.Method == TorchGTBF16
		if !e.policy.UseSparse(step) {
			// dense overlay step: full attention with bias when affordable
			return &model.AttentionSpec{Mode: model.ModeDense, DenseBuckets: e.denseBuckets, BF16: bf16}
		}
		return &model.AttentionSpec{Mode: model.ModeSparse, Pattern: e.pattern, EdgeBuckets: e.edgeBuckets, BF16: bf16}
	}
	panic("train: unhandled method")
}

// lossFor computes the task loss/gradient for graph gi.
func (tr *GraphTrainer) lossFor(gi int, logits *tensor.Mat) (float64, *tensor.Mat) {
	if tr.DS.Task == graph.GraphRegression {
		return nn.MSE(logits, []float32{tr.DS.Targets[gi]})
	}
	return nn.SoftmaxCrossEntropy(logits, []int32{tr.DS.Labels[gi]}, nil)
}

// Kind implements Task.
func (tr *GraphTrainer) Kind() string { return TaskGraph }

// BeginEpoch implements Task: shuffle the training graphs.
func (tr *GraphTrainer) BeginEpoch(int) {
	tr.resetEpoch()
	tr.order = tr.rng.Perm(len(tr.DS.TrainIdx))
}

// Steps implements Task: one optimiser step per BatchSize graphs (the last
// batch may be partial).
func (tr *GraphTrainer) Steps(int) int {
	n := len(tr.DS.TrainIdx)
	if n == 0 {
		return 0
	}
	return (n + tr.Cfg.BatchSize - 1) / tr.Cfg.BatchSize
}

// Step implements Task: forward/backward over one batch of graphs,
// accumulating gradients for the Loop's optimiser application. globalStep is
// the dual-interleave clock.
//
// Contiguous runs of sparse-attention graphs in the (shuffled) batch are
// coalesced into block-diagonal packed forwards of at most packRows feature
// rows — same graphs, same order, bitwise-identical gradients and RNG
// streams, fewer attention calls. A graph longer than the budget runs alone,
// so large-graph batches keep the per-graph path's memory. Dense-overlay
// steps and mixed-precision boundaries fall back to the per-graph path, as
// does the in-process sequence-parallel plan (which shards one sequence, not
// a packed batch).
func (tr *GraphTrainer) Step(_, s, globalStep int) {
	lo := s * tr.Cfg.BatchSize
	hi := lo + tr.Cfg.BatchSize
	if hi > len(tr.order) {
		hi = len(tr.order)
	}
	batch := tr.order[lo:hi]
	if tr.Cfg.SeqParallel > 1 {
		for _, oi := range batch {
			tr.stepOne(tr.DS.TrainIdx[oi], globalStep)
		}
		return
	}
	for i := 0; i < len(batch); {
		gi := tr.DS.TrainIdx[batch[i]]
		spec := tr.specFor(gi, globalStep)
		if spec.Mode != model.ModeSparse {
			tr.stepOne(gi, globalStep)
			i++
			continue
		}
		run, rows := []int{gi}, tr.entries[gi].inputs.X.Rows
		j := i + 1
		for ; j < len(batch); j++ {
			gj := tr.DS.TrainIdx[batch[j]]
			n := tr.entries[gj].inputs.X.Rows
			if sj := tr.specFor(gj, globalStep); sj.Mode != model.ModeSparse || sj.BF16 != spec.BF16 || rows+n > packRows {
				break
			}
			run, rows = append(run, gj), rows+n
		}
		if len(run) == 1 {
			tr.stepOne(gi, globalStep)
		} else {
			tr.stepPacked(run, spec.BF16)
		}
		i = j
	}
}

// stepOne is the per-graph unit of Step: forward, loss, backward, telemetry.
func (tr *GraphTrainer) stepOne(gi, globalStep int) {
	spec := tr.specFor(gi, globalStep)
	logits := tr.Model.Forward(tr.entries[gi].inputs, spec, true)
	tr.forwards++
	l, dl := tr.lossFor(gi, logits)
	tr.Model.Backward(dl)
	tr.epPairs += tr.Model.Pairs()
	tr.epLoss += l
	tr.epTerms++
}

// stepPacked runs one block-diagonal packed forward/backward over a run of
// sparse-mode graphs, assembled in run order by the shared pack (each graph's
// pattern and edge buckets are the global-token-augmented ones): SegRows hands
// the model the feature-row bounds so every row reduction — and the per-graph
// readout/global-token handling — accumulates in exactly the unpacked loop's
// order.
func (tr *GraphTrainer) stepPacked(gis []int, bf16 bool) {
	p := &tr.pack
	p.reset()
	for _, gi := range gis {
		e := tr.entries[gi]
		p.add(e.inputs, e.pattern, e.edgeBuckets)
	}
	logits := tr.Model.Forward(&p.in, p.spec(bf16), true) // B×OutDim, one readout row per graph
	tr.forwards++
	dL := tensor.New(len(gis), logits.Cols)
	for s, gi := range gis {
		l, dl := tr.lossFor(gi, logits.SliceRows(s, s+1))
		copy(dL.Row(s), dl.Row(0))
		tr.epLoss += l
		tr.epTerms++
	}
	tr.Model.Backward(dL)
	tr.epPairs += tr.Model.Pairs()
}

// Forwards reports how many model forwards Step has issued so far — fewer
// than the number of graphs trained whenever a batch packs.
func (tr *GraphTrainer) Forwards() int64 { return tr.forwards }

// EpochPoint implements Task. For regression the Curve's Loss is the train
// MSE; use EvalMAE for the headline metric.
func (tr *GraphTrainer) EpochPoint(ep int, dt time.Duration) Point {
	return Point{
		Epoch: ep, Loss: tr.epLoss / float64(tr.epTerms),
		TestAcc: tr.evaluate(tr.DS.TestIdx), EpochTime: dt, Pairs: tr.epPairs,
	}
}

// Finish implements Task.
func (tr *GraphTrainer) Finish(res *Result) {
	res.FinalTestAcc = tr.evaluate(tr.DS.TestIdx)
	if res.FinalTestAcc > res.BestTestAcc {
		res.BestTestAcc = res.FinalTestAcc
	}
}

// evaluate returns accuracy for classification or negative MAE for
// regression (so that "higher is better" holds uniformly for Result fields).
func (tr *GraphTrainer) evaluate(idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	if tr.DS.Task == graph.GraphRegression {
		preds := tensor.New(len(idx), 1)
		targets := make([]float32, len(idx))
		for x, gi := range idx {
			spec := tr.specFor(gi, 1) // sparse step for eval
			logits := tr.Model.Forward(tr.entries[gi].inputs, spec, false)
			preds.Set(x, 0, logits.At(0, 0))
			targets[x] = tr.DS.Targets[gi]
		}
		return -nn.MAE(preds, targets)
	}
	correct := 0
	for _, gi := range idx {
		spec := tr.specFor(gi, 1)
		logits := tr.Model.Forward(tr.entries[gi].inputs, spec, false)
		best := 0
		row := logits.Row(0)
		for j := 1; j < len(row); j++ {
			if row[j] > row[best] {
				best = j
			}
		}
		if int32(best) == tr.DS.Labels[gi] {
			correct++
		}
	}
	return float64(correct) / float64(len(idx))
}

// EvalMAE returns the test MAE for regression datasets (convenience).
func (tr *GraphTrainer) EvalMAE() float64 { return -tr.evaluate(tr.DS.TestIdx) }
