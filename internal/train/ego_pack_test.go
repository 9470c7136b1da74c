package train

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"torchgt/internal/data"
	"torchgt/internal/data/shard"
	"torchgt/internal/graph"
	"torchgt/internal/model"
	"torchgt/internal/nn"
	"torchgt/internal/sample"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// refEgoRun is the oracle for the packed ego trainer: EgoTrainer.Run as it
// was before packing — one forward/backward per sampled context, the loss a
// masked cross-entropy on row 0, one model call per evaluated target — over
// the same trainer state (pipeline, serials counted in program order,
// shuffle and eval RNG). It returns the per-epoch mean losses and test
// accuracies, and the sample serials it consumed.
func refEgoRun(t *testing.T, tr *EgoTrainer) (losses, accs []float64, serial uint64) {
	t.Helper()
	if err := tr.validate(); err != nil {
		t.Fatal(err)
	}
	forward := func(c *sample.Context, train bool) *tensor.Mat {
		p := sparse.FromGraph(c.Sub)
		in := &model.Inputs{X: c.X, DegInIdx: c.DegIn, DegOutIdx: c.DegOut}
		spec := &model.AttentionSpec{Mode: model.ModeSparse, Pattern: p, EdgeBuckets: p.LocalEdgeBuckets(false, 0)}
		return tr.Model.Forward(in, spec, train)
	}
	opt := nn.NewAdam(tr.Cfg.LR)
	opt.ClipNorm = 5
	rng := newRand(tr.Cfg.Seed)
	nextSerial := func(n int) uint64 {
		s := serial
		serial += uint64(n)
		return s
	}
	var trainIdx, testIdx []int32
	for i, n := 0, tr.Src.NumNodes(); i < n; i++ {
		if s := tr.Src.SplitOf(int32(i)); s.Train() {
			trainIdx = append(trainIdx, int32(i))
		} else if s.Test() {
			testIdx = append(testIdx, int32(i))
		}
	}
	eval := func(n int) float64 {
		if len(testIdx) == 0 {
			return 0
		}
		n = min(n, len(testIdx))
		targets := make([]int32, n)
		for i := range targets {
			targets[i] = testIdx[rng.Intn(len(testIdx))]
		}
		correct := 0
		if err := tr.pipe.Each(targets, nextSerial(n), func(c *sample.Context) {
			row := forward(c, false).Row(0)
			best := 0
			for j := 1; j < len(row); j++ {
				if row[j] > row[best] {
					best = j
				}
			}
			if int32(best) == c.Label {
				correct++
			}
		}); err != nil {
			t.Fatal(err)
		}
		return float64(correct) / float64(n)
	}
	for ep := 0; ep < tr.Cfg.Epochs; ep++ {
		rng.Shuffle(len(trainIdx), func(i, j int) { trainIdx[i], trainIdx[j] = trainIdx[j], trainIdx[i] })
		var epLoss float64
		for lo := 0; lo < len(trainIdx); lo += tr.Cfg.BatchSize {
			targets := trainIdx[lo:min(lo+tr.Cfg.BatchSize, len(trainIdx))]
			var total float64
			if err := tr.pipe.Each(targets, nextSerial(len(targets)), func(c *sample.Context) {
				logits := forward(c, true)
				mask := make([]bool, len(c.Nodes))
				mask[0] = true
				labels := make([]int32, len(c.Nodes))
				labels[0] = c.Label
				l, dl := nn.SoftmaxCrossEntropy(logits, labels, mask)
				tr.Model.Backward(dl)
				total += l
			}); err != nil {
				t.Fatal(err)
			}
			opt.Step(tr.Model.Params())
			epLoss += total
		}
		losses = append(losses, epLoss/float64(len(trainIdx)))
		accs = append(accs, eval(200))
	}
	accs = append(accs, eval(400))
	return losses, accs, serial
}

// TestEgoPackedMatchesPerContextLoop pins the packed ego path to the loop it
// replaced, bit for bit: every epoch loss, every evaluated accuracy, every
// parameter and every dropout layer's stream position, over both backings,
// sync and prefetching sampling, batches of one context, of a few (one
// partial pack) and of 32 (several packs, the last one partial), and context
// caps that leave packs ragged (7: a batch never fills the row budget; 32:
// full contexts fill it exactly, short ones leave it mid-budget). Dropout and
// the SPD bias table are on, so the RNG streams and the edge-bucket
// concatenation are part of what is compared.
func TestEgoPackedMatchesPerContextLoop(t *testing.T) {
	ds := graph.MakeNodeDataset(graph.NodeDatasetConfig{
		Name: "egopack", NumNodes: 180, NumBlocks: 5, NumClasses: 4, FeatDim: 10,
		AvgDegIn: 9, AvgDegOut: 2, NoiseStd: 0.6, Seed: 61, Shuffle: true,
	})
	dir := filepath.Join(t.TempDir(), "shards")
	if _, err := shard.Write(dir, ds, 3); err != nil {
		t.Fatalf("shard.Write: %v", err)
	}
	v, err := shard.Open(dir, shard.Options{CacheBytes: 16 << 10, BlockBytes: 1 << 10})
	if err != nil {
		t.Fatalf("shard.Open: %v", err)
	}
	defer v.Close()
	mcfg := model.GraphormerSlim(10, 4, 62)
	mcfg.Layers, mcfg.Heads = 2, 2
	if mcfg.Dropout != 0.1 || !mcfg.UseSPDBias {
		t.Fatalf("preset lost dropout/SPD bias: %+v", mcfg)
	}
	for _, src := range []struct {
		name string
		s    graph.NodeSource
	}{{"memory", graph.SourceOf(ds)}, {"shard-pread", v}} {
		for _, workers := range []int{1, 2} {
			for _, batch := range []int{1, 5, 32} {
				for _, maxSize := range []int{7, 32} {
					name := fmt.Sprintf("%s/workers%d/batch%d/max%d", src.name, workers, batch, maxSize)
					if testing.Short() && (workers == 1 || src.name == "memory" || batch == 1) {
						continue // -short keeps the prefetching shard runs of several contexts
					}
					t.Run(name, func(t *testing.T) {
						cfg := EgoConfig{Epochs: 2, MaxSize: maxSize, Batch: batch, Seed: 63, Workers: workers}
						ref := NewEgoTrainerSource(cfg, mcfg, src.s)
						wantLoss, wantAcc, wantSerials := refEgoRun(t, ref)
						got := NewEgoTrainerSource(cfg, mcfg, src.s)
						res, err := got.Run()
						if err != nil {
							t.Fatal(err)
						}
						for e, p := range res.Curve {
							if math.Float64bits(p.Loss) != math.Float64bits(wantLoss[e]) {
								t.Fatalf("epoch %d loss %v, per-context loop %v", e, p.Loss, wantLoss[e])
							}
							if p.TestAcc != wantAcc[e] {
								t.Fatalf("epoch %d accuracy %v, per-context loop %v", e, p.TestAcc, wantAcc[e])
							}
						}
						if res.FinalTestAcc != wantAcc[cfg.Epochs] {
							t.Fatalf("final accuracy %v, per-context loop %v", res.FinalTestAcc, wantAcc[cfg.Epochs])
						}
						assertSameWeights(t, ref.Model, got.Model)
						dr, dg := ref.Model.Dropouts(), got.Model.Dropouts()
						for i := range dr {
							if dr[i].RNGDraws() != dg[i].RNGDraws() || dr[i].RNGDraws() == 0 {
								t.Fatalf("dropout %d drew %d, per-context loop %d", i, dg[i].RNGDraws(), dr[i].RNGDraws())
							}
						}
						// the serials the loop position derives: every epoch's, then
						// the final evaluation's
						serials := uint64(len(res.Curve))*got.epochSerials + uint64(min(egoEvalFinal, len(got.testIdx)))
						if serials != wantSerials {
							t.Fatalf("sample serials %d, per-context loop %d", serials, wantSerials)
						}
					})
				}
			}
		}
	}
}

// TestEgoBenchmarkTrajectoryPinned pins the epoch losses of the benchmark's
// ego-shard configuration (GPH-Slim, the 8192-node synthetic arxiv with 2 %
// training nodes, seed 1, contexts of 32, batches of 32, two sampling
// workers) to the values the per-context loop produced — final_loss of that
// workload is the last of them.
func TestEgoBenchmarkTrajectoryPinned(t *testing.T) {
	skipIfShort(t)
	d, err := data.OpenString("synth://arxiv-sim?nodes=8192&seed=1&resplit=0.02:0.97")
	if err != nil {
		t.Fatal(err)
	}
	ds := d.Node
	tr := NewEgoTrainerSource(EgoConfig{Epochs: 3, MaxSize: 32, Batch: 32, Seed: 1, Workers: 2},
		model.GraphormerSlim(ds.X.Cols, ds.NumClasses, 1), graph.SourceOf(ds))
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2.494506208972046, 1.0810698666449794, 0.4360116220444491}
	for e, p := range res.Curve {
		if math.Float64bits(p.Loss) != math.Float64bits(want[e]) {
			t.Errorf("epoch %d loss %v, pinned %v", e, p.Loss, want[e])
		}
	}
}

// failingSource is a node source whose reads start failing after a set
// number of feature-row copies: rows come back zero-filled and SourceErr
// turns sticky, as a disk-resident view behaves on an I/O error.
type failingSource struct {
	graph.NodeSource
	okRows int
	err    error
}

func (f *failingSource) CopyFeatureRow(dst []float32, node int32) {
	if f.okRows <= 0 {
		f.err = errors.New("injected read failure")
		clear(dst)
		return
	}
	f.okRows--
	f.NodeSource.CopyFeatureRow(dst, node)
}

func (f *failingSource) SourceErr() error { return f.err }

// TestEgoStepTakesNoStepOnSourceError: a step whose samples hit the source's
// sticky I/O error ends the run with that error, on the engine Session.Run
// drives, without touching the weights, the optimiser or the gradient
// accumulators — the step is rolled back as a lost peer rank's is, and the
// Loop stays at the step boundary before it.
func TestEgoStepTakesNoStepOnSourceError(t *testing.T) {
	ds := smallNodeDataset(71)
	mcfg := model.GraphormerSlim(12, 4, 72)
	mcfg.Layers, mcfg.Heads = 1, 2
	src := &failingSource{NodeSource: graph.SourceOf(ds), okRows: math.MaxInt}
	tr := NewEgoTrainerSource(EgoConfig{Epochs: 1, MaxSize: 16, Batch: 40, Seed: 73}, mcfg, src)
	l := tr.Loop()
	// Err() is checked at the epoch top and before each step: the third
	// check cancels after one healthy step.
	if _, err := l.Run(&countdownCtx{Context: context.Background(), n: 3}); err != context.Canceled {
		t.Fatalf("healthy step: want context.Canceled, got %v", err)
	}
	before := model.NewGraphTransformer(tr.Model.Cfg)
	if err := before.CopyWeightsFrom(tr.Model); err != nil {
		t.Fatal(err)
	}
	draws := tr.rngSrc.Draws()
	// Reads fail after 300 more rows: past the failing step's first full
	// pack, which has then already been through forward and backward.
	src.okRows = 300
	res, err := l.Run(context.Background())
	if err == nil || err == context.Canceled || !errors.Is(err, src.err) {
		t.Fatalf("run over a failed source: want the source's error, got %v", err)
	}
	if len(res.Curve) != 0 || l.stepInEpoch != 1 || tr.rngSrc.Draws() != draws {
		t.Fatalf("failed step moved the loop: %d epochs, step %d, %d draws (want 0, 1, %d)",
			len(res.Curve), l.stepInEpoch, tr.rngSrc.Draws(), draws)
	}
	assertSameWeights(t, before, tr.Model)
	if l.opt.StepCount() != 1 {
		t.Fatalf("optimiser stepped %d times, want 1", l.opt.StepCount())
	}
	for _, p := range tr.Model.Params() {
		for i, g := range p.Grad.Data {
			if g != 0 {
				t.Fatalf("param %s grad[%d] = %v left behind by the failed step", p.Name, i, g)
			}
		}
	}
}
