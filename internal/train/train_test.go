package train

import (
	"context"
	"testing"

	"torchgt/internal/graph"
	"torchgt/internal/model"
	"torchgt/internal/sample"
)

func smallNodeDataset(seed int64) *graph.NodeDataset {
	return graph.MakeNodeDataset(graph.NodeDatasetConfig{
		Name: "t", NumNodes: 192, NumBlocks: 8, NumClasses: 4, FeatDim: 12,
		AvgDegIn: 8, AvgDegOut: 1, NoiseStd: 1.0, Seed: seed, Shuffle: true,
	})
}

// runTask trains tr to completion on its Loop.
func runTask(tr interface{ Loop() *Loop }) *Result {
	res, _ := tr.Loop().Run(context.Background())
	return res
}

// skipIfShort gates slow convergence tests out of the default CI test lane;
// the full (non-blocking) lane runs them.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("slow convergence test skipped with -short")
	}
}

func TestParseMethod(t *testing.T) {
	for _, m := range []Method{GPRaw, GPFlash, GPSparse, TorchGT, TorchGTBF16, NodeFormerKernel} {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Fatalf("round trip failed for %v", m)
		}
	}
	if _, err := ParseMethod("nope"); err == nil {
		t.Fatal("expected error")
	}
	if Method(99).String() != "unknown" {
		t.Fatal("unknown method string")
	}
}

func TestAutoTunerLadder(t *testing.T) {
	tu := NewAutoTuner(0.01)
	if tu.Beta() != 0.01 {
		t.Fatalf("initial β must be βG, got %v", tu.Beta())
	}
	// steadily improving loss at constant rate: after δ epochs the tuner
	// should start moving up the ladder (descent healthy → gain speed).
	loss := 30.0
	for i := 0; i < 30; i++ {
		loss -= 0.5
		tu.Observe(loss, 1.0)
	}
	if tu.Index() <= 1 {
		t.Fatalf("tuner should have increased β by now: idx=%d", tu.Index())
	}
	// descent collapses to a plateau: LDR decays → tuner steps back down.
	idxBefore := tu.Index()
	for i := 0; i < 15; i++ {
		tu.Observe(loss, 1.0) // flat loss
	}
	if tu.Index() >= idxBefore {
		t.Fatalf("tuner should back off on plateau: %d -> %d", idxBefore, tu.Index())
	}
}

func TestAutoTunerBounds(t *testing.T) {
	tu := NewAutoTuner(0.5)
	// force many increases: index must not exceed ladder
	for i := 0; i < 100; i++ {
		tu.Observe(1.0/float64(i+1), 1.0)
	}
	if tu.Index() < 0 || tu.Index() >= len(tu.Set) {
		t.Fatalf("index out of bounds: %d", tu.Index())
	}
}

func trainNode(t *testing.T, method Method, epochs int) *Result {
	t.Helper()
	ds := smallNodeDataset(1)
	cfg := model.GraphormerSlim(12, 4, 2)
	cfg.Layers = 2
	cfg.Heads = 4
	tr := NewNodeTrainer(Config{
		Method: method, Epochs: epochs, LR: 2e-3, ClusterK: 4, Db: 4,
		FixedBeta: -1, Seed: 3, Interval: 4,
	}, cfg, ds)
	return runTask(tr)
}

func TestNodeTrainerAllMethodsLearn(t *testing.T) {
	skipIfShort(t)
	for _, m := range []Method{GPFlash, GPSparse, TorchGT} {
		res := trainNode(t, m, 30)
		if len(res.Curve) != 30 {
			t.Fatalf("%v: curve length %d", m, len(res.Curve))
		}
		if res.FinalTestAcc < 0.45 {
			t.Fatalf("%v: failed to learn planted labels, acc=%v", m, res.FinalTestAcc)
		}
		if res.Curve[0].Loss <= res.Curve[len(res.Curve)-1].Loss {
			t.Fatalf("%v: loss did not decrease (%v -> %v)", m, res.Curve[0].Loss, res.Curve[len(res.Curve)-1].Loss)
		}
	}
}

func TestTorchGTCheaperThanFlash(t *testing.T) {
	flash := trainNode(t, GPFlash, 6)
	tgt := trainNode(t, TorchGT, 6)
	if tgt.TotalPairs >= flash.TotalPairs {
		t.Fatalf("TorchGT must attend far fewer pairs: %d vs %d", tgt.TotalPairs, flash.TotalPairs)
	}
	// expect at least 2× reduction even with interleaved dense steps and
	// sub-block inflation from the reformation
	if tgt.TotalPairs*2 > flash.TotalPairs {
		t.Fatalf("pair reduction too small: %d vs %d", tgt.TotalPairs, flash.TotalPairs)
	}
}

func TestTorchGTPreprocessRecorded(t *testing.T) {
	res := trainNode(t, TorchGT, 2)
	if res.PreprocessTime <= 0 {
		t.Fatal("preprocess time must be recorded for TorchGT")
	}
}

func TestNodeTrainerBF16Runs(t *testing.T) {
	res := trainNode(t, TorchGTBF16, 4)
	if len(res.Curve) != 4 {
		t.Fatal("bf16 run failed")
	}
}

func TestGraphTrainerClassification(t *testing.T) {
	skipIfShort(t)
	ds := graph.MakeGraphDataset(graph.GraphDatasetConfig{
		Name: "t", Task: graph.GraphClassification, NumGraphs: 60,
		MinNodes: 8, MaxNodes: 16, FeatDim: 8, Classes: 2, Seed: 5,
	})
	cfg := model.GraphormerSlim(8, 2, 6)
	cfg.Layers = 2
	cfg.Heads = 2
	tr := NewGraphTrainer(Config{Method: TorchGT, Epochs: 12, LR: 2e-3, BatchSize: 8, Seed: 7}, cfg, ds)
	res := runTask(tr)
	// the test split is tiny (6 graphs) so generalisation is noisy; assert
	// the pipeline *learns* via train-set accuracy and loss descent.
	if trainAcc := tr.evaluate(ds.TrainIdx); trainAcc < 0.75 {
		t.Fatalf("graph-level classification failed to fit train set: acc=%v", trainAcc)
	}
	if res.Curve[len(res.Curve)-1].Loss >= res.Curve[0].Loss*0.8 {
		t.Fatalf("loss did not descend: %v -> %v", res.Curve[0].Loss, res.Curve[len(res.Curve)-1].Loss)
	}
	if res.PreprocessTime <= 0 {
		t.Fatal("graph trainer must record preprocessing")
	}
}

func TestGraphTrainerRegression(t *testing.T) {
	skipIfShort(t)
	ds := graph.MakeGraphDataset(graph.GraphDatasetConfig{
		Name: "t", Task: graph.GraphRegression, NumGraphs: 60,
		MinNodes: 8, MaxNodes: 16, FeatDim: 8, Seed: 8,
	})
	cfg := model.GraphormerSlim(8, 1, 9)
	cfg.Layers = 2
	cfg.Heads = 2
	tr := NewGraphTrainer(Config{Method: GPSparse, Epochs: 12, LR: 2e-3, Seed: 10}, cfg, ds)
	res := runTask(tr)
	mae := tr.EvalMAE()
	if mae <= 0 {
		t.Fatalf("MAE must be positive, got %v", mae)
	}
	// training must reduce loss materially
	if res.Curve[len(res.Curve)-1].Loss >= res.Curve[0].Loss*0.9 {
		t.Fatalf("regression loss stuck: %v -> %v", res.Curve[0].Loss, res.Curve[len(res.Curve)-1].Loss)
	}
}

func TestSeqTrainerLongerIsBetter(t *testing.T) {
	skipIfShort(t)
	// Fig. 1's mechanism: with heavy feature noise, longer sequences give
	// more same-class context and better accuracy.
	ds := graph.MakeNodeDataset(graph.NodeDatasetConfig{
		Name: "t", NumNodes: 512, NumBlocks: 8, NumClasses: 2, FeatDim: 12,
		AvgDegIn: 8, AvgDegOut: 1, NoiseStd: 3.0, Seed: 11, Shuffle: true,
	})
	run := func(seqLen int) float64 {
		cfg := model.GraphormerSlim(12, 2, 12)
		cfg.Layers = 2
		cfg.Heads = 4
		tr := NewSeqTrainer(Config{Method: GPFlash, Epochs: 8, SeqLen: seqLen, Seed: 13}, cfg, ds)
		return runTask(tr).FinalTestAcc
	}
	short := run(32)
	long := run(256)
	if long <= short-0.02 {
		t.Fatalf("longer sequence should not be materially worse: short=%v long=%v", short, long)
	}
}

func TestNodeTrainerFixedBetaVariants(t *testing.T) {
	ds := smallNodeDataset(20)
	cfg := model.GraphormerSlim(12, 4, 21)
	cfg.Layers = 1
	cfg.Heads = 2
	for _, beta := range []float64{0, 0.05, 1} {
		tr := NewNodeTrainer(Config{
			Method: TorchGT, Epochs: 3, ClusterK: 4, Db: 4,
			FixedBeta: beta, UseFixedBeta: true, Seed: 22,
		}, cfg, ds)
		res := runTask(tr)
		if len(res.Curve) != 3 {
			t.Fatalf("β=%v: run failed", beta)
		}
		if res.Curve[0].Beta != beta {
			t.Fatalf("β=%v not respected: %v", beta, res.Curve[0].Beta)
		}
	}
}

func TestEgoTrainerRunsAndLearns(t *testing.T) {
	skipIfShort(t)
	ds := graph.MakeNodeDataset(graph.NodeDatasetConfig{
		Name: "t", NumNodes: 256, NumBlocks: 8, NumClasses: 4, FeatDim: 12,
		AvgDegIn: 10, AvgDegOut: 1, NoiseStd: 0.5, Seed: 30, Shuffle: true,
	})
	cfg := model.GraphormerSlim(12, 4, 31)
	cfg.Layers = 2
	cfg.Heads = 2
	tr := NewEgoTrainerSource(EgoConfig{Epochs: 3, MaxSize: 16, Batch: 32, Seed: 32}, cfg, graph.SourceOf(ds))
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != 3 {
		t.Fatal("ego trainer curve wrong")
	}
	// low noise: even local context should beat random guessing (0.25)
	if res.FinalTestAcc < 0.4 {
		t.Fatalf("ego trainer failed to learn: %v", res.FinalTestAcc)
	}
	if res.Curve[0].Loss <= res.Curve[2].Loss {
		t.Fatalf("ego loss did not fall: %v -> %v", res.Curve[0].Loss, res.Curve[2].Loss)
	}
}

func TestEgoTrainerRunErrors(t *testing.T) {
	cfg := model.GraphormerSlim(12, 4, 31)
	cfg.Layers = 1
	if _, err := NewEgoTrainerSource(EgoConfig{Epochs: 1}, cfg, graph.SourceOf(nil)).Run(); err == nil {
		t.Fatal("nil dataset must error")
	}
	ds := smallNodeDataset(33)
	badIn := model.GraphormerSlim(7, 4, 31)
	badIn.Layers = 1
	if _, err := NewEgoTrainerSource(EgoConfig{Epochs: 1}, badIn, graph.SourceOf(ds)).Run(); err == nil {
		t.Fatal("feature-dim mismatch must error")
	}
	badOut := model.GraphormerSlim(12, 9, 31)
	badOut.Layers = 1
	if _, err := NewEgoTrainerSource(EgoConfig{Epochs: 1}, badOut, graph.SourceOf(ds)).Run(); err == nil {
		t.Fatal("class-count mismatch must error")
	}
	unlabelled := smallNodeDataset(37)
	for i := range unlabelled.TrainMask {
		unlabelled.TrainMask[i] = false
	}
	if _, err := NewEgoTrainerSource(EgoConfig{Epochs: 1}, cfg, graph.SourceOf(unlabelled)).Run(); err == nil {
		t.Fatal("no training nodes must error")
	}
}

func TestEgoSampleRespectsBounds(t *testing.T) {
	ds := smallNodeDataset(33)
	s := sample.New(graph.SourceOf(ds), sample.Config{MaxSize: 8, Hops: 3, Seed: 35})
	c := s.NewContext()
	rng := newRand(36)
	for i := 0; i < 20; i++ {
		s.Sample(c, int32(rng.Intn(ds.G.N)), uint64(i))
		nodes := c.Nodes
		if len(nodes) == 0 || len(nodes) > 8 {
			t.Fatalf("ego size %d out of bounds", len(nodes))
		}
		seen := map[int32]bool{}
		for _, v := range nodes {
			if seen[v] {
				t.Fatal("duplicate node in ego graph")
			}
			seen[v] = true
		}
	}
}

func TestNodeTrainerWarmupSchedule(t *testing.T) {
	ds := smallNodeDataset(40)
	cfg := model.GraphormerSlim(12, 4, 41)
	cfg.Layers = 1
	cfg.Heads = 2
	tr := NewNodeTrainer(Config{
		Method: GPSparse, Epochs: 6, LR: 2e-3, Warmup: 3, Seed: 42,
	}, cfg, ds)
	res := runTask(tr)
	if len(res.Curve) != 6 {
		t.Fatal("warmup run failed")
	}
	// val accuracy recorded
	for _, p := range res.Curve {
		if p.ValAcc < 0 || p.ValAcc > 1 {
			t.Fatalf("val acc out of range: %v", p.ValAcc)
		}
	}
}
