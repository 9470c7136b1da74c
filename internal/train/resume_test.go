package train

import (
	"context"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"torchgt/internal/graph"
	"torchgt/internal/model"
)

// bindFor rebuilds the matching trainer for a checkpoint, the way the public
// Session layer does.
func bindFor(nds *graph.NodeDataset, gds *graph.GraphDataset) func(string, Config, model.Config) (Task, *model.GraphTransformer, error) {
	return func(kind string, cfg Config, mcfg model.Config) (Task, *model.GraphTransformer, error) {
		switch kind {
		case TaskNode:
			tr := NewNodeTrainer(cfg, mcfg, nds)
			return tr, tr.Model, nil
		case TaskGraph:
			tr := NewGraphTrainer(cfg, mcfg, gds)
			return tr, tr.Model, nil
		default:
			tr := NewSeqTrainer(cfg, mcfg, nds)
			return tr, tr.Model, nil
		}
	}
}

func smallGraphDataset(seed int64) *graph.GraphDataset {
	return graph.MakeGraphDataset(graph.GraphDatasetConfig{
		Name: "t", Task: graph.GraphClassification, NumGraphs: 24,
		MinNodes: 8, MaxNodes: 12, FeatDim: 8, Classes: 2, Seed: seed,
	})
}

// assertSameWeights compares every parameter of two models bitwise.
func assertSameWeights(t *testing.T, a, b *model.GraphTransformer) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("param count: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		wa, wb := pa[i].W.Data, pb[i].W.Data
		for j := range wa {
			if math.Float32bits(wa[j]) != math.Float32bits(wb[j]) {
				t.Fatalf("param %q[%d]: %v != %v (weights diverge)", pa[i].Name, j, wa[j], wb[j])
			}
		}
	}
}

// assertSameCurve compares curve points bitwise, excluding wall-clock times.
func assertSameCurve(t *testing.T, a, b []Point) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("curve length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		pa, pb := a[i], b[i]
		pa.EpochTime, pb.EpochTime = 0, 0
		if pa != pb {
			t.Fatalf("curve[%d] diverges:\n full   %+v\n resume %+v", i, a[i], b[i])
		}
	}
}

// testResumeBitwise trains N epochs straight through with a checkpoint
// written at epoch k, then resumes from that checkpoint and trains the
// remaining N−k; the two runs must agree bitwise on weights and curve.
func testResumeBitwise(t *testing.T, build func() (Task, *model.GraphTransformer), nds *graph.NodeDataset, gds *graph.GraphDataset) {
	t.Helper()
	dir := t.TempDir()

	task, m := build()
	full := NewLoop(task, m, taskCfg(task))
	full.CheckpointEvery = 3
	full.CheckpointDir = dir
	fullRes, err := full.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "epoch-00003.ckpt")
	resumed, err := Resume(path, bindFor(nds, gds))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Epoch() != 3 {
		t.Fatalf("resumed at epoch %d, want 3", resumed.Epoch())
	}
	resRes, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSameWeights(t, m, resumed.Model())
	assertSameCurve(t, fullRes.Curve, resRes.Curve)
	if fullRes.FinalTestAcc != resRes.FinalTestAcc || fullRes.BestTestAcc != resRes.BestTestAcc {
		t.Fatalf("headline metrics diverge: full (%v, %v) vs resumed (%v, %v)",
			fullRes.FinalTestAcc, fullRes.BestTestAcc, resRes.FinalTestAcc, resRes.BestTestAcc)
	}
	if fullRes.TotalPairs != resRes.TotalPairs {
		t.Fatalf("pairs diverge: %d vs %d", fullRes.TotalPairs, resRes.TotalPairs)
	}
}

func taskCfg(task Task) Config {
	switch tr := task.(type) {
	case *NodeTrainer:
		return tr.Cfg
	case *GraphTrainer:
		return tr.Cfg
	case *SeqTrainer:
		return tr.Cfg
	}
	panic("unknown task")
}

func TestResumeBitwiseNode(t *testing.T) {
	ds := smallNodeDataset(1)
	cfg := model.GraphormerSlim(12, 4, 2)
	cfg.Layers = 2
	cfg.Heads = 4
	// TorchGT with the Auto Tuner: resume must carry tuner + interleave state.
	build := func() (Task, *model.GraphTransformer) {
		tr := NewNodeTrainer(Config{
			Method: TorchGT, Epochs: 7, LR: 2e-3, ClusterK: 4, Db: 4, Seed: 3, Interval: 4,
		}, cfg, ds)
		return tr, tr.Model
	}
	testResumeBitwise(t, build, ds, nil)
}

func TestResumeBitwiseGraph(t *testing.T) {
	ds := smallGraphDataset(5)
	cfg := model.GraphormerSlim(8, 2, 6)
	cfg.Layers = 2
	cfg.Heads = 2
	build := func() (Task, *model.GraphTransformer) {
		tr := NewGraphTrainer(Config{Method: TorchGT, Epochs: 6, LR: 2e-3, BatchSize: 8, Seed: 7}, cfg, ds)
		return tr, tr.Model
	}
	testResumeBitwise(t, build, nil, ds)
}

func TestResumeBitwiseSeq(t *testing.T) {
	ds := smallNodeDataset(11)
	cfg := model.GraphormerSlim(12, 4, 12)
	cfg.Layers = 2
	cfg.Heads = 2
	build := func() (Task, *model.GraphTransformer) {
		tr := NewSeqTrainer(Config{Method: GPFlash, Epochs: 6, LR: 2e-3, SeqLen: 64, Seed: 13}, cfg, ds)
		return tr, tr.Model
	}
	testResumeBitwise(t, build, ds, nil)
}

// countdownCtx reports cancellation from the nth Err() call onward — a
// deterministic way to cancel at an exact step boundary.
type countdownCtx struct {
	context.Context
	calls, n int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestCancelMidEpochThenContinue: cancelling mid-epoch stops at the next
// step boundary with a partial result; continuing the same Loop afterwards
// must land bitwise where an uninterrupted run lands.
func TestCancelMidEpochThenContinue(t *testing.T) {
	ds := smallGraphDataset(9)
	cfg := model.GraphormerSlim(8, 2, 10)
	cfg.Layers = 1
	cfg.Heads = 2
	mk := func() *GraphTrainer {
		return NewGraphTrainer(Config{Method: GPSparse, Epochs: 4, LR: 2e-3, BatchSize: 4, Seed: 7}, cfg, ds)
	}

	straight := mk()
	wantRes := straight.Run()

	tr := mk()
	// Err() call pattern per epoch: 1 (epoch top) + 1 per step. Cancelling on
	// the 4th call stops after optimiser step 2 of epoch 0, mid-epoch.
	res, err := tr.RunCtx(&countdownCtx{Context: context.Background(), n: 4})
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(res.Curve) != 0 {
		t.Fatalf("partial result should hold 0 completed epochs, got %d", len(res.Curve))
	}
	gotRes, err := tr.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSameWeights(t, straight.Model, tr.Model)
	assertSameCurve(t, wantRes.Curve, gotRes.Curve)
}

// TestCancelMidEpochCheckpointResume: the cancelled Loop's checkpoint is
// mid-epoch; resuming it must still reproduce the uninterrupted run bitwise.
func TestCancelMidEpochCheckpointResume(t *testing.T) {
	ds := smallNodeDataset(21)
	cfg := model.GraphormerSlim(12, 4, 22)
	cfg.Layers = 1
	cfg.Heads = 2
	mk := func() *SeqTrainer {
		return NewSeqTrainer(Config{Method: GPFlash, Epochs: 4, LR: 2e-3, SeqLen: 48, Seed: 23}, cfg, ds)
	}
	straight := mk()
	wantRes := straight.Run()

	tr := mk()
	if _, err := tr.RunCtx(&countdownCtx{Context: context.Background(), n: 5}); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	path := filepath.Join(t.TempDir(), "mid.ckpt")
	if err := tr.Loop().Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(path, bindFor(ds, nil))
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSameWeights(t, straight.Model, resumed.Model())
	assertSameCurve(t, wantRes.Curve, gotRes.Curve)
}

// TestEarlyStopping: a patience that the noisy early curve cannot satisfy
// stops the run before the configured epochs, emitting an EarlyStopEvent.
func TestEarlyStopping(t *testing.T) {
	ds := smallNodeDataset(31)
	cfg := model.GraphormerSlim(12, 4, 32)
	cfg.Layers = 1
	cfg.Heads = 2
	tr := NewNodeTrainer(Config{
		Method: GPSparse, Epochs: 50, LR: 2e-3, Seed: 33, EarlyStopPatience: 2,
	}, cfg, ds)
	var stops []EarlyStopEvent
	tr.Loop().Sink = func(e Event) {
		if s, ok := e.(EarlyStopEvent); ok {
			stops = append(stops, s)
		}
	}
	res := tr.Run()
	if len(res.Curve) >= 50 {
		t.Fatalf("early stopping never triggered (%d epochs)", len(res.Curve))
	}
	if len(stops) != 1 {
		t.Fatalf("want 1 EarlyStopEvent, got %d", len(stops))
	}
}

// TestLoopEvents: epoch events fire once per epoch, in order, and TorchGT
// runs announce interleave phase switches.
func TestLoopEvents(t *testing.T) {
	ds := smallNodeDataset(41)
	cfg := model.GraphormerSlim(12, 4, 42)
	cfg.Layers = 2
	cfg.Heads = 2
	tr := NewNodeTrainer(Config{
		Method: TorchGT, Epochs: 6, LR: 2e-3, ClusterK: 4, Db: 4, Seed: 43, Interval: 2,
	}, cfg, ds)
	var epochs []int
	phases := 0
	tr.Loop().Sink = func(e Event) {
		switch ev := e.(type) {
		case EpochEvent:
			epochs = append(epochs, ev.Epoch)
		case PhaseEvent:
			phases++
		}
	}
	tr.Run()
	if len(epochs) != 6 {
		t.Fatalf("want 6 epoch events, got %d", len(epochs))
	}
	for i, ep := range epochs {
		if ep != i {
			t.Fatalf("epoch events out of order: %v", epochs)
		}
	}
	if phases == 0 {
		t.Fatal("TorchGT with interval 2 over 6 epochs must switch phases at least once")
	}
}

// --- checkpoint error paths -------------------------------------------------

func writeNodeCheckpoint(t *testing.T, ds *graph.NodeDataset) string {
	t.Helper()
	cfg := model.GraphormerSlim(12, 4, 52)
	cfg.Layers = 1
	cfg.Heads = 2
	tr := NewNodeTrainer(Config{Method: GPSparse, Epochs: 2, LR: 2e-3, Seed: 53}, cfg, ds)
	tr.Run()
	path := filepath.Join(t.TempDir(), "ok.ckpt")
	if err := tr.Loop().Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckpointNotACheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.ckpt")
	if err := os.WriteFile(path, []byte("this is not a checkpoint at all, honest"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(path, bindFor(smallNodeDataset(1), nil)); err == nil {
		t.Fatal("garbage file must not resume")
	}
	if _, err := Resume(filepath.Join(t.TempDir(), "missing.ckpt"), bindFor(nil, nil)); err == nil {
		t.Fatal("missing file must not resume")
	}
}

func TestCheckpointVersionMismatch(t *testing.T) {
	ds := smallNodeDataset(51)
	path := writeNodeCheckpoint(t, ds)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[4:8], checkpointVersion+7)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Resume(path, bindFor(ds, nil))
	if err == nil || !contains(err.Error(), "version") {
		t.Fatalf("future version must fail descriptively, got: %v", err)
	}
}

func TestCheckpointTruncated(t *testing.T) {
	ds := smallNodeDataset(51)
	path := writeNodeCheckpoint(t, ds)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// truncate at a spread of offsets: header, meta, params, moments
	for _, n := range []int{2, 9, 40, len(raw) / 4, len(raw) / 2, len(raw) - 5} {
		trunc := filepath.Join(t.TempDir(), "trunc.ckpt")
		if err := os.WriteFile(trunc, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(trunc, bindFor(ds, nil)); err == nil {
			t.Fatalf("truncation at %d of %d bytes must fail", n, len(raw))
		}
	}
}

func TestCheckpointMismatchedModel(t *testing.T) {
	ds := smallNodeDataset(51)
	path := writeNodeCheckpoint(t, ds)
	// bind rebuilds the trainer but with a model of different shape, as if
	// the caller supplied a dataset that does not match the checkpoint
	bad := func(kind string, cfg Config, mcfg model.Config) (Task, *model.GraphTransformer, error) {
		mcfg.Hidden *= 2
		tr := NewNodeTrainer(cfg, mcfg, ds)
		return tr, tr.Model, nil
	}
	_, err := Resume(path, bad)
	if err == nil || !contains(err.Error(), "ModelConfig") {
		t.Fatalf("mismatched model must fail descriptively, got: %v", err)
	}
}

func TestCheckpointWrongTaskKind(t *testing.T) {
	ds := smallNodeDataset(51)
	path := writeNodeCheckpoint(t, ds)
	bad := func(kind string, cfg Config, mcfg model.Config) (Task, *model.GraphTransformer, error) {
		tr := NewSeqTrainer(cfg, mcfg, ds) // ignores the recorded kind
		return tr, tr.Model, nil
	}
	_, err := Resume(path, bad)
	if err == nil || !contains(err.Error(), "task") {
		t.Fatalf("task-kind mismatch must fail descriptively, got: %v", err)
	}
}

func TestReadCheckpointInfo(t *testing.T) {
	ds := smallNodeDataset(51)
	path := writeNodeCheckpoint(t, ds)
	kind, cfg, mcfg, err := ReadCheckpointInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if kind != TaskNode || cfg.Method != GPSparse || mcfg.Layers != 1 {
		t.Fatalf("header mismatch: %s %+v %+v", kind, cfg, mcfg)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// negMetricTask improves a strictly-negative stop metric every epoch (the
// graph-regression shape, where StopMetric is −MAE ≤ 0).
type negMetricTask struct {
	nullTask
	ep int
}

func (t *negMetricTask) EpochPoint(ep int, dt time.Duration) Point {
	t.ep = ep
	return Point{Epoch: ep, TestAcc: -10 + float64(ep)} // −10, −9, −8, …
}
func (t *negMetricTask) StopMetric(p Point) float64 { return p.TestAcc }

// TestEarlyStoppingNegativeMetric: an improving negative metric must never
// trigger early stopping (regression: best initialised to 0 swallowed all
// negative observations).
func TestEarlyStoppingNegativeMetric(t *testing.T) {
	mcfg := model.Config{Name: "t", Layers: 0, Hidden: 8, Heads: 1, InDim: 4, OutDim: 2}
	l := NewLoop(&negMetricTask{}, model.NewGraphTransformer(mcfg),
		Config{Method: GPFlash, Epochs: 8, LR: 1e-3, EarlyStopPatience: 2}.withDefaults())
	res, err := l.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != 8 {
		t.Fatalf("improving negative metric early-stopped after %d epochs", len(res.Curve))
	}
}

// TestResultMatchesRun: Result() after a completed Run must report the same
// clean final evaluation Run returned — including when the finished run is
// checkpointed and resumed.
func TestResultMatchesRun(t *testing.T) {
	ds := smallNodeDataset(61)
	cfg := model.GraphormerSlim(12, 4, 62)
	cfg.Layers = 1
	cfg.Heads = 2
	tr := NewNodeTrainer(Config{Method: GPSparse, Epochs: 3, LR: 2e-3, Seed: 63}, cfg, ds)
	res, err := tr.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Loop().Result(); got.FinalTestAcc != res.FinalTestAcc || got.BestTestAcc != res.BestTestAcc {
		t.Fatalf("Result() (%v, %v) != Run result (%v, %v)",
			got.FinalTestAcc, got.BestTestAcc, res.FinalTestAcc, res.BestTestAcc)
	}
	path := filepath.Join(t.TempDir(), "done.ckpt")
	if err := tr.Loop().Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(path, bindFor(ds, nil))
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.FinalTestAcc != res.FinalTestAcc || got.BestTestAcc != res.BestTestAcc {
		t.Fatalf("resumed finished run reports (%v, %v), original (%v, %v)",
			got.FinalTestAcc, got.BestTestAcc, res.FinalTestAcc, res.BestTestAcc)
	}
}
