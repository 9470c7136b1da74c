package torchgt

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"torchgt/internal/model"
)

func sessionNodeDS(t *testing.T, n int, seed int64) *NodeDataset {
	t.Helper()
	return loadNode(t, "arxiv-sim", n, seed)
}

func weightsEqual(t *testing.T, a, b *GraphTransformer) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("param count %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		for j := range pa[i].W.Data {
			if math.Float32bits(pa[i].W.Data[j]) != math.Float32bits(pb[i].W.Data[j]) {
				t.Fatalf("param %q diverges at %d", pa[i].Name, j)
			}
		}
	}
}

// TestSessionResumePublic drives the full public lifecycle for all three
// tasks: run with periodic checkpoints, resume the mid-run checkpoint in a
// fresh session, and require bitwise-identical weights and curve.
func TestSessionResumePublic(t *testing.T) {
	nds := sessionNodeDS(t, 192, 71)
	gds := loadGraphLevel(t, "zinc-sim", 72)
	gds.Graphs = gds.Graphs[:40]
	gds.Feats = gds.Feats[:40]
	gds.Targets = gds.Targets[:40]
	gds.TrainIdx = filterIdx(gds.TrainIdx, 40)
	gds.ValIdx = filterIdx(gds.ValIdx, 40)
	gds.TestIdx = filterIdx(gds.TestIdx, 40)

	nodeCfg := GraphormerSlim(nds.X.Cols, nds.NumClasses, 73)
	nodeCfg.Layers = 1
	graphCfg := GraphormerSlim(gds.FeatDim, 1, 74)
	graphCfg.Layers = 1

	cases := []struct {
		name string
		cfg  ModelConfig
		task TaskSpec
		opts []SessionOption
	}{
		{"node", nodeCfg, NodeTask(nds), nil},
		{"graph", graphCfg, GraphLevelTask(gds), []SessionOption{WithBatchSize(8)}},
		{"seq", nodeCfg, seqTask(t, nds), []SessionOption{WithSeqLen(64)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := append([]SessionOption{
				WithEpochs(5), WithLR(2e-3), WithSeed(75),
				WithCheckpointEvery(2, dir),
			}, tc.opts...)
			full, err := NewSession(MethodTorchGT, tc.cfg, tc.task, opts...)
			if err != nil {
				t.Fatal(err)
			}
			fullRes, err := full.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(fullRes.Curve) != 5 {
				t.Fatalf("full run has %d epochs", len(fullRes.Curve))
			}

			resumed, err := ResumeSession(filepath.Join(dir, "epoch-00002.ckpt"), tc.task)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Epoch() != 2 {
				t.Fatalf("resumed at epoch %d", resumed.Epoch())
			}
			resRes, err := resumed.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			weightsEqual(t, full.Model(), resumed.Model())
			for i := range fullRes.Curve {
				a, b := fullRes.Curve[i], resRes.Curve[i]
				a.EpochTime, b.EpochTime = 0, 0
				if a != b {
					t.Fatalf("curve[%d]: %+v vs %+v", i, fullRes.Curve[i], resRes.Curve[i])
				}
			}
			if fullRes.FinalTestAcc != resRes.FinalTestAcc {
				t.Fatalf("final acc %v vs %v", fullRes.FinalTestAcc, resRes.FinalTestAcc)
			}
		})
	}
}

// TestSessionCancellation: Run(ctx) returns the partial result with ctx's
// error within one step of cancellation, leaks no goroutines, and the same
// session continues to the bitwise-identical end state afterwards.
func TestSessionCancellation(t *testing.T) {
	ds := sessionNodeDS(t, 192, 81)
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 82)
	cfg.Layers = 1

	mk := func() *Session {
		s, err := NewSession(MethodGPSparse, cfg, NodeTask(ds),
			WithEpochs(6), WithLR(2e-3), WithSeed(83))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	straight := mk()
	wantRes, err := straight.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancelledAt := -1
	sess, err := NewSession(MethodGPSparse, cfg, NodeTask(ds),
		WithEpochs(6), WithLR(2e-3), WithSeed(83),
		WithEventSink(func(e Event) {
			if ep, ok := e.(EpochEvent); ok && ep.Epoch == 2 {
				cancelledAt = ep.Epoch
				cancel()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// cancelled from the epoch-2 event → at most one more step may have run,
	// and the node task has one step per epoch, so exactly 3 epochs exist
	if cancelledAt != 2 || len(res.Curve) != 3 {
		t.Fatalf("partial curve has %d epochs (cancelled at %d)", len(res.Curve), cancelledAt)
	}
	// continuing the cancelled session completes the run identically
	gotRes, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	weightsEqual(t, straight.Model(), sess.Model())
	if wantRes.FinalTestAcc != gotRes.FinalTestAcc || len(gotRes.Curve) != len(wantRes.Curve) {
		t.Fatalf("continuation diverged: %v vs %v", gotRes.FinalTestAcc, wantRes.FinalTestAcc)
	}

	// the engine is synchronous: no goroutines may outlive Run
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, g)
	}
}

// TestSessionEvents: the event stream carries epoch metrics in order, and
// sinks run in registration order.
func TestSessionEvents(t *testing.T) {
	ds := sessionNodeDS(t, 128, 91)
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 92)
	cfg.Layers = 1
	var epochs, seconds []int
	s, err := NewSession(MethodTorchGT, cfg, NodeTask(ds), WithEpochs(4), WithSeed(93),
		WithEventSink(func(e Event) {
			if ep, ok := e.(EpochEvent); ok {
				epochs = append(epochs, ep.Epoch)
			}
		}),
		WithEventSink(func(e Event) {
			if _, ok := e.(EpochEvent); ok {
				seconds = append(seconds, len(epochs))
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 4 {
		t.Fatalf("want 4 epoch events, got %d", len(epochs))
	}
	for i, ep := range epochs {
		if ep != i || seconds[i] != i+1 {
			t.Fatalf("events out of order: epochs %v, second sink saw %v", epochs, seconds)
		}
	}
}

// TestSessionTorchGTWithoutBlocks: a node dataset without planted blocks —
// hand-built, or read from a tGDS or shard file written without them —
// trains under TorchGT, whose cluster reordering permutes every per-node
// array but must leave the absent Blocks absent.
func TestSessionTorchGTWithoutBlocks(t *testing.T) {
	ds := sessionNodeDS(t, 128, 94)
	ds.Blocks = nil
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 95)
	cfg.Layers = 1
	_, res := runSession(t, MethodTorchGT, cfg, NodeTask(ds), WithEpochs(1), WithSeed(96))
	if len(res.Curve) != 1 {
		t.Fatalf("want one epoch, got %d", len(res.Curve))
	}
}

// TestSessionValidation: descriptive errors for nil datasets, empty specs
// and model/dataset mismatches — at construction and at resume.
func TestSessionValidation(t *testing.T) {
	ds := sessionNodeDS(t, 128, 95)
	good := GraphormerSlim(ds.X.Cols, ds.NumClasses, 96)
	good.Layers = 1

	if _, err := NewSession(MethodTorchGT, good, NodeTask(nil)); err == nil {
		t.Fatal("nil dataset must fail")
	}
	if _, err := NewSession(MethodTorchGT, good, TaskSpec{}); err == nil {
		t.Fatal("empty task spec must fail")
	}
	bad := good
	bad.InDim += 3
	if _, err := NewSession(MethodTorchGT, bad, NodeTask(ds)); err == nil {
		t.Fatal("feature-dim mismatch must fail")
	}

	// write a checkpoint, then resume against the wrong task kind and a
	// mismatched dataset
	dir := t.TempDir()
	s, err := NewSession(MethodGPFlash, good, NodeTask(ds), WithEpochs(2), WithSeed(97))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "s.ckpt")
	if err := s.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeSession(path, seqTask(t, ds)); err == nil {
		t.Fatal("task-kind mismatch must fail")
	}
	other := sessionNodeDS(t, 128, 98) // same shape, fine
	if _, err := ResumeSession(path, NodeTask(other)); err != nil {
		t.Fatalf("compatible dataset must resume: %v", err)
	}
	smaller := loadNode(t, "flickr-sim", 128, 99)
	if smaller.X.Cols != ds.X.Cols {
		if _, err := ResumeSession(path, NodeTask(smaller)); err == nil {
			t.Fatal("mismatched dataset must fail to resume")
		}
	}
}

// TestSessionSeqParallelPublic drives WithSeqParallel end to end through the
// public API: a sequence-parallel session must train bitwise-identically to
// a serial session (curve and weights), record collective traffic, survive a
// cancel → checkpoint → resume round trip, and reject head counts the rank
// count cannot divide.
func TestSessionSeqParallelPublic(t *testing.T) {
	ds := sessionNodeDS(t, 190, 101) // 190 rows: not divisible by 4
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 102)
	cfg.Layers = 1
	cfg.Heads = 4

	run := func(opts ...SessionOption) (*Session, *Result) {
		t.Helper()
		base := []SessionOption{WithEpochs(4), WithLR(2e-3), WithSeed(103), WithFixedBeta(0.5), WithInterval(2)}
		s, err := NewSession(MethodTorchGT, cfg, NodeTask(ds), append(base, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return s, res
	}
	serial, serialRes := run()
	if dp := model.AsDistSeqParallel(serial.Model().Plan()); dp == nil || dp.Ranks() != 1 || dp.Transport().World() != 1 {
		t.Fatalf("a serial session runs on %T, want a one-rank DistSeqParallel", serial.Model().Plan())
	}
	if serial.CommBytes() != 0 {
		t.Fatal("serial session must report zero comm traffic")
	}
	for _, p := range []int{2, 4} {
		par, parRes := run(WithSeqParallel(p))
		weightsEqual(t, serial.Model(), par.Model())
		if len(serialRes.Curve) != len(parRes.Curve) {
			t.Fatalf("P=%d: curve lengths differ", p)
		}
		for i := range serialRes.Curve {
			a, b := serialRes.Curve[i], parRes.Curve[i]
			a.EpochTime, b.EpochTime = 0, 0
			if a != b {
				t.Fatalf("P=%d curve[%d]: %+v vs %+v", p, i, serialRes.Curve[i], parRes.Curve[i])
			}
		}
		if par.CommBytes() == 0 {
			t.Fatalf("P=%d: no collective traffic recorded", p)
		}
	}

	// cancel mid-run → checkpoint → resume, all sequence-parallel
	ctx, cancel := context.WithCancel(context.Background())
	sess, err := NewSession(MethodTorchGT, cfg, NodeTask(ds),
		WithEpochs(4), WithLR(2e-3), WithSeed(103), WithFixedBeta(0.5), WithInterval(2),
		WithSeqParallel(2),
		WithEventSink(func(e Event) {
			if ep, ok := e.(EpochEvent); ok && ep.Epoch == 1 {
				cancel()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	path := filepath.Join(t.TempDir(), "seqpar.ckpt")
	if err := sess.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeSession(path, NodeTask(ds))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	weightsEqual(t, serial.Model(), resumed.Model())
	if resumed.CommBytes() == 0 {
		t.Fatal("resumed session must rebuild the sequence-parallel plan")
	}

	// validation: 4 heads cannot shard over 3 ranks
	if _, err := NewSession(MethodTorchGT, cfg, NodeTask(ds), WithSeqParallel(3)); err == nil {
		t.Fatal("heads not divisible by ranks must fail at session build")
	}
}

// TestReferenceTrajectoryPinned holds the reference arithmetic across
// releases, end to end: the per-epoch training losses of a short
// interleaved run (flash at epochs 0 and 2, cluster-sparse at 1 and 3, so
// every long-S kernel, the matmuls and the optimiser are on the path) must
// repeat, bit for bit, the values recorded before the matrix kernels were
// unified into one set and the flash backward became a single pass. A kernel change
// that reorders any floating-point reduction moves these; one that only
// makes them faster does not.
func TestReferenceTrajectoryPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The kernels, internal/attention and internal/nn convert every
		// product explicitly and so round alike everywhere, but two things
		// on the path do not: the transcendental row ops return math.Exp's
		// and math.Tanh's bits, which depend on the architecture, and the
		// rest of internal/ (model, train, the tensor ops above the kernels)
		// is not yet held to the no-fusion rule, so arm64, ppc64le and s390x
		// compilers may fuse its x*y+z. The losses below were recorded on amd64.
		t.Skipf("losses pinned on amd64; %s may round the row ops or fused multiply-adds differently", runtime.GOARCH)
	}
	d, err := OpenDataset("synth://arxiv-sim?nodes=256&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	ds := d.Node
	sess, err := NewSession(MethodTorchGT, GraphormerSlim(ds.X.Cols, ds.NumClasses, 1), NodeTask(ds),
		WithEpochs(4), WithInterval(2), WithFixedBeta(ds.G.Sparsity()), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0x4007b2741af977f2, 0x4004198b15569247, 0x4001366982e42162, 0x3ffc3b3b78ae5662}
	if len(res.Curve) != len(want) {
		t.Fatalf("want %d epochs, got %d", len(want), len(res.Curve))
	}
	for i, p := range res.Curve {
		if got := math.Float64bits(p.Loss); got != want[i] {
			t.Errorf("epoch %d: loss %v (0x%016x), pinned %v (0x%016x)",
				i, p.Loss, got, math.Float64frombits(want[i]), want[i])
		}
	}
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

// TestSessionEgoShardResume: an ego session over a disk-resident shard://
// spec, cancelled at a step boundary inside its second epoch, checkpointed
// and resumed from the spec the checkpoint records, lands bitwise where an
// uninterrupted run lands.
func TestSessionEgoShardResume(t *testing.T) {
	ds := loadNode(t, "arxiv-sim", 256, 31)
	dir := filepath.Join(t.TempDir(), "shards")
	if _, err := ShardNodeDataset(dir, ds, 3); err != nil {
		t.Fatal(err)
	}
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 32)
	cfg.Layers = 1
	mk := func() *Session {
		task, err := TaskFromSpec("shard://" + dir + "?cache=16KiB&block=1KiB")
		if err != nil {
			t.Fatal(err)
		}
		if task.Data().Stream == nil {
			t.Fatal("shard:// task was loaded into memory")
		}
		ego, err := task.Ego()
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(MethodGPSparse, cfg, ego, WithEpochs(3), WithSeed(33), WithSeqLen(12), WithBatchSize(16))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	straight := mk()
	want, err := straight.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	targets := 0
	for _, m := range ds.TrainMask {
		if m {
			targets++
		}
	}
	steps := (targets + 15) / 16
	if steps < 2 {
		t.Fatalf("%d steps per epoch: the cancel point needs two", steps)
	}
	// Err() is checked at each epoch top and before each step: call
	// steps+4 comes before step 1 of epoch 1.
	sess := mk()
	res, err := sess.Run(&countdownCtx{Context: context.Background(), n: steps + 4})
	if !errors.Is(err, context.Canceled) || len(res.Curve) != 1 {
		t.Fatalf("want a cancel inside epoch 1, got %v after %d epochs", err, len(res.Curve))
	}
	path := filepath.Join(t.TempDir(), "mid.ckpt")
	if err := sess.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeSessionFromSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	weightsEqual(t, straight.Model(), resumed.Model())
	if len(got.Curve) != len(want.Curve) {
		t.Fatalf("resumed curve has %d epochs, want %d", len(got.Curve), len(want.Curve))
	}
	for i, p := range want.Curve {
		if math.Float64bits(got.Curve[i].Loss) != math.Float64bits(p.Loss) || got.Curve[i].TestAcc != p.TestAcc {
			t.Fatalf("epoch %d: resumed (%v, %v), uninterrupted (%v, %v)", i, got.Curve[i].Loss, got.Curve[i].TestAcc, p.Loss, p.TestAcc)
		}
	}
	if got.FinalTestAcc != want.FinalTestAcc {
		t.Fatalf("final accuracy %v, uninterrupted %v", got.FinalTestAcc, want.FinalTestAcc)
	}
}

// TestSessionEgoRefusals: ego-sampled training runs gp-sparse attention on
// one process, so NewSession refuses other methods, the sequence-parallel
// plan and a transport; graph-level tasks do not convert.
func TestSessionEgoRefusals(t *testing.T) {
	ds := loadNode(t, "arxiv-sim", 128, 41)
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 42)
	cfg.Layers = 1
	ego, err := NodeTask(ds).Ego()
	if err != nil {
		t.Fatal(err)
	}
	tr := MemCluster(1)[0]
	defer tr.Close()
	for _, tc := range []struct {
		name   string
		method Method
		opt    SessionOption
		want   string
	}{
		{"method", MethodGPFlash, WithSeed(1), "method must be gp-sparse, not gp-flash"},
		{"seqpar", MethodGPSparse, WithSeqParallel(2), "WithSeqParallel"},
		{"transport", MethodGPSparse, WithTransport(tr), "WithTransport"},
	} {
		if _, err := NewSession(tc.method, cfg, ego, tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want an error naming %q, got %v", tc.name, tc.want, err)
		}
	}
	if _, err := GraphLevelTask(loadGraphLevel(t, "zinc-sim", 43)).Ego(); err == nil {
		t.Error("a graph-level task converted to ego training")
	}
}
