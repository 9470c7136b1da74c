package train

import (
	"context"
	"testing"
	"time"

	"torchgt/internal/graph"
	"torchgt/internal/model"
	"torchgt/internal/nn"
)

// nullTask is a Task whose steps do nothing, isolating the Loop engine's own
// per-epoch cost: scheduling, optimiser application, curve bookkeeping and
// event dispatch — the layer Session adds over a hand-rolled training loop.
type nullTask struct{ taskBase }

func (t *nullTask) Kind() string              { return TaskNode }
func (t *nullTask) Preprocess() time.Duration { return 0 }
func (t *nullTask) runRNG() *nn.CountedSource { return nil }
func (t *nullTask) BeginEpoch(int)            { t.resetEpoch() }
func (t *nullTask) Steps(int) int             { return 1 }
func (t *nullTask) Step(int, int, int)        {}
func (t *nullTask) EpochPoint(ep int, dt time.Duration) Point {
	return Point{Epoch: ep, EpochTime: dt}
}
func (t *nullTask) Finish(*Result)           {}
func (t *nullTask) StopMetric(Point) float64 { return 0 }

// BenchmarkSessionOverhead measures the per-epoch allocation cost of the
// Loop/event layer itself (events enabled, sink attached). The CI baseline
// pins this near zero: the Session API must stay free compared to the raw
// training arithmetic it wraps.
func BenchmarkSessionOverhead(b *testing.B) {
	mcfg := model.Config{Name: "bench", Layers: 0, Hidden: 8, Heads: 1, InDim: 4, OutDim: 2}
	m := model.NewGraphTransformer(mcfg)
	cfg := Config{Method: GPFlash, Epochs: b.N, LR: 1e-3}.withDefaults()
	cfg.Epochs = b.N // withDefaults floors Epochs at 20; the benchmark drives exactly b.N
	task := &nullTask{}
	l := NewLoop(task, m, cfg)
	events := 0
	l.Sink = func(Event) { events++ }
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := l.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	if events < b.N {
		b.Fatalf("missing epoch events: %d < %d", events, b.N)
	}
}

// egoStepBench sets up the ego trainer's step on the benchmark's shape —
// GPH-Slim, contexts of 32, two sampling workers, an in-memory source — and
// 32 training targets.
func egoStepBench(b *testing.B) (*EgoTrainer, []int32, *nn.Adam) {
	ds, err := graph.LoadNodeScaled("arxiv-sim", 2048, 1)
	if err != nil {
		b.Fatal(err)
	}
	tr := NewEgoTrainerSource(EgoConfig{MaxSize: 32, Batch: 32, Seed: 1, Workers: 2},
		model.GraphormerSlim(ds.X.Cols, ds.NumClasses, 1), graph.SourceOf(ds))
	targets := make([]int32, 32)
	for i := range targets {
		targets[i] = int32(i * 61 % ds.G.N)
	}
	opt := nn.NewAdam(tr.Cfg.LR)
	opt.ClipNorm = 5
	return tr, targets, opt
}

// BenchmarkEgoStep is one optimiser step of ego-sampled training: 32 targets
// sampled (fresh serials every step), packed into block-diagonal
// forwards/backwards of packRows rows, one Adam step. CI caps its
// allocations and gates it against the same work done one context at a time
// (BenchmarkEgoStepBatch1x32).
func BenchmarkEgoStep(b *testing.B) {
	tr, targets, opt := egoStepBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.accumulate(targets, uint64(i*len(targets))); err != nil {
			b.Fatal(err)
		}
		opt.Step(tr.Model.Params())
	}
}

// BenchmarkEgoStepBatch1x32 is the same optimiser step with every target a
// pack of its own — 32 forwards/backwards of one 32-token context, then the
// Adam step: what the step cost before contexts were packed.
func BenchmarkEgoStepBatch1x32(b *testing.B) {
	tr, targets, opt := egoStepBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := range targets {
			if _, err := tr.accumulate(targets[t:t+1], uint64(i*len(targets)+t)); err != nil {
				b.Fatal(err)
			}
		}
		opt.Step(tr.Model.Params())
	}
}
