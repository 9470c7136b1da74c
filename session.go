package torchgt

import (
	"context"
	"fmt"

	"torchgt/internal/graph"
	"torchgt/internal/model"
	"torchgt/internal/train"
)

// Session is the lifecycle-aware training API: one object that unifies the
// node-level, graph-level, sequence-sampled and ego-sampled regimes over a
// single training engine, built with functional options and driven by
// Run(ctx).
//
//	s, _ := torchgt.NewSession(torchgt.MethodTorchGT, cfg, torchgt.NodeTask(ds),
//	    torchgt.WithEpochs(50),
//	    torchgt.WithCheckpointEvery(10, "ckpts"),
//	    torchgt.WithEventSink(func(e torchgt.Event) { ... }))
//	res, err := s.Run(ctx)
//
// Run honours ctx: cancellation stops at the next optimiser-step boundary
// and returns the partial Result together with ctx's error; calling Run
// again (or resuming a checkpoint in another process) continues the run
// bitwise-identically to one that was never interrupted. While running, the
// session emits typed events — per-epoch metrics, Auto Tuner β decisions,
// dual-interleave phase switches, checkpoint writes, early stops — to the
// configured sinks.
type Session struct {
	loop    *train.Loop
	graphTr *train.GraphTrainer // non-nil for graph-level tasks (EvalMAE)
}

// Training events, re-exported from the engine. See WithEventSink.
type (
	// Event is a typed notification from a running session.
	Event = train.Event
	// EpochEvent carries each completed epoch's curve point.
	EpochEvent = train.EpochEvent
	// PhaseEvent announces dual-interleave sparse/dense phase switches.
	PhaseEvent = train.PhaseEvent
	// BetaEvent announces Auto Tuner βthre ladder moves.
	BetaEvent = train.BetaEvent
	// CheckpointEvent announces automatic checkpoint writes.
	CheckpointEvent = train.CheckpointEvent
	// EarlyStopEvent announces an early-stopping termination.
	EarlyStopEvent = train.EarlyStopEvent
)

// TaskSpec names the training regime and carries its dataset. Construct one
// with NodeTask or GraphLevelTask over an in-memory dataset, or with
// TaskFromSpec over a dataset spec string — spec-built tasks record the
// spec in Session checkpoints so ResumeSessionFromSpec can re-open the
// data. Seq turns a node task into the mini-batched sequence regime, Ego
// into ego-graph sampled training.
type TaskSpec struct {
	kind string
	// data is shared by the task and its conversions; a disk-resident
	// (shard://) node dataset is loaded into it, in place, when the first
	// full-sequence trainer is built over it.
	data *Dataset
	spec string // canonical dataset spec ("" for in-memory datasets)
}

// NodeTask trains node classification over the full graph sequence.
func NodeTask(ds *NodeDataset) TaskSpec {
	return TaskSpec{kind: train.TaskNode, data: &Dataset{Node: ds}}
}

// GraphLevelTask trains on a graph-level dataset (classification or
// regression; Session.EvalMAE reports the regression headline metric).
func GraphLevelTask(ds *GraphDataset) TaskSpec {
	return TaskSpec{kind: train.TaskGraph, data: &Dataset{Graph: ds}}
}

// sessionSettings accumulates functional options before the engine is built.
type sessionSettings struct {
	cfg   train.Config
	sink  func(Event)
	every int
	dir   string

	// cross-process training (WithTransport / WithDistPlan; see transport.go)
	transport    Transport
	distReplicas int
	distSeqRanks int
	distSet      bool
}

// SessionOption configures a Session (functional options).
type SessionOption func(*sessionSettings)

// WithEpochs sets the number of training epochs (default 20). On
// ResumeSession it extends or shortens the run.
func WithEpochs(n int) SessionOption { return func(s *sessionSettings) { s.cfg.Epochs = n } }

// WithLR sets the learning rate (default 1e-3).
func WithLR(lr float64) SessionOption { return func(s *sessionSettings) { s.cfg.LR = lr } }

// WithSeed sets the training seed.
func WithSeed(seed int64) SessionOption { return func(s *sessionSettings) { s.cfg.Seed = seed } }

// WithSeqParallel trains under the simulated sequence-parallel execution
// plan of p ranks: every rank owns S/p sequence rows, attention reshards
// sequence↔heads through channel all-to-alls at each layer (the
// DeepSpeed-Ulysses schedule behind the paper's Cluster-aware Graph
// Parallelism). The training trajectory is bitwise identical
// to the serial plan at every p — sequence parallelism composes with Adam,
// the beta tuner, dense↔cluster-sparse interleaving, typed events and
// checkpoint/resume without changing a single number.
//
// The model's head count must be divisible by p (NewSession reports an
// error otherwise); the sequence length need not be. p ≤ 1 keeps the
// one-rank plan every model starts with. Structural: recorded in checkpoints, fixed across
// ResumeSession.
func WithSeqParallel(p int) SessionOption {
	return func(s *sessionSettings) { s.cfg.SeqParallel = p }
}

// WithBatchSize sets the optimiser batch: graphs per step for graph-level
// tasks (default 16), targets per step for ego tasks (default 32).
func WithBatchSize(n int) SessionOption { return func(s *sessionSettings) { s.cfg.BatchSize = n } }

// WithSeqLen sets the sampled sequence length: nodes per sequence for a
// node task converted with Seq (the Fig. 1 regime), nodes per ego-graph for
// one converted with Ego (default 32).
func WithSeqLen(n int) SessionOption { return func(s *sessionSettings) { s.cfg.SeqLen = n } }

// WithInterval sets the dual-interleave period (default 8).
func WithInterval(n int) SessionOption { return func(s *sessionSettings) { s.cfg.Interval = n } }

// WithFixedBeta pins βthre to beta instead of running the Auto Tuner; a
// negative beta re-enables the tuner.
func WithFixedBeta(beta float64) SessionOption {
	return func(s *sessionSettings) {
		s.cfg.FixedBeta = beta
		s.cfg.UseFixedBeta = beta >= 0
	}
}

// WithEarlyStopping stops the run after patience consecutive epochs without
// improvement of the task's stop metric (validation accuracy for node
// tasks, test accuracy otherwise).
func WithEarlyStopping(patience int) SessionOption {
	return func(s *sessionSettings) { s.cfg.EarlyStopPatience = patience }
}

// WithCheckpointEvery writes a checkpoint into dir after every n-th epoch.
// Files are named epoch-%05d.ckpt; each write is announced with a
// CheckpointEvent.
func WithCheckpointEvery(n int, dir string) SessionOption {
	return func(s *sessionSettings) { s.every, s.dir = n, dir }
}

// WithEventSink registers fn to receive training events. Sinks are invoked
// synchronously from the training goroutine, in registration order; keep
// them cheap.
func WithEventSink(fn func(Event)) SessionOption {
	return func(s *sessionSettings) {
		if prev := s.sink; prev != nil {
			s.sink = func(e Event) { prev(e); fn(e) }
		} else {
			s.sink = fn
		}
	}
}

// NewSession builds a training session for the given method, model
// configuration and task. The zero-option session trains 20 epochs at the
// default learning rate with the Auto Tuner enabled (TorchGT methods).
func NewSession(method Method, cfg ModelConfig, task TaskSpec, opts ...SessionOption) (*Session, error) {
	st := &sessionSettings{}
	for _, o := range opts {
		o(st)
	}
	st.cfg.Method = method
	if task.spec != "" {
		st.cfg.DataSpec = task.spec
	}
	t, _, gtr, err := buildTrainer(task, st.cfg, cfg, false)
	if err != nil {
		return nil, err
	}
	s := &Session{loop: t.(loopCarrier).Loop(), graphTr: gtr}
	if err := applyDist(st, s.loop); err != nil {
		return nil, err
	}
	s.loop.Sink = st.sink
	s.loop.CheckpointEvery = st.every
	s.loop.CheckpointDir = st.dir
	return s, nil
}

// loopCarrier is satisfied by every trainer: access to its engine.
type loopCarrier interface{ Loop() *train.Loop }

// buildTrainer validates the task's dataset against the model configuration
// and constructs the matching trainer — the single construction path shared
// by NewSession and ResumeSession. forResume tightens the error text (a
// mismatch there means the checkpoint's recorded ModelConfig does not fit
// the supplied dataset).
func buildTrainer(task TaskSpec, cfg train.Config, mcfg ModelConfig, forResume bool) (train.Task, *GraphTransformer, *train.GraphTrainer, error) {
	subject, suffix := "model", ""
	if forResume {
		subject, suffix = "checkpoint model", " (mismatched ModelConfig)"
	}
	if task.kind == train.TaskEgo {
		if cfg.Method != train.GPSparse {
			return nil, nil, nil, fmt.Errorf("torchgt: ego-sampled training runs sparse attention over each sampled ego-graph: method must be %v, not %v", MethodGPSparse, cfg.Method)
		}
		if cfg.SeqParallel > 1 {
			return nil, nil, nil, fmt.Errorf("torchgt: ego-sampled training has no sequence-parallel plan (WithSeqParallel %d)", cfg.SeqParallel)
		}
	}
	if cfg.SeqParallel > 1 {
		heads := mcfg.Heads
		if heads == 0 {
			heads = 1 // the model-config default
		}
		if heads%cfg.SeqParallel != 0 {
			return nil, nil, nil, fmt.Errorf("torchgt: %s has %d attention heads, not divisible by %d sequence-parallel ranks (WithSeqParallel)",
				subject, heads, cfg.SeqParallel)
		}
	}
	switch task.kind {
	case train.TaskNode, train.TaskSeq, train.TaskEgo:
		src := task.data.Source()
		if src == nil {
			return nil, nil, nil, fmt.Errorf("torchgt: nil dataset")
		}
		if mcfg.InDim != src.FeatDim() {
			return nil, nil, nil, fmt.Errorf("torchgt: %s expects %d input features, dataset %q has %d%s",
				subject, mcfg.InDim, src.DatasetName(), src.FeatDim(), suffix)
		}
		if src.Classes() > 0 && mcfg.OutDim != src.Classes() {
			return nil, nil, nil, fmt.Errorf("torchgt: %s emits %d classes, dataset %q has %d%s",
				subject, mcfg.OutDim, src.DatasetName(), src.Classes(), suffix)
		}
		if task.kind == train.TaskEgo {
			tr, err := train.NewEgoTask(cfg, mcfg, src)
			if err != nil {
				return nil, nil, nil, err
			}
			return tr, tr.Model, nil, nil
		}
		ds, err := task.nodeData()
		if err != nil {
			return nil, nil, nil, err
		}
		if task.kind == train.TaskNode {
			tr := train.NewNodeTrainer(cfg, mcfg, ds)
			return tr, tr.Model, nil, nil
		}
		tr := train.NewSeqTrainer(cfg, mcfg, ds)
		return tr, tr.Model, nil, nil
	case train.TaskGraph:
		ds := task.data.Graph
		if ds == nil {
			return nil, nil, nil, fmt.Errorf("torchgt: nil dataset")
		}
		if mcfg.InDim != ds.FeatDim {
			return nil, nil, nil, fmt.Errorf("torchgt: %s expects %d input features, dataset %q has %d%s",
				subject, mcfg.InDim, ds.Name, ds.FeatDim, suffix)
		}
		tr := train.NewGraphTrainer(cfg, mcfg, ds)
		return tr, tr.Model, tr, nil
	}
	return nil, nil, nil, fmt.Errorf("torchgt: empty TaskSpec (use NodeTask, GraphLevelTask or TaskFromSpec)")
}

// Run trains until the configured epochs complete, early stopping triggers,
// or ctx is cancelled. On cancellation it returns the partial Result and
// ctx's error within one optimiser step; calling Run again with a live
// context continues exactly where it stopped.
func (s *Session) Run(ctx context.Context) (*Result, error) { return s.loop.Run(ctx) }

// Checkpoint writes the session's full training state — weights, optimiser
// moments, RNG stream positions, tuner state, step position and the curve so far
// — to path. Safe after Run returns (completed or cancelled); do not call
// concurrently with Run.
func (s *Session) Checkpoint(path string) error { return s.loop.Checkpoint(path) }

// Result summarises training so far (partial while the run is unfinished).
func (s *Session) Result() *Result { return s.loop.Result() }

// Epoch reports how many epochs have completed.
func (s *Session) Epoch() int { return s.loop.Epoch() }

// Model exposes the model under training (for freezing into a serving
// snapshot, custom evaluation, …).
func (s *Session) Model() *GraphTransformer { return s.loop.Model() }

// CommBytes reports the collective-communication traffic of a parallel
// session so far: all ranks' resharding all-to-alls for an in-process
// sequence-parallel session, this rank's transport payload bytes (reshards,
// gradient chain, logits gather) for a distributed one, 0 for a serial one
// (its plan is a group of one, which sends nothing).
func (s *Session) CommBytes() int64 {
	if sp := model.AsSeqParallel(s.loop.Model().Plan()); sp != nil {
		return sp.Comm().TotalBytes()
	}
	if dp := model.AsDistSeqParallel(s.loop.Model().Plan()); dp != nil {
		return dp.TransportBytes()
	}
	return 0
}

// EvalMAE reports the test MAE for graph-level regression sessions (0 for
// other tasks).
func (s *Session) EvalMAE() float64 {
	if s.graphTr == nil || s.graphTr.DS.Task != graph.GraphRegression {
		return 0
	}
	return s.graphTr.EvalMAE()
}

// ResumeSession reconstructs a session from a checkpoint file written by
// Checkpoint or WithCheckpointEvery. The task must match the checkpoint's
// kind and carry a dataset compatible with its recorded model
// configuration; corrupt or truncated files, future versions, and
// mismatched models all fail with descriptive errors.
//
// With no extra options, training continues bitwise-identically to a run
// that was never interrupted. Lifecycle options (WithEpochs, WithLR,
// WithEarlyStopping, WithCheckpointEvery, WithEventSink) take effect on the
// resumed run; structural options (method, batch shape, seeds, sequence
// parallelism) are fixed by the checkpoint and ignored.
func ResumeSession(path string, task TaskSpec, opts ...SessionOption) (*Session, error) {
	var gtr *train.GraphTrainer
	loop, err := train.Resume(path, func(kind string, cfg train.Config, mcfg model.Config) (train.Task, *GraphTransformer, error) {
		if kind != task.kind {
			return nil, nil, fmt.Errorf("torchgt: checkpoint %s holds a %q task, but a %q task was supplied", path, kind, task.kind)
		}
		t, m, g, err := buildTrainer(task, cfg, mcfg, true)
		gtr = g
		return t, m, err
	})
	if err != nil {
		return nil, err
	}
	st := &sessionSettings{cfg: loop.Cfg}
	for _, o := range opts {
		o(st)
	}
	// The resumed run's checkpoints must describe the data actually in
	// use: a spec-built task refreshes the recorded spec (e.g. data moved
	// to a new path), and an in-memory task clears it — we cannot attest
	// that the old spec still matches the supplied dataset, and a stale
	// spec would make a later ResumeSessionFromSpec silently train on the
	// wrong data.
	st.cfg.DataSpec = task.spec
	loop.Reconfigure(st.cfg)
	// Elastic resume: the execution plan is runtime wiring, not checkpoint
	// state — every plan yields the bitwise-identical trajectory — so a job
	// checkpointed at one world size may resume under a transport of
	// another (survivors of a lost rank restart at a smaller P).
	if err := applyDist(st, loop); err != nil {
		return nil, err
	}
	loop.Sink = st.sink
	loop.CheckpointEvery = st.every
	loop.CheckpointDir = st.dir
	return &Session{loop: loop, graphTr: gtr}, nil
}
