package train

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"torchgt/internal/dist/transport"
	"torchgt/internal/model"
	"torchgt/internal/nn"
)

// Point is one epoch of a convergence curve.
type Point struct {
	Epoch     int
	Loss      float64
	TestAcc   float64
	ValAcc    float64
	EpochTime time.Duration
	Beta      float64 // βthre in effect (TorchGT only)
	Pairs     int64   // attended pairs this epoch (compute proxy)
}

// Result summarises a training run.
type Result struct {
	Method         Method
	Curve          []Point
	FinalTestAcc   float64
	BestTestAcc    float64
	AvgEpochTime   time.Duration
	PreprocessTime time.Duration
	TotalPairs     int64
}

func summarise(method Method, curve []Point, preprocess time.Duration) *Result {
	r := &Result{Method: method, Curve: curve, PreprocessTime: preprocess}
	var tot time.Duration
	for _, p := range curve {
		tot += p.EpochTime
		r.TotalPairs += p.Pairs
		if p.TestAcc > r.BestTestAcc {
			r.BestTestAcc = p.TestAcc
		}
	}
	if len(curve) > 0 {
		r.AvgEpochTime = tot / time.Duration(len(curve))
		r.FinalTestAcc = curve[len(curve)-1].TestAcc
	}
	return r
}

// Task kind names, recorded in checkpoints and validated on resume.
const (
	TaskNode  = "node"
	TaskGraph = "graph"
	TaskSeq   = "seq"
	TaskEgo   = "ego"
)

// Task adapts one training regime (node / graph-level / sequence-sampled /
// ego-sampled) to the shared Loop engine. The Loop owns the optimiser, LR
// schedule, epoch iteration, cancellation, events, early stopping and
// checkpointing; the task owns the model, data access, per-step
// forward/backward and evaluation. One Task.Step is exactly one optimiser
// step's worth of work (it may span several micro-batches); the Loop applies
// the optimiser and recycles workspaces after each.
type Task interface {
	// Kind names the task regime ("node", "graph", "seq", "ego") for
	// checkpoints.
	Kind() string
	// Preprocess reports the construction-time preprocessing cost.
	Preprocess() time.Duration
	// BeginEpoch resets epoch accumulators and draws any epoch-level
	// randomness (e.g. the example shuffle).
	BeginEpoch(ep int)
	// Steps reports the number of optimiser steps in epoch ep.
	Steps(ep int) int
	// Step runs forward+backward for optimiser step s of epoch ep,
	// accumulating gradients and epoch statistics. globalStep is the
	// monotone optimiser-step counter across epochs (the dual-interleave
	// clock for graph-level training).
	Step(ep, s, globalStep int)
	// EpochPoint evaluates the epoch and builds its curve point (it may
	// consume task RNG, e.g. sampled evaluation).
	EpochPoint(ep int, dt time.Duration) Point
	// Finish runs the clean final evaluation on a completed run, patching
	// res. It is NOT called on cancelled runs, so a later resume replays
	// exactly what an uninterrupted run would have.
	Finish(res *Result)
	// StopMetric extracts the early-stopping metric from an epoch point
	// (validation accuracy when the task has one, test accuracy otherwise).
	StopMetric(p Point) float64

	// setEmit wires the Loop's event dispatcher into the task.
	setEmit(func(Event))
	// reconfigure propagates resumed lifecycle fields (epochs, LR, warmup,
	// patience) into the task's own config copy, so task decisions keyed on
	// them — e.g. the node task's final-evaluation interleave phase at
	// Cfg.Epochs — match an uninterrupted run with that configuration.
	reconfigure(cfg Config)
	// runRNG exposes the task's run-time RNG source for checkpointing
	// (nil when the task draws none).
	runRNG() *nn.CountedSource
	// base exposes the shared epoch accumulators for checkpointing.
	base() *taskBase
}

// taskBase carries what every task adapter shares: the event hook, the
// task's own Config copy, its preprocessing cost, its run-time RNG source
// and the per-epoch accumulators.
type taskBase struct {
	emit       func(Event)
	cfg        *Config           // nil for tasks without one
	preprocess time.Duration     // construction-time preprocessing
	rngSrc     *nn.CountedSource // nil for tasks that draw none at run time
	loop       *Loop             // the engine last built around the task
	epLoss     float64
	epTerms    int
	epPairs    int64
}

func (b *taskBase) setEmit(f func(Event)) { b.emit = f }

// Loop returns the engine driving the task: the one its constructor built,
// or the one Resume rebuilt around it.
func (b *taskBase) Loop() *Loop { return b.loop }

// Preprocess implements Task.
func (b *taskBase) Preprocess() time.Duration { return b.preprocess }

func (b *taskBase) runRNG() *nn.CountedSource { return b.rngSrc }

// StopMetric implements Task: test accuracy (−MAE for graph regression);
// the node task, which has a validation split, overrides it.
func (b *taskBase) StopMetric(p Point) float64 { return p.TestAcc }

func (b *taskBase) reconfigure(cfg Config) {
	if c := b.cfg; c != nil {
		c.Epochs, c.LR, c.Warmup, c.EarlyStopPatience = cfg.Epochs, cfg.LR, cfg.Warmup, cfg.EarlyStopPatience
	}
}

func (b *taskBase) base() *taskBase { return b }

func (b *taskBase) fire(e Event) {
	if b.emit != nil {
		b.emit(e)
	}
}

func (b *taskBase) resetEpoch() { b.epLoss, b.epTerms, b.epPairs = 0, 0, 0 }

// Loop is the shared training engine: one implementation of the epoch/step
// iteration, optimiser application, cancellation, event emission, early
// stopping and checkpointing, driven by a Task adapter — the one loop every
// training regime runs on.
//
// A Loop is resumable in two senses: Run returns at the next step boundary
// when its context is cancelled and may be called again to continue, and
// Checkpoint/Resume serialise the full training state (weights, optimiser
// moments, RNG stream positions, tuner and schedule state) so a separate
// process continues bitwise-identically.
type Loop struct {
	Cfg  Config
	Task Task

	model *model.GraphTransformer

	// Sink receives events; nil discards them. Assign before Run.
	Sink func(Event)
	// CheckpointEvery writes a checkpoint into CheckpointDir after every
	// CheckpointEvery-th epoch (0 disables).
	CheckpointEvery int
	CheckpointDir   string

	opt    *nn.Adam
	sched  nn.LRScheduler
	params []*nn.Param

	curve       []Point
	epoch       int  // next epoch to run
	stepInEpoch int  // next optimiser step within the current epoch
	epochBegun  bool // BeginEpoch already ran for the current epoch
	globalStep  int
	preprocess  time.Duration

	best     float64 // best stop metric seen (early stopping)
	bestSet  bool    // best holds a real observation (metrics may be ≤ 0, e.g. −MAE)
	bad      int     // consecutive epochs without improvement
	stopped  bool    // early stop latched
	finished bool
	final    *Result // completed-run result, including Finish's clean eval

	epochStartDraws uint64 // task RNG position when the current epoch began
}

// NewLoop builds the engine around a prepared task training m. cfg must be
// the task's (already defaulted) configuration.
func NewLoop(task Task, m *model.GraphTransformer, cfg Config) *Loop {
	l := &Loop{Cfg: cfg, Task: task, model: m}
	l.opt = nn.NewAdam(cfg.LR)
	l.opt.ClipNorm = 5
	l.sched = nn.ConstantLR{Base: cfg.LR}
	if cfg.Warmup > 0 {
		l.sched = nn.WarmupPoly{Peak: cfg.LR, Warmup: cfg.Warmup, Total: cfg.Epochs, Power: 1}
	}
	l.params = m.Params()
	l.preprocess = task.Preprocess()
	task.setEmit(l.fire)
	task.base().loop = l
	return l
}

// Model returns the model the Loop is training.
func (l *Loop) Model() *model.GraphTransformer { return l.model }

// Reconfigure updates the lifecycle fields of the running configuration
// after a resume: total epochs, learning-rate schedule (LR/Warmup) and
// early-stopping patience take effect immediately. Structural fields
// (method, batch shape, seeds, exec, sequence parallelism) were baked into
// the task at construction and are NOT re-read — they keep their running
// values, so resuming with them changed is a no-op for those fields and
// later checkpoints still record the configuration actually in effect.
func (l *Loop) Reconfigure(cfg Config) {
	l.Cfg.Epochs = cfg.Epochs
	l.Cfg.LR = cfg.LR
	l.Cfg.Warmup = cfg.Warmup
	l.Cfg.EarlyStopPatience = cfg.EarlyStopPatience
	l.Cfg.DataSpec = cfg.DataSpec
	l.Task.reconfigure(l.Cfg)
	l.opt.LR = cfg.LR
	l.sched = nn.ConstantLR{Base: cfg.LR}
	if cfg.Warmup > 0 {
		l.sched = nn.WarmupPoly{Peak: cfg.LR, Warmup: cfg.Warmup, Total: cfg.Epochs, Power: 1}
	}
}

func (l *Loop) fire(e Event) {
	if l.Sink != nil {
		l.Sink(e)
	}
}

// Epoch reports the next epoch the Loop will run (== completed epochs).
func (l *Loop) Epoch() int { return l.epoch }

// Result summarises training so far. On a cancelled run this is the partial
// result; once Run completes it is the completed result, including the
// task's final clean evaluation.
func (l *Loop) Result() *Result {
	if l.final != nil {
		return l.final
	}
	return summarise(l.Cfg.Method, l.curve, l.preprocess)
}

// Run trains until the configured epochs complete, early stopping triggers,
// or ctx is cancelled. Cancellation is honoured at optimiser-step
// granularity: Run returns within one step of ctx.Done(), with the partial
// Result and ctx's error. Calling Run again with a live context continues
// from the exact point it stopped.
func (l *Loop) Run(ctx context.Context) (*Result, error) {
	if l.finished {
		return l.Result(), nil
	}
	for l.epoch < l.Cfg.Epochs && !l.stopped {
		if err := ctx.Err(); err != nil {
			return l.Result(), err
		}
		t0 := time.Now()
		if !l.epochBegun {
			if src := l.Task.runRNG(); src != nil {
				l.epochStartDraws = src.Draws()
			}
			l.Task.BeginEpoch(l.epoch)
			l.epochBegun = true
		}
		steps := l.Task.Steps(l.epoch)
		for l.stepInEpoch < steps {
			if err := ctx.Err(); err != nil {
				return l.Result(), err
			}
			if err := l.runStep(); err != nil {
				return l.Result(), err
			}
			l.globalStep++
			l.stepInEpoch++
		}
		dt := time.Since(t0)
		var pt Point
		if err := l.abortable(func() { pt = l.Task.EpochPoint(l.epoch, dt) }); err != nil {
			return l.Result(), err
		}
		l.curve = append(l.curve, pt)
		l.epoch++
		l.stepInEpoch = 0
		l.epochBegun = false
		l.fire(EpochEvent{Epoch: pt.Epoch, Point: pt})

		if l.CheckpointEvery > 0 && l.epoch%l.CheckpointEvery == 0 && l.epoch < l.Cfg.Epochs {
			path := filepath.Join(l.CheckpointDir, fmt.Sprintf("epoch-%05d.ckpt", l.epoch))
			err := l.Checkpoint(path)
			l.fire(CheckpointEvent{Epoch: pt.Epoch, Path: path, Err: err})
		}
		if l.Cfg.EarlyStopPatience > 0 {
			m := l.Task.StopMetric(pt)
			if !l.bestSet || m > l.best {
				l.best, l.bestSet, l.bad = m, true, 0
			} else if l.bad++; l.bad >= l.Cfg.EarlyStopPatience {
				l.stopped = true
				l.fire(EarlyStopEvent{Epoch: pt.Epoch, Best: l.best, Patience: l.Cfg.EarlyStopPatience})
			}
		}
	}
	res := summarise(l.Cfg.Method, l.curve, l.preprocess)
	if err := l.abortable(func() { l.Task.Finish(res) }); err != nil {
		return l.Result(), err
	}
	l.final = res
	l.finished = true
	return res, nil
}

// gradSyncer is implemented by the execution plans that need a
// gradient-synchronisation collective at optimiser-step boundaries
// (model.SeqParallel in-process, model.DistSeqParallel across processes).
// Resolved from the model's plan at step time, not cached at construction,
// because distributed sessions attach their plan after the trainer is built.
type gradSyncer interface{ SyncGradients([]*nn.Param) }

// sourceError abandons a step or an evaluation whose data source failed (a
// disk-resident view's sticky I/O error): the task panics with it, the Loop
// rolls the work back and Run returns it.
type sourceError struct {
	epoch int
	err   error
}

func (e *sourceError) Error() string { return fmt.Sprintf("train: epoch %d: %v", e.epoch, e.err) }
func (e *sourceError) Unwrap() error { return e.err }

// abortable runs f and returns, as an error, the panic with which a task
// abandons its work: a lost peer rank (transport.ErrRankLost) or a failed
// data source (sourceError). The task RNG is then put back where f found it.
// Any other panic propagates unchanged.
func (l *Loop) abortable(f func()) (err error) {
	src := l.Task.runRNG()
	var draws uint64
	if src != nil {
		draws = src.Draws()
	}
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		e, ok := rec.(error)
		var se *sourceError
		if !ok || !(transport.IsRankLost(e) || errors.As(e, &se)) {
			panic(rec)
		}
		if src != nil {
			src.Seek(draws)
		}
		err = e
	}()
	f()
	return nil
}

// runStep executes one optimiser step as a transaction. Under a distributed
// plan a peer rank can disappear mid-step — the collective panics with a
// transport.ErrRankLost — and a disk-resident source can fail under a
// sampling task (sourceError). Either way every stream the half-finished
// step touched is rolled back to the last completed step boundary (dropout
// and task RNG positions, epoch accumulators, gradients, workspaces) and the
// error is returned: the Loop is then in exactly the state a step-granular
// cancellation would have left, so Checkpoint produces a file from which
// the surviving ranks resume bitwise-identically at a new world size.
func (l *Loop) runStep() error {
	drops := l.model.Dropouts()
	dropDraws := make([]uint64, len(drops))
	for i, d := range drops {
		dropDraws[i] = d.RNGDraws()
	}
	b := l.Task.base()
	epLoss, epTerms, epPairs := b.epLoss, b.epTerms, b.epPairs
	err := l.abortable(func() {
		l.Task.Step(l.epoch, l.stepInEpoch, l.globalStep)
		if gs, ok := l.model.Plan().(gradSyncer); ok {
			// the gradient-synchronisation collective that closes every
			// parallel optimiser step (fixed rank order)
			gs.SyncGradients(l.params)
		}
	})
	if err != nil {
		for i, d := range drops {
			d.SeekRNG(dropDraws[i])
		}
		b.epLoss, b.epTerms, b.epPairs = epLoss, epTerms, epPairs
		l.model.Plan().StepReset()
		for _, p := range l.params {
			p.ZeroGrad()
		}
		return err
	}
	nn.StepWith(l.opt, l.sched, l.epoch, l.params)
	// step boundary: every gradient is consumed, recycle workspaces
	l.model.Plan().StepReset()
	return nil
}
