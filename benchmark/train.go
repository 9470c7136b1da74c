package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"torchgt"
	"torchgt/internal/model"
	"torchgt/internal/train"
)

// epochRec is one completed epoch as one rank saw it.
type epochRec struct {
	loss   float64
	wall   float64 // seconds from the previous epoch's end (or Run's start) to this one's
	sparse bool    // cluster-sparse phase (false = dense-flash)
}

// epochLog turns a session's event stream into epoch records. Epoch wall
// time is taken from event arrival, so it includes evaluation and
// everything else the loop does between epochs.
type epochLog struct {
	last   time.Time
	sparse bool
	epochs []epochRec
}

func (l *epochLog) sink(e torchgt.Event) {
	switch ev := e.(type) {
	case torchgt.PhaseEvent:
		l.sparse = ev.Sparse
	case torchgt.EpochEvent:
		now := time.Now()
		l.epochs = append(l.epochs, epochRec{loss: ev.Point.Loss, wall: now.Sub(l.last).Seconds(), sparse: l.sparse})
		l.last = now
	}
}

// trainJob is a set-up training run of either kind.
type trainJob interface {
	// serving returns what the serving phase needs: the model (trained once
	// run has returned) and the in-memory dataset or the shard directory.
	serving() (m *torchgt.GraphTransformer, ds *torchgt.NodeDataset, shardDir string)
	run(parent int) (*trained, error)
	close()
}

// setupTrain does everything that comes before the first epoch. A nil
// tracer builds through the library API alone.
func setupTrain(w workload, sz sizes, tr *tracer) (trainJob, error) {
	if w.ego {
		return setupEgo(sz, tr)
	}
	return setupFull(w, sz, tr)
}

// trained is the record of a completed training run.
type trained struct {
	ranks     [][]epochRec // per OS-level rank
	warm      int          // leading epochs left out of the timed set
	steps     int          // optimiser steps per epoch
	commBytes int64
	srcErr    error // sticky I/O error of a disk-resident source
}

// runner is what the benchmark needs from a training run; *torchgt.Session
// is one, and the traced runs build the same engine around a wrapped Task.
type runner interface {
	Run(ctx context.Context) (*torchgt.Result, error)
	Model() *torchgt.GraphTransformer
	CommBytes() int64
}

type loopRunner struct{ loop *train.Loop }

func (r loopRunner) Run(ctx context.Context) (*torchgt.Result, error) { return r.loop.Run(ctx) }
func (r loopRunner) Model() *torchgt.GraphTransformer                 { return r.loop.Model() }
func (r loopRunner) CommBytes() int64 {
	if sp := model.AsSeqParallel(r.loop.Model().Plan()); sp != nil {
		return sp.Comm().TotalBytes()
	}
	if dp := model.AsDistSeqParallel(r.loop.Model().Plan()); dp != nil {
		return dp.TransportBytes()
	}
	return 0
}

// fullTrain is a set-up full-graph training run: one runner per OS-level
// rank (one for the serial and in-process plans, w.ranks over TCP).
type fullTrain struct {
	ds         *torchgt.NodeDataset // rank 0's copy; served after training
	runs       []runner
	logs       []*epochLog
	transports []torchgt.Transport  // TCP only; closed after every rank is done
	counters   []*countingTransport // traced TCP only
	tasks      []*tracedTask        // traced only
	warm       int
	rendezvous time.Duration
}

// setupFull opens the dataset and builds the training run of a full-graph
// workload: partition, cluster reorder and pattern reformation happen
// inside, and over TCP so does the rendezvous. A nil tracer builds through
// the library API; a tracer builds the same engine with a wrapped Task.
func setupFull(w workload, sz sizes, tr *tracer) (*fullTrain, error) {
	procs := 1
	if w.tcp {
		procs = w.ranks
	}
	f := &fullTrain{
		runs: make([]runner, procs), logs: make([]*epochLog, procs),
		transports: make([]torchgt.Transport, procs), counters: make([]*countingTransport, procs),
		tasks: make([]*tracedTask, procs),
	}
	addr := ""
	if w.tcp {
		var err error
		if addr, err = reservePort(); err != nil {
			return nil, err
		}
	}
	dss := make([]*torchgt.NodeDataset, procs)
	errs := make([]error, procs)
	waits := make([]time.Duration, procs)
	var wg sync.WaitGroup
	for r := 0; r < procs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			d, err := torchgt.OpenDataset(sz.fullSpec())
			if err != nil {
				errs[r] = err
				return
			}
			ds := d.Node
			dss[r] = ds
			var t torchgt.Transport
			if w.tcp {
				t0 := time.Now()
				t, err = torchgt.Rendezvous(context.Background(), addr, r, procs,
					torchgt.TransportOptions{Fingerprint: w.name})
				if err != nil {
					errs[r] = fmt.Errorf("rendezvous: %w", err)
					return
				}
				waits[r] = time.Since(t0)
				f.transports[r] = t
				if tr != nil {
					f.counters[r] = &countingTransport{Transport: t}
					t = f.counters[r]
				}
			}
			f.logs[r] = &epochLog{}
			if tr != nil {
				f.tasks[r] = &tracedTask{tr: tr, rank: r}
			}
			f.runs[r], errs[r] = buildFull(w, sz, ds, t, f.logs[r], f.tasks[r])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			f.close()
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	f.ds, f.warm = dss[0], sz.Warm
	for _, d := range waits {
		f.rendezvous = max(f.rendezvous, d)
	}
	return f, nil
}

// reservePort picks a free loopback port for a rendezvous coordinator;
// peers redial until it listens.
func reservePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// buildFull builds one rank's training run. β is pinned to the graph's
// sparsity and the seed fixed, so every run does the same work; the Auto
// Tuner would move β from wall-clock epoch time.
func buildFull(w workload, sz sizes, ds *torchgt.NodeDataset, t torchgt.Transport, log *epochLog, task *tracedTask) (runner, error) {
	mcfg := torchgt.GraphormerSlim(ds.X.Cols, ds.NumClasses, trainSeed)
	beta := ds.G.Sparsity()
	if task == nil {
		opts := []torchgt.SessionOption{
			torchgt.WithEpochs(sz.Epochs), torchgt.WithFixedBeta(beta), torchgt.WithSeed(trainSeed),
			torchgt.WithEventSink(log.sink),
		}
		switch {
		case t != nil:
			opts = append(opts, torchgt.WithTransport(t))
		case w.ranks > 1:
			opts = append(opts, torchgt.WithSeqParallel(w.ranks))
		}
		return torchgt.NewSession(torchgt.MethodTorchGT, mcfg, torchgt.NodeTask(ds), opts...)
	}
	tcfg := train.Config{Method: train.TorchGT, Epochs: sz.Epochs, Seed: trainSeed, FixedBeta: beta, UseFixedBeta: true}
	if t == nil && w.ranks > 1 {
		tcfg.SeqParallel = w.ranks
	}
	nt := train.NewNodeTrainer(tcfg, mcfg, ds)
	if t != nil {
		plan, err := model.NewDistSeqParallel(t, 1, model.ExecOptions{PoolEnabled: true})
		if err != nil {
			return nil, err
		}
		nt.Model.SetPlan(plan)
	}
	task.Task = nt
	loop := train.NewLoop(task, nt.Model, nt.Cfg)
	loop.Sink = log.sink
	return loopRunner{loop}, nil
}

func (f *fullTrain) serving() (*torchgt.GraphTransformer, *torchgt.NodeDataset, string) {
	return f.runs[0].Model(), f.ds, ""
}

// run trains every rank to completion, concurrently; the traced ranks'
// epoch spans go under parent.
func (f *fullTrain) run(parent int) (*trained, error) {
	for _, t := range f.tasks {
		if t != nil {
			t.parent = parent
		}
	}
	errs := make([]error, len(f.runs))
	var wg sync.WaitGroup
	start := time.Now()
	for r := range f.runs {
		f.logs[r].last = start
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, errs[r] = f.runs[r].Run(context.Background())
		}(r)
	}
	wg.Wait()
	tn := &trained{warm: f.warm, steps: 1, commBytes: f.runs[0].CommBytes()}
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
		tn.ranks = append(tn.ranks, f.logs[r].epochs)
	}
	return tn, nil
}

// close releases the transports; call only once every rank has finished,
// because a rank's last collectives are consumed by peers still evaluating.
func (f *fullTrain) close() {
	for _, t := range f.transports {
		if t != nil {
			t.Close()
		}
	}
}

// egoTrain is a set-up ego-sampled training run over a sharded dataset.
type egoTrain struct {
	dir     string // temporary shard directory
	src     torchgt.NodeSource
	counter *countingSource // traced only
	trainer *train.EgoTrainer
	targets int // training targets per epoch
	evals   int // test nodes the trainer classifies after each epoch
	warm    int
	tr      *tracer
	openS   float64
}

// setupEgo generates the dataset, writes it as shards into a fresh
// temporary directory, opens it disk-resident and builds the trainer.
func setupEgo(sz sizes, tr *tracer) (*egoTrain, error) {
	d, err := torchgt.OpenDataset(sz.egoSpec())
	if err != nil {
		return nil, err
	}
	ds := d.Node
	dir, err := os.MkdirTemp("", "torchgt-bench-shards-")
	if err != nil {
		return nil, err
	}
	e := &egoTrain{dir: dir, warm: sz.EgoWarm, tr: tr}
	if _, err := torchgt.ShardNodeDataset(dir, ds, sz.Shards); err != nil {
		e.close()
		return nil, err
	}
	t0 := time.Now()
	if e.src, err = torchgt.OpenNodeSource(shardSpec(dir)); err != nil {
		e.close()
		return nil, err
	}
	e.openS = time.Since(t0).Seconds()
	for i, m := range ds.TrainMask {
		if m {
			e.targets++
		}
		if ds.TestMask[i] && e.evals < 200 { // the trainer's per-epoch cap
			e.evals++
		}
	}
	src := e.src
	if tr != nil {
		e.counter = &countingSource{NodeSource: src}
		src = e.counter
	}
	// What torchgt.TrainNodeEgoSource builds, kept in hand so the trained
	// model can be frozen and served afterwards.
	e.trainer = train.NewEgoTrainerSource(train.EgoConfig{
		Epochs: sz.EgoEpochs, MaxSize: egoCtx, Batch: egoBatch, Seed: trainSeed, Workers: 2,
	}, torchgt.GraphormerSlim(ds.X.Cols, ds.NumClasses, trainSeed), src)
	return e, nil
}

const (
	egoCtx   = 32 // tokens per sampled ego context (training and serving)
	egoBatch = 32 // targets per optimiser step
)

func (e *egoTrain) serving() (*torchgt.GraphTransformer, *torchgt.NodeDataset, string) {
	return e.trainer.Model, nil, e.dir
}

// run trains to completion. The trainer reports epoch durations only, so
// the epoch spans under parent are laid back to back from the start.
func (e *egoTrain) run(parent int) (*trained, error) {
	at := time.Now()
	res, err := e.trainer.Run()
	if err != nil {
		return nil, err
	}
	recs := make([]epochRec, len(res.Curve))
	for i, p := range res.Curve {
		recs[i] = epochRec{loss: p.Loss, wall: p.EpochTime.Seconds(), sparse: true}
		e.tr.add("train.epoch", parent, i, 0, at, p.EpochTime)
		at = at.Add(p.EpochTime)
	}
	return &trained{
		ranks: [][]epochRec{recs}, warm: e.warm, steps: (e.targets + egoBatch - 1) / egoBatch, srcErr: e.src.SourceErr(),
	}, nil
}

func (e *egoTrain) close() {
	closeSource(e.src)
	os.RemoveAll(e.dir)
}

func closeSource(src torchgt.NodeSource) {
	if c, ok := src.(io.Closer); ok {
		c.Close()
	}
}
